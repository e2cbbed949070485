"""Parse trees, provenance spans, and the unified tree builder.

The interpreter builds a concrete parse tree: :class:`RuleNode` per rule
invocation, :class:`TokenNode` per matched token.  Embedded actions can
attach arbitrary values to nodes (``node.value``), which is how the
example interpreters (calculator, JSON) compute results.

Every node carries exact source provenance:

* ``start`` / ``stop`` — the token-index span the node covers,
  inclusive on both ends.  A node that consumed nothing has the *empty
  span at position p*: ``start == p``, ``stop == p - 1``.  Spans are
  assigned by :class:`TreeBuilder` from the stream position at rule
  entry/exit, so every producer (interpreter, generated parsers, the
  baselines) derives identical spans for identical derivations — the
  differential harness digests them (see
  :func:`repro.fuzz.differential.tree_digest`).
* ``parent`` — back-pointer to the enclosing node (None at the root),
  enabling :meth:`ParseTree.ancestors`, :attr:`ParseTree.depth`, and
  upward searches from any node a walker hands out.
* ``source_text`` — the *exact* character slice of the original input
  covered by the node, whitespace and comments included, recovered from
  token char offsets against the source the builder recorded on the
  root.  ``text`` (the whitespace-lossy space-joined token text) is kept
  for compatibility.

Error recovery (``ParserOptions(recover=True)`` or an inline
:class:`~repro.runtime.errors.DefaultErrorStrategy`) additionally
records every repair as an :class:`ErrorNode` — which tokens were
skipped or deleted, and which token was synthesized — so downstream
consumers can see exactly where the tree deviates from the input.

All tree construction goes through :class:`TreeBuilder`; producers must
honor its contract (see DESIGN.md "Tree core & transformation layer")
rather than hand-assembling nodes.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple


class ParseTree:
    """Common tree interface.

    ``start``/``stop`` are the token-index span (inclusive; empty spans
    have ``stop == start - 1``); ``parent`` is the enclosing node.
    """

    __slots__ = ("parent", "start", "stop")

    def __init__(self):
        self.parent: Optional["ParseTree"] = None
        self.start = -1
        self.stop = -2

    def to_sexpr(self) -> str:
        raise NotImplementedError

    def to_spanned_sexpr(self) -> str:
        """Canonical s-expression with token-index spans — the form the
        differential harness digests, so backend agreement proves
        provenance agreement, not just shape agreement."""
        raise NotImplementedError

    def walk(self) -> Iterator["ParseTree"]:
        yield self

    # -- provenance --------------------------------------------------------

    @property
    def span(self) -> Tuple[int, int]:
        """(start, stop) token-index span, inclusive; empty when
        ``stop < start``."""
        return (self.start, self.stop)

    @property
    def is_empty_span(self) -> bool:
        return self.stop < self.start

    def shift(self, delta_tokens: int) -> None:
        """Translate this node's token-index span by ``delta_tokens``.

        Used by the incremental reparse layer when grafting a subtree
        from a previous parse at a new stream position.  Shifts only
        this node (callers walk the subtree); empty spans
        ``(p, p - 1)`` stay empty.  A shift that would move an assigned
        span below index 0 raises — spans silently going negative would
        corrupt provenance for every later consumer.
        """
        if not delta_tokens:
            return
        new_start = self.start + delta_tokens
        if self.start >= 0 and new_start < 0:
            raise ValueError("span start %d + delta %d is negative"
                             % (self.start, delta_tokens))
        self.start = new_start
        self.stop = self.stop + delta_tokens

    def token_nodes(self) -> List["TokenNode"]:
        """All token leaves under this node, in input order."""
        return [t for t in self.walk() if isinstance(t, TokenNode)]

    def source_span(self) -> Optional[Tuple[int, int]]:
        """Character-offset span ``(start, stop)`` (stop exclusive) of
        the node's tokens, or None when no token carries char offsets
        (e.g. streams built from bare token types)."""
        first = last = None
        for t in self.walk():
            if isinstance(t, TokenNode) and t.token.start >= 0:
                if first is None:
                    first = t
                last = t
        if first is None or last is None or last.token.stop < 0:
            return None
        return (first.token.start, last.token.stop)

    @property
    def source_text(self) -> str:
        """Exact source slice covered by this node (char offsets),
        whitespace and comments preserved.

        Falls back to :attr:`text` when the tree has no recorded source
        or the tokens carry no char offsets.
        """
        src = self._source()
        span = self.source_span()
        if src is None or span is None:
            return self.text
        return src[span[0]:span[1]]

    def _source(self) -> Optional[str]:
        """The original input text, recorded by the builder on the root."""
        node = self
        while node is not None:
            if isinstance(node, RuleNode) and node.source is not None:
                return node.source
            node = node.parent
        return None

    # -- ancestry ----------------------------------------------------------

    def ancestors(self) -> Iterator["ParseTree"]:
        """Yield enclosing nodes from the immediate parent to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    @property
    def depth(self) -> int:
        """Number of ancestors above this node (0 at the root)."""
        return sum(1 for _ in self.ancestors())

    @property
    def root(self) -> "ParseTree":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    # -- text / errors -----------------------------------------------------

    @property
    def text(self) -> str:
        """Space-joined token text (compatibility; loses original
        spacing — use :attr:`source_text` where exact source matters)."""
        return " ".join(t.token.text for t in self.walk() if isinstance(t, TokenNode))

    def error_nodes(self) -> List["ErrorNode"]:
        """All recovery points recorded under this node, in input order."""
        return [n for n in self.walk() if isinstance(n, ErrorNode)]

    @property
    def has_errors(self) -> bool:
        """True when any repair happened somewhere under this node."""
        return any(isinstance(n, ErrorNode) for n in self.walk())


class TokenNode(ParseTree):
    """Leaf wrapping one matched token; its span is the token's index."""

    __slots__ = ("token",)

    def __init__(self, token):
        self.parent = None
        self.token = token
        self.start = token.index
        self.stop = token.index

    def to_sexpr(self) -> str:
        return self.token.text

    def to_spanned_sexpr(self) -> str:
        return "%s@%d" % (self.token.text, self.token.index)

    def __repr__(self):
        return "TokenNode(%r)" % self.token.text


class ErrorNode(ParseTree):
    """A recovery point: marks where and how the parser repaired input.

    ``tokens`` are the input tokens the repair discarded (panic-mode
    resync skips, inline single-token deletions); ``inserted`` is the
    token an inline single-token *insertion* synthesized (its ``index``
    is -1 — it never existed in the stream); ``error`` is the
    :class:`~repro.exceptions.RecognitionError` that triggered the
    repair (None for silent cascade resyncs).

    The span covers the discarded tokens; an insertion (which consumed
    nothing) gets the empty span at the repair position ``at``.
    Ops against repaired spans are the rewriter's business: a
    :class:`~repro.runtime.rewriter.TokenStreamRewriter` raises a typed
    error for any op that names an inserted token's ``-1`` index.

    ErrorNodes are leaves.  They are deliberately excluded from
    :attr:`ParseTree.text`, so the text of a recovered tree is exactly
    the input the parser *accepted* — the non-error spans.
    """

    __slots__ = ("error", "tokens", "inserted")

    def __init__(self, error=None, tokens=(), inserted=None, at: int = -1):
        self.parent = None
        self.error = error
        self.tokens = list(tokens)
        self.inserted = inserted
        if self.tokens:
            self.start = self.tokens[0].index
            self.stop = self.tokens[-1].index
        else:
            self.start = at
            self.stop = at - 1

    @property
    def is_insertion(self) -> bool:
        return self.inserted is not None

    def to_sexpr(self) -> str:
        if self.inserted is not None:
            return "(<error> inserted %s)" % self.inserted.text
        if self.tokens:
            return "(<error> %s)" % " ".join(t.text for t in self.tokens)
        return "(<error>)"

    def to_spanned_sexpr(self) -> str:
        if self.inserted is not None:
            return "(<error>[%d:%d] inserted %s)" % (
                self.start, self.stop, self.inserted.text)
        if self.tokens:
            return "(<error>[%d:%d] %s)" % (
                self.start, self.stop,
                " ".join(t.text for t in self.tokens))
        return "(<error>[%d:%d])" % (self.start, self.stop)

    def __repr__(self):
        if self.inserted is not None:
            return "ErrorNode(inserted %r)" % self.inserted.text
        return "ErrorNode(%d skipped)" % len(self.tokens)


class RuleNode(ParseTree):
    """Interior node for one rule invocation.

    ``value`` is a free slot for embedded actions (``ctx.value = ...``).
    ``source`` holds the original input text on the root node only (set
    by the builder); every descendant reaches it through the parent
    chain for :attr:`ParseTree.source_text`.

    ``look_stop`` is the rule's reach: the highest token index its
    derivation examined — its predictions and speculations, nested rules
    and memo hits included, and at least its last token — or -1 when the
    derivation is not a pure function of its tokens (actions,
    predicates, rule parameters, or error repairs ran inside it).  A
    node with ``look_stop >= 0`` can be reused verbatim by an
    incremental reparse whenever tokens ``[start, look_stop]`` are
    unchanged (see :mod:`repro.runtime.incremental`).
    """

    __slots__ = ("rule_name", "children", "value", "alt", "source", "look_stop")

    def __init__(self, rule_name: str, alt: Optional[int] = None):
        self.parent = None
        self.start = -1
        self.stop = -2
        self.rule_name = rule_name
        self.children: List[ParseTree] = []
        self.value: Any = None
        self.alt = alt  # which alternative was predicted (1-based)
        self.source: Optional[str] = None
        self.look_stop = -1

    def add(self, child: ParseTree) -> None:
        child.parent = self
        self.children.append(child)

    def shift(self, delta_tokens: int) -> None:
        ParseTree.shift(self, delta_tokens)
        if delta_tokens and self.look_stop >= 0:
            self.look_stop += delta_tokens

    def walk(self) -> Iterator[ParseTree]:
        yield self
        for c in self.children:
            yield from c.walk()

    def child_rules(self, name: Optional[str] = None) -> List["RuleNode"]:
        out = [c for c in self.children if isinstance(c, RuleNode)]
        if name is not None:
            out = [c for c in out if c.rule_name == name]
        return out

    def child_tokens(self) -> List[TokenNode]:
        return [c for c in self.children if isinstance(c, TokenNode)]

    def first_rule(self, name: str) -> Optional["RuleNode"]:
        for node in self.walk():
            if isinstance(node, RuleNode) and node.rule_name == name:
                return node
        return None

    def to_sexpr(self) -> str:
        if not self.children:
            return "(%s)" % self.rule_name
        inner = " ".join(c.to_sexpr() for c in self.children)
        return "(%s %s)" % (self.rule_name, inner)

    def to_spanned_sexpr(self) -> str:
        head = "%s[%d:%d]" % (self.rule_name, self.start, self.stop)
        if not self.children:
            return "(%s)" % head
        inner = " ".join(c.to_spanned_sexpr() for c in self.children)
        return "(%s %s)" % (head, inner)

    def __repr__(self):
        return "RuleNode(%s, %d children)" % (self.rule_name, len(self.children))


class TreeBuilder:
    """The one way parse trees get built.

    Every producer — the ATN interpreter, generated parsers, the LL(k)
    and packrat baselines, and (via :meth:`rule`) the bottom-up GLR and
    Earley baselines — constructs nodes through a builder, which is the
    single authority for span assignment, parent back-pointers, and the
    source-text record.  The contract:

    * :meth:`open_rule` at the stream position of rule entry,
      :meth:`close_rule` at the position of rule exit.  The node's span
      becomes ``[entry, exit - 1]`` — the empty span at entry when the
      rule consumed nothing.
    * children attach to their parent at ``close`` (so a failed rule
      leaves no partial child behind); backtracking producers bracket
      each attempt with :meth:`checkpoint`/:meth:`rollback` and drop a
      failed rule with :meth:`abandon_rule`.
    * the root node records ``source`` (when the producer's stream knows
      it) so :attr:`ParseTree.source_text` can slice exact text.
    """

    __slots__ = ("source", "root", "_stack")

    def __init__(self, source: Optional[str] = None):
        self.source = source
        self.root: Optional[RuleNode] = None
        self._stack: List[RuleNode] = []

    # -- state -------------------------------------------------------------

    @property
    def current(self) -> Optional[RuleNode]:
        """The innermost open rule node (where leaves attach)."""
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    # -- top-down construction ---------------------------------------------

    def open_rule(self, rule_name: str, start_index: int) -> RuleNode:
        node = RuleNode(rule_name)
        node.start = start_index
        node.stop = start_index - 1
        self._stack.append(node)
        return node

    def set_alt(self, alt: int) -> None:
        self._stack[-1].alt = alt

    def add_token(self, token) -> TokenNode:
        node = TokenNode(token)
        self._stack[-1].add(node)
        return node

    def attach(self, node: ParseTree) -> bool:
        """Attach a prebuilt node (error strategies construct their own
        ErrorNodes) to the innermost open rule.  Returns False — and
        leaves the node detached — when nothing is open (tree building
        off, or speculation)."""
        if not self._stack:
            return False
        self._stack[-1].add(node)
        return True

    def close_rule(self, stop_index: int) -> RuleNode:
        """Finalize the innermost rule: span ``[start, stop_index - 1]``,
        attach to the enclosing open rule (or become the root)."""
        node = self._stack.pop()
        node.stop = stop_index - 1
        if self._stack:
            self._stack[-1].add(node)
        else:
            self.root = node
            node.source = self.source
        return node

    def abandon_rule(self) -> None:
        """Discard the innermost open rule without attaching it."""
        self._stack.pop()

    # -- backtracking support ----------------------------------------------

    def checkpoint(self) -> int:
        """Mark the current child count of the innermost open rule."""
        return len(self._stack[-1].children)

    def rollback(self, mark: int) -> None:
        """Drop children added since ``mark`` (a failed alternative)."""
        del self._stack[-1].children[mark:]

    # -- bottom-up construction (GLR / Earley) -----------------------------

    def rule(self, rule_name: str, children, at: int,
             alt: Optional[int] = None) -> RuleNode:
        """Assemble a finished rule node from already-built children.

        ``children`` may contain plain lists, which are spliced (the
        bottom-up baselines use this to collapse synthetic EBNF
        nonterminals).  ``at`` positions the empty span when there are
        no children.
        """
        node = RuleNode(rule_name, alt=alt)
        flat: List[ParseTree] = []
        _flatten(children, flat)
        for child in flat:
            node.add(child)
        if flat:
            node.start = flat[0].start
            node.stop = flat[-1].stop
        else:
            node.start = at
            node.stop = at - 1
        return node

    def leaf(self, token) -> TokenNode:
        """A detached token leaf for bottom-up assembly."""
        return TokenNode(token)

    def finish_root(self, node: RuleNode) -> RuleNode:
        """Declare a bottom-up tree complete: record root + source.

        Also re-walks the tree fixing parent pointers: bottom-up
        producers may have attached a shared leaf to a derivation that
        lost out (GLR edge labels, Earley memo hits), leaving its parent
        aimed outside the chosen tree.
        """
        self.root = node
        node.source = self.source
        node.parent = None
        stack: List[ParseTree] = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, RuleNode):
                for child in cur.children:
                    child.parent = cur
                    stack.append(child)
        return node


def _flatten(children, out: List[ParseTree]) -> None:
    for c in children:
        if isinstance(c, list):
            _flatten(c, out)
        else:
            out.append(c)


class TreeVisitor:
    """Dispatch on rule name: ``visit_<rule>`` methods, generic fallback.

    >>> class Eval(TreeVisitor):
    ...     def visit_expr(self, node):
    ...         ...
    """

    def visit(self, tree: ParseTree):
        if isinstance(tree, TokenNode):
            return self.visit_token(tree)
        if isinstance(tree, ErrorNode):
            return self.visit_error(tree)
        method = getattr(self, "visit_" + tree.rule_name, None)
        if method is not None:
            return method(tree)
        return self.generic_visit(tree)

    def visit_token(self, node: TokenNode):
        return node.token.text

    def visit_error(self, node: ErrorNode):
        return None

    def generic_visit(self, node: RuleNode):
        result = None
        for child in node.children:
            result = self.visit(child)
        return result
