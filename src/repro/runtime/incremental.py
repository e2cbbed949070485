"""Incremental, editor-grade reparsing: damage-proportional relex + subtree reuse.

An :class:`EditSession` holds one document's lexical and syntactic state
— the source text, the lexeme records, the visible token stream, and the
spanned parse tree — and accepts point edits ``(start, end,
replacement)``.  Each edit re-does work proportional to the *damage*,
not the file:

**Damage window.**  The tokenizer records, per lexeme, the furthest
character its maximal-munch scan *examined* (``DFATokenizer.last_scan_end``
— one past the accepted text, because longest-match must read one
character beyond a lexeme before it can stop, and further for lexer
rules with longer lookahead).  A lexeme is untouchable by an edit at
``[start, end)`` iff its scan stopped at or before ``start``; the first
damaged lexeme is found by binary search over the prefix-maximum of the
scan stops (the prefix max is monotone even though individual scan stops
need not be).

**Resync rule.**  Relexing restarts at the first damaged lexeme's start
and continues through the new text until the current position, mapped
back to old-text coordinates (``pos - delta``), lands at or past the
edit end *and* on an old lexeme boundary.  From there on the old and new
texts are identical, every old scan examined only characters at or past
that boundary, so the entire old suffix is valid verbatim — it is
spliced back with its character offsets (and line/column coordinates)
shifted, never rescanned.  Relexing that reaches end of input simply has
no suffix.

**Seeds & invalidation policy.**  The previous tree is harvested into a
plain mapping keyed by ``(rule name, start token index)`` in *new*
token coordinates.  A subtree qualifies only if its derivation was a
pure function of its tokens: ``RuleNode.look_stop >= 0``, meaning no
actions, predicates, rule arguments, or error repairs ran while it was
open, and ``look_stop`` is the rule's reach, the last token its
derivation examined.  A pure subtree is valid when all the tokens it
depends on — ``[start, look_stop]`` — are unchanged: entirely before
the first damaged token, or entirely within the shifted suffix (when
the edit changed nothing but whitespace/comments, the token sequence is
identical and every pure subtree qualifies in place).  Harvesting is
outermost-wins and does not descend into a harvested subtree, so it
touches only the spine around the damage.  The mapping seeds the
parser's ``(rule, start)`` memo (``ParserOptions.reuse``): speculation
seeks past a seeded subtree as past a memoized match, the committed
parse grafts it via the tree builder; misses — and the damaged region
itself — fall back to normal LL(*) prediction and error recovery.

Edits are transactional at the lexical level: a :class:`LexerError`
inside the damage window leaves the session exactly as it was.  A parse
failure (only possible with ``recover=False``) commits the new lexical
state but drops the tree; the next successful edit reparses from
scratch.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.exceptions import GrammarError
from repro.runtime.parser import LLStarParser, ParserOptions
from repro.runtime.token import DEFAULT_CHANNEL, EOF, Token
from repro.runtime.token_stream import ListTokenStream
from repro.runtime.trees import RuleNode

__all__ = ["EditSession", "EditStats"]

#: One lexeme scan: (char start, char end, exclusive scan high-water
#: mark, produced token or None for a skipped rule).  Records tile the
#: text exactly and always end with an EOF record (start == end == len).
_LexRecord = Tuple[int, int, int, Optional[Token]]

#: Subtrees of the previous tree that the next parse may reuse, keyed by
#: ``(rule name, start token index)`` in new token coordinates.
_Seeds = Dict[Tuple[str, int], RuleNode]


class EditStats:
    """What one :meth:`EditSession.edit` actually did."""

    __slots__ = ("relexed_chars", "damaged_tokens", "shifted_tokens",
                 "reused_nodes", "reused_tokens", "total_tokens",
                 "token_delta")

    def __init__(self, relexed_chars: int, damaged_tokens: int,
                 shifted_tokens: int, reused_nodes: int, reused_tokens: int,
                 total_tokens: int, token_delta: int):
        self.relexed_chars = relexed_chars
        self.damaged_tokens = damaged_tokens
        self.shifted_tokens = shifted_tokens
        self.reused_nodes = reused_nodes
        self.reused_tokens = reused_tokens
        self.total_tokens = total_tokens
        self.token_delta = token_delta

    @property
    def reuse_rate(self) -> float:
        """Fraction of the new token stream covered by grafted subtrees."""
        if not self.total_tokens:
            return 0.0
        return self.reused_tokens / self.total_tokens

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return ("EditStats(relexed %d chars, %d damaged tokens, "
                "reused %d/%d tokens)" % (self.relexed_chars,
                                          self.damaged_tokens,
                                          self.reused_tokens,
                                          self.total_tokens))


class EditSession:
    """A live document: apply edits, keep tokens and tree up to date.

    ``recover=True`` (the default — this is the editor-facing surface)
    keeps the parse total: syntax errors become ErrorNodes and the
    session stays incrementally editable straight through broken
    intermediate states.  With ``recover=False`` a failing edit raises;
    the lexical state still advances (the text *did* change) but the
    tree is dropped until an edit parses again.

    Each edit reuses subtrees of the previous tree, and takes apart the
    rest of it: a tree that :meth:`edit` has replaced is no longer valid.
    """

    def __init__(self, host, text: str, rule_name: Optional[str] = None,
                 recover: bool = True, telemetry=None):
        if host.lexer_spec is None:
            raise GrammarError(
                "grammar %s has no lexer rules; EditSession needs text input"
                % host.grammar.name)
        self.host = host
        self.rule_name = rule_name
        self.recover = recover
        self.telemetry = telemetry
        self.text = text
        self.tree: Optional[RuleNode] = None
        self.errors: list = []
        self.stats: Optional[EditStats] = None
        self._recs: List[_LexRecord] = self._lex_from(text, 0, [])
        self._index_records()
        self._stream = self._build_stream()
        self._reparse({})

    # -- public surface ----------------------------------------------------

    @property
    def stream(self) -> ListTokenStream:
        """The current visible token stream (rebuilt per edit)."""
        return self._stream

    def tokens(self) -> List[Token]:
        return self._stream.tokens()

    def to_spanned_sexpr(self) -> Optional[str]:
        return self.tree.to_spanned_sexpr() if self.tree is not None else None

    def edit(self, start: int, end: int, replacement: str):
        """Replace ``text[start:end]`` with ``replacement`` and reparse.

        Returns the new tree root; the previous root is no longer valid.
        Raises :class:`LexerError` (session unchanged) when the damaged
        region cannot be tokenized, or a
        :class:`~repro.exceptions.RecognitionError` when
        ``recover=False`` and the new text does not parse (lexical state
        committed, tree dropped).
        """
        old_text = self.text
        if not (0 <= start <= end <= len(old_text)):
            raise ValueError("edit [%d:%d) out of range for %d-char text"
                             % (start, end, len(old_text)))
        new_text = old_text[:start] + replacement + old_text[end:]
        delta = len(replacement) - (end - start)
        recs = self._recs

        # 1. Damage window: first lexeme whose scan examined a character
        # at or past ``start``.  The EOF record's scan stop is len + 1,
        # so d always exists and appends damage (at least) EOF.
        d = bisect_right(self._pmax, start)
        relex_from = recs[d][0]

        # 2. Relex forward until token boundaries resynchronize with the
        # old record stream (or end of input).  Nothing is mutated yet:
        # a LexerError here leaves the session untouched.
        middle, r, relex_end = self._relex_damage(new_text, relex_from,
                                                  end, delta)

        # 3. Token-coordinate bookkeeping, all in *old* visible indices:
        # p = first damaged visible token, s_old = first kept suffix
        # visible token.  delta_tokens maps old suffix indices to new.
        old_vis_total = self._stream.size
        s_old = old_vis_total
        for i in range(r, len(recs)):
            t = recs[i][3]
            if t is not None and t.channel == DEFAULT_CHANNEL:
                s_old = t.index
                break
        p = s_old
        for i in range(d, r):
            t = recs[i][3]
            if t is not None and t.channel == DEFAULT_CHANNEL:
                p = t.index
                break
        middle_vis = sum(1 for rec in middle
                         if rec[3] is not None
                         and rec[3].channel == DEFAULT_CHANNEL)
        delta_tokens = p + middle_vis - s_old
        # Identical visible token sequence (e.g. a whitespace/comment
        # edit): every pure subtree — including the root — is reusable
        # in place.
        unchanged = (p == s_old and middle_vis == 0)

        # 4. Harvest the old tree into seeds for the parser's memo
        # (shifting suffix subtree spans into new coordinates as a side
        # effect).
        seeds: _Seeds = {}
        if self.tree is not None:
            self._harvest(self.tree, p, s_old, delta_tokens, unchanged, seeds)

        # 5. Commit the new lexical state: splice records, shift the
        # suffix tokens' character/line/column coordinates, rebuild the
        # stream (its constructor reassigns visible token indices).
        suffix = recs[r:]
        if suffix:
            suffix = self._shift_suffix(suffix, delta, old_text, new_text,
                                        start, end, replacement)
        self.text = new_text
        self._recs = recs[:d] + middle + suffix
        self._index_records()
        self._stream = self._build_stream()

        # 6. Reparse with the seeds in the parser's (rule, start) memo.
        parser = self._reparse(seeds)

        stats = EditStats(
            relexed_chars=relex_end - relex_from,
            damaged_tokens=middle_vis,
            shifted_tokens=old_vis_total - s_old,
            reused_nodes=parser.reused_nodes,
            reused_tokens=parser.reused_tokens,
            total_tokens=self._stream.size,
            token_delta=delta_tokens,
        )
        self.stats = stats
        if self.telemetry is not None:
            self.telemetry.record_incremental_edit(
                stats.relexed_chars, stats.reused_nodes, stats.reused_tokens)
        return self.tree

    # -- lexing ------------------------------------------------------------

    def _lex_from(self, text: str, at: int,
                  out: List[_LexRecord]) -> List[_LexRecord]:
        """Scan ``text`` from char offset ``at`` to EOF, appending one
        record per lexeme (skipped rules included) plus the EOF record."""
        tok = self.host.lexer_spec.tokenizer(text)
        cs = tok.stream
        cs.seek(at)
        while True:
            rec_start = cs.index
            token = tok.next_token()
            rec_end = cs.index if cs.index > rec_start else rec_start
            out.append((rec_start, rec_end, tok.last_scan_end, token))
            if token is not None and token.type == EOF:
                return out

    def _relex_damage(self, new_text: str, relex_from: int, edit_end: int,
                      delta: int) -> Tuple[List[_LexRecord], int, int]:
        """Lex new_text from ``relex_from`` until resync or EOF.

        Returns ``(middle records, old resync record index, relex end
        char)``; ``r == len(records)`` means no old suffix survives.
        """
        recs = self._recs
        starts = self._starts
        n_recs = len(recs)
        tok = self.host.lexer_spec.tokenizer(new_text)
        cs = tok.stream
        cs.seek(relex_from)
        middle: List[_LexRecord] = []
        while True:
            pos = cs.index
            old_pos = pos - delta
            if old_pos >= edit_end:
                i = bisect_left(starts, old_pos)
                if i < n_recs and starts[i] == old_pos:
                    # Old lexeme i examined only characters >= old_pos,
                    # and the texts agree from edit_end + delta onward:
                    # every record from i on is valid, just shifted.
                    return middle, i, pos
            rec_start = pos
            token = tok.next_token()
            rec_end = cs.index if cs.index > rec_start else rec_start
            middle.append((rec_start, rec_end, tok.last_scan_end, token))
            if token is not None and token.type == EOF:
                return middle, n_recs, rec_end

    @staticmethod
    def _shift_suffix(suffix: List[_LexRecord], delta: int, old_text: str,
                      new_text: str, start: int, end: int,
                      replacement: str) -> List[_LexRecord]:
        """Shift the kept suffix into new-text coordinates.

        Every suffix lexeme begins at a char offset >= ``end``, so its
        char offsets move by ``delta``, its line by the edit's net
        newline count, and — for lexemes still on the same line as the
        edit end — its column by how far that line's start moved.
        """
        delta_lines = (replacement.count("\n")
                       - old_text.count("\n", start, end))
        new_end = end + delta
        col_delta = ((new_end - new_text.rfind("\n", 0, new_end) - 1)
                     - (end - old_text.rfind("\n", 0, end) - 1))
        if not delta and not delta_lines and not col_delta:
            return suffix  # equal-length, newline-preserving replacement
        old_end_line = old_text.count("\n", 0, end) + 1
        out: List[_LexRecord] = []
        for (s, e, ss, t) in suffix:
            if t is not None:
                t.shift(delta_chars=delta, delta_lines=delta_lines,
                        delta_columns=col_delta
                        if t.line == old_end_line else 0)
            out.append((s + delta, e + delta, ss + delta, t))
        return out

    def _index_records(self) -> None:
        """Derive the bisect indexes: record starts and the prefix
        maximum of scan stops (monotone, hence searchable)."""
        starts = []
        pmax = []
        hwm = 0
        for (s, _e, ss, _t) in self._recs:
            starts.append(s)
            if ss > hwm:
                hwm = ss
            pmax.append(hwm)
        self._starts = starts
        self._pmax = pmax

    def _build_stream(self) -> ListTokenStream:
        return ListTokenStream(
            [rec[3] for rec in self._recs if rec[3] is not None],
            source=self.text)

    # -- reuse harvesting --------------------------------------------------

    @staticmethod
    def _harvest(tree: RuleNode, p: int, s_old: int, delta_tokens: int,
                 unchanged: bool, seeds: _Seeds) -> None:
        """Walk the old tree top-down collecting reusable subtrees.

        Outermost wins: a harvested subtree is not descended into, so
        this touches only the spine around the damaged region.  Suffix
        subtrees are span-shifted into new token coordinates here, and
        every spine node walked through loses its children (the old
        tree is dead after this walk — mutating it is fine, and cutting
        the spine loose lets it be freed without a cyclic collection).
        """
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.look_stop >= 0 and node.stop >= node.start:
                if unchanged or node.look_stop < p:
                    # Identical tokens, or an untouched prefix (a node's
                    # reach is at least its last token): spans unchanged.
                    seeds.setdefault((node.rule_name, node.start), node)
                    continue
                # The root is invoked exactly once, at index 0 — shifted
                # to any other key it could never be probed, and adding
                # it would block its (probe-able) children.
                if node.start >= s_old and node is not tree:
                    if delta_tokens:
                        _shift_subtree(node, delta_tokens)
                    seeds.setdefault((node.rule_name, node.start), node)
                    continue
            # Impure, empty, or straddling the damage: try the children.
            for child in node.children:
                if type(child) is RuleNode:
                    stack.append(child)
            node.children.clear()

    # -- parsing -----------------------------------------------------------

    def _reparse(self, seeds: _Seeds) -> LLStarParser:
        options = ParserOptions(recover=self.recover,
                                telemetry=self.telemetry, reuse=seeds)
        parser = LLStarParser(self.host.analysis, self._stream, options)
        self.tree = None
        tree = parser.parse(self.rule_name)
        self.tree = tree
        self.errors = parser.errors
        return parser

    def __repr__(self):
        return "EditSession(%d chars, %d tokens%s)" % (
            len(self.text), self._stream.size,
            ", no tree" if self.tree is None else "")


def _shift_subtree(node: RuleNode, delta_tokens: int) -> None:
    """Shift every span in ``node``'s subtree by ``delta_tokens``."""
    stack = [node]
    while stack:
        n = stack.pop()
        n.shift(delta_tokens)
        if type(n) is RuleNode:
            stack.extend(n.children)
