"""Fixed-k lookahead baselines: exact LL(k) and linear approximate.

Two purposes from the paper:

* **Section 2**: fixed-k tools blow up on decisions like
  ``a : b A+ X | c A+ Y`` — LPG reports conflicts even at k = 10,000 and
  exact k-tuple sets grow without ever becoming disjoint, while the
  LL(*) cyclic DFA has a handful of states.  :class:`FixedKAnalyzer`
  with ``exact=True`` measures tuple-set sizes and disjointness per k.

* **Section 7 / v2-vs-v3**: ANTLR v2 used *linear approximate*
  lookahead — per-depth token sets ``sigma_1 .. sigma_k`` (space
  O(|T| x k)) instead of exact tuple sets (space O(|T|^k)).  The
  approximation is lossy: decisions that are exactly LL(k) may alias
  under the cross-product and force backtracking; the v2-vs-v3
  ablation bench counts how many decisions each strategy solves.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.config import ATNConfig, EMPTY_STACK
from repro.atn.states import ATN, RuleStopState
from repro.atn.transitions import (
    ActionTransition,
    AtomTransition,
    EpsilonTransition,
    PredicateTransition,
    RuleTransition,
    SetTransition,
)
from repro.runtime.token import EOF

Tuples = FrozenSet[Tuple[int, ...]]


class FixedKResult:
    """Lookahead sets for one decision at one k.

    ``truncated`` means tuple enumeration hit the configured budget:
    the sets are incomplete, so determinism cannot be certified — which
    is itself the paper's point about O(|T|^k) lookahead storage.
    """

    def __init__(self, decision: int, k: int, exact: bool,
                 per_alt_tuples: Dict[int, Tuples], truncated: bool = False):
        self.decision = decision
        self.k = k
        self.exact = exact
        self.per_alt_tuples = per_alt_tuples
        self.truncated = truncated

    # -- decidability -------------------------------------------------------------

    def is_deterministic(self) -> bool:
        """True iff no lookahead word predicts two alternatives.

        For exact sets: pairwise disjointness *including prefix clashes*
        (a tuple that is a prefix of another alternative's tuple aliases
        with it — the shorter one stopped early at EOF padding, so plain
        set disjointness suffices because tuples are padded to k).
        For approximate sets: disjointness of cross-products, i.e. some
        depth d <= k must have disjoint sigma_d for every pair.
        Truncated enumerations are conservatively nondeterministic.
        """
        if self.truncated:
            return False
        alts = sorted(self.per_alt_tuples)
        for i, a in enumerate(alts):
            for b in alts[i + 1:]:
                if self.exact:
                    if self.per_alt_tuples[a] & self.per_alt_tuples[b]:
                        return False
                else:
                    if not self._approx_disjoint(a, b):
                        return False
        return True

    def _approx_disjoint(self, a: int, b: int) -> bool:
        sa = _depth_sets(self.per_alt_tuples[a], self.k)
        sb = _depth_sets(self.per_alt_tuples[b], self.k)
        return any(not (sa[d] & sb[d]) for d in range(self.k))

    def total_tuples(self) -> int:
        return sum(len(t) for t in self.per_alt_tuples.values())

    def storage_cost(self) -> int:
        """Abstract space cost: tuple entries for exact, |T| x k-ish
        (distinct per-depth tokens) for approximate."""
        if self.exact:
            return sum(len(t) * self.k for t in self.per_alt_tuples.values())
        return sum(sum(len(s) for s in _depth_sets(t, self.k))
                   for t in self.per_alt_tuples.values())

    def __repr__(self):
        return "FixedKResult(d%d, k=%d, %s, %d tuples, %s)" % (
            self.decision, self.k, "exact" if self.exact else "approx",
            self.total_tuples(),
            "LL(%d)" % self.k if self.is_deterministic() else "nondeterministic")


def _depth_sets(tuples: Tuples, k: int) -> List[Set[int]]:
    sets: List[Set[int]] = [set() for _ in range(k)]
    for t in tuples:
        for d, tok in enumerate(t):
            sets[d].add(tok)
    return sets


class FixedKAnalyzer:
    """Computes FIRST_k tuple sets per alternative from the ATN.

    The walk mirrors LL(*) closure (rule calls push, stop states pop or
    chase call sites) but collects explicit k-deep token tuples rather
    than building a DFA; recursion is bounded by ``max_stack_repeats``
    occurrences of any single return state, which is always sufficient
    to enumerate FIRST_k exactly when the grammar has no hidden
    left recursion.
    """

    def __init__(self, atn: ATN, start_rule: Optional[str] = None,
                 max_stack_repeats: Optional[int] = None,
                 max_tuples: int = 200000):
        self.atn = atn
        self.start_rule = start_rule
        self.max_stack_repeats = max_stack_repeats
        self.max_tuples = max_tuples
        self._truncated = False

    def lookahead(self, decision: int, k: int, exact: bool = True) -> FixedKResult:
        info = self.atn.decisions[decision]
        repeats = self.max_stack_repeats if self.max_stack_repeats is not None else k + 1
        per_alt: Dict[int, Tuples] = {}
        self._truncated = False
        for alt, transition in enumerate(info.state.transitions, start=1):
            tuples: Set[Tuple[int, ...]] = set()
            seed = ATNConfig(transition.target, alt, EMPTY_STACK)
            self._explore(seed, (), k, repeats, tuples, set())
            per_alt[alt] = frozenset(tuples)
        return FixedKResult(decision, k, exact, per_alt,
                            truncated=self._truncated)

    def ll_k_for(self, decision: int, max_k: int = 8, exact: bool = True) -> Optional[int]:
        """Smallest k <= max_k making the decision deterministic, else None."""
        for k in range(1, max_k + 1):
            if self.lookahead(decision, k, exact).is_deterministic():
                return k
        return None

    # -- tuple enumeration ----------------------------------------------------------

    def _explore(self, config: ATNConfig, prefix: Tuple[int, ...], k: int,
                 repeats: int, out: Set[Tuple[int, ...]], busy: Set) -> None:
        if len(out) > self.max_tuples:
            self._truncated = True
            return
        if len(prefix) == k:
            out.add(prefix)
            return
        key = (config.key, prefix)
        if key in busy:
            return
        busy.add(key)

        state = config.state
        if isinstance(state, RuleStopState):
            if config.stack:
                self._explore(config.pop(), prefix, k, repeats, out, busy)
            else:
                sites = self.atn.call_sites.get(state.rule_name, [])
                for t in sites:
                    self._explore(config.with_empty_stack_at(t.follow_state),
                                  prefix, k, repeats, out, busy)
                if not sites or state.rule_name == self.start_rule:
                    # Pad with EOF out to depth k.
                    out.add(prefix + (EOF,) * (k - len(prefix)))
            return
        for t in state.transitions:
            if isinstance(t, AtomTransition):
                self._explore(config.with_state(t.target), prefix + (t.token_type,),
                              k, repeats, out, busy)
            elif isinstance(t, SetTransition):
                for tok in t.token_set:
                    self._explore(config.with_state(t.target), prefix + (tok,),
                                  k, repeats, out, busy)
            elif isinstance(t, RuleTransition):
                depth = sum(1 for s in config.stack if s is t.follow_state)
                if depth >= repeats:
                    continue
                self._explore(config.push(t.target, t.follow_state), prefix,
                              k, repeats, out, busy)
            elif isinstance(t, (EpsilonTransition, ActionTransition,
                                PredicateTransition)):
                self._explore(config.with_state(t.target), prefix, k, repeats,
                              out, busy)


# -- strict LL(k) parsing ----------------------------------------------------------


def llk_viability(analysis, max_k: int = 8) -> Optional[str]:
    """None when the grammar qualifies for pure LL(k) parsing, else the
    first disqualifying reason (cyclic/backtracking decisions, k above
    ``max_k``, predicates, parameterised rules)."""
    from repro.analysis.decisions import FIXED
    from repro.grammar import ast

    grammar = analysis.grammar
    for rule in grammar.parser_rules:
        if rule.params:
            return "rule %s is parameterised" % rule.name
        for el in rule.walk_elements():
            if isinstance(el, (ast.SemanticPredicate, ast.SyntacticPredicate)):
                return "rule %s uses predicates" % rule.name
    for decision, record in enumerate(analysis.records):
        if record.category != FIXED:
            return "decision %d (%s) is %s" % (
                decision, record.rule_name, record.category)
        if record.fixed_k is None or record.fixed_k > max_k:
            return "decision %d (%s) needs k=%s > max_k=%d" % (
                decision, record.rule_name, record.fixed_k, max_k)
    return None


class LLkParser:
    """Strict LL(k) *parser*: k-tuple dispatch, no DFA, no backtracking.

    The classical baseline the paper positions LL(*) against: every
    decision is resolved by one probe of an exact FIRST_k tuple table
    (:class:`FixedKAnalyzer` output), so the grammar must be LL(k) for
    some fixed k per decision — :func:`llk_viability` reports why a
    grammar is not, and the constructor raises
    :class:`~repro.exceptions.GrammarError` for disqualified grammars.

    Produces the same :class:`~repro.runtime.trees.RuleNode` /
    :class:`~repro.runtime.trees.TokenNode` trees as the interpreter and
    generated parsers (same rule-invocation shape, same loop semantics as
    :mod:`repro.codegen.python_target`), so differential comparison can
    use ``to_sexpr()`` digests directly.
    """

    def __init__(self, analysis, max_k: int = 8):
        from repro.exceptions import GrammarError

        reason = llk_viability(analysis, max_k)
        if reason is not None:
            raise GrammarError("grammar %s is not LL(k<=%d): %s"
                               % (analysis.grammar.name, max_k, reason))
        self.analysis = analysis
        self.grammar = analysis.grammar
        self.atn = analysis.atn
        self.max_k = max_k
        analyzer = FixedKAnalyzer(self.atn, start_rule=self.grammar.start_rule)
        self._tables: Dict[int, Tuple[int, Dict[Tuple[int, ...], int]]] = {}
        for decision, record in enumerate(analysis.records):
            k = record.fixed_k
            result = analyzer.lookahead(decision, k)
            if result.truncated:
                raise GrammarError(
                    "decision %d: FIRST_%d enumeration truncated" % (decision, k))
            table: Dict[Tuple[int, ...], int] = {}
            for alt in sorted(result.per_alt_tuples):
                for word in result.per_alt_tuples[alt]:
                    other = table.setdefault(word, alt)
                    if other != alt:
                        raise GrammarError(
                            "decision %d not LL(%d): %r predicts alts %d and %d"
                            % (decision, k, word, other, alt))
            self._tables[decision] = (k, table)
        self._stream = None
        self._builder = None

    # -- entry ---------------------------------------------------------------

    def parse(self, stream, rule_name: Optional[str] = None,
              require_eof: bool = True):
        """Parse a token stream (or token list) into a parse tree."""
        from repro.exceptions import MismatchedTokenError
        from repro.runtime.token_stream import ListTokenStream, TokenStream

        from repro.runtime.trees import TreeBuilder

        if not isinstance(stream, TokenStream):
            stream = ListTokenStream(stream)
        self._stream = stream
        self._builder = TreeBuilder(source=stream.source)
        rule_name = rule_name or self.grammar.start_rule
        try:
            root = self._rule(rule_name)
            if require_eof and stream.la(1) != EOF:
                raise MismatchedTokenError("EOF", stream.lt(1), stream.index,
                                           rule_name=rule_name)
        finally:
            self._stream = None
            self._builder = None
        return root

    def recognize(self, stream, rule_name: Optional[str] = None,
                  require_eof: bool = True) -> bool:
        from repro.exceptions import RecognitionError

        try:
            self.parse(stream, rule_name, require_eof=require_eof)
            return True
        except RecognitionError:
            return False

    # -- descent -------------------------------------------------------------

    def _rule(self, name: str):
        rule = self.grammar.rule(name)
        node = self._builder.open_rule(name, self._stream.index)
        try:
            if rule.num_alternatives == 1:
                alt = 1
            else:
                alt = self._predict(self.atn.decision_for_rule[name], name)
                node.alt = alt
            for el in rule.alternatives[alt - 1].elements:
                self._element(el, node, name)
        except BaseException:
            self._builder.abandon_rule()
            raise
        return self._builder.close_rule(self._stream.index)

    def _predict(self, decision: int, rule_name: str) -> int:
        from repro.exceptions import NoViableAltError

        k, table = self._tables[decision]
        word = tuple(self._stream.la(i) for i in range(1, k + 1))
        alt = table.get(word)
        if alt is None:
            raise NoViableAltError(decision, self._stream.lt(1),
                                   self._stream.index, rule_name=rule_name)
        return alt

    def _element(self, el, node, rule_name: str) -> None:
        from repro.exceptions import GrammarError
        from repro.grammar import ast

        if isinstance(el, (ast.TokenRef, ast.Literal)):
            self._match(self.grammar.token_type(el), node, rule_name)
        elif isinstance(el, ast.RuleRef):
            self._rule(el.name)  # attaches to ``node`` via the builder
        elif isinstance(el, ast.Sequence):
            for sub in el.elements:
                self._element(sub, node, rule_name)
        elif isinstance(el, ast.Block):
            if len(el.alternatives) == 1:
                self._element(el.alternatives[0], node, rule_name)
            else:
                alt = self._predict(self.atn.decision_for_element[id(el)],
                                    rule_name)
                self._element(el.alternatives[alt - 1], node, rule_name)
        elif isinstance(el, ast.Optional_):
            if self._predict(self.atn.decision_for_element[id(el)],
                             rule_name) == 1:
                self._element(el.element, node, rule_name)
        elif isinstance(el, ast.Star):
            decision = self.atn.decision_for_element[id(el)]
            while self._predict(decision, rule_name) == 1:
                self._element(el.element, node, rule_name)
        elif isinstance(el, ast.Plus):
            decision = self.atn.decision_for_element[id(el)]
            while True:
                self._element(el.element, node, rule_name)
                if self._predict(decision, rule_name) != 1:
                    break
        elif isinstance(el, ast.NotToken):
            excluded = set()
            for name in el.token_names:
                if name.startswith("'"):
                    excluded.add(self.grammar.vocabulary.type_of_literal(
                        name[1:-1]))
                else:
                    excluded.add(self.grammar.vocabulary.type_of(name))
            allowed = set(range(1, self.grammar.vocabulary.max_type + 1)) \
                - excluded
            self._match_any(allowed, node, rule_name)
        elif isinstance(el, ast.Wildcard):
            self._match_any(set(range(1, self.grammar.vocabulary.max_type + 1)),
                            node, rule_name)
        elif isinstance(el, (ast.Epsilon, ast.Action)):
            pass
        else:
            raise GrammarError("LLkParser cannot execute %r" % el)

    def _match(self, token_type: int, node, rule_name: str) -> None:
        from repro.exceptions import MismatchedTokenError

        if self._stream.la(1) != token_type:
            raise MismatchedTokenError(
                self.grammar.vocabulary.name_of(token_type),
                self._stream.lt(1), self._stream.index, rule_name=rule_name)
        self._builder.add_token(self._stream.consume())

    def _match_any(self, allowed, node, rule_name: str) -> None:
        from repro.exceptions import MismatchedTokenError

        if self._stream.la(1) not in allowed:
            raise MismatchedTokenError(
                "one of %d token types" % len(allowed),
                self._stream.lt(1), self._stream.index, rule_name=rule_name)
        self._builder.add_token(self._stream.consume())
