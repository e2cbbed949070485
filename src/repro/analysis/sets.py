"""FIRST, FOLLOW and per-state continuation sets, read off the ATN.

Error recovery asks one question: which token types can the parser use
from a given point of a rule?  Everything here answers it from the ATN
the parser runs (Section 5.1), so recovery reads nothing else:

* ``continuation(state, rule)`` — the tokens matchable from one ATN
  state before its rule returns, and whether it can return without
  consuming anything.  Single-token insertion
  (:meth:`~repro.runtime.parser.LLStarParser._viable_after`) and
  panic-mode resync (:meth:`~repro.runtime.parser.LLStarParser._recovery_set`)
  chain these over the live invocation stack: ANTLR's combined follow
  set, finer than rule-level FOLLOW because it reflects the actual
  call chain, not every call site in the grammar;
* ``first`` / ``follow`` per rule, which ``llstar sets`` prints.

``first`` maps rule -> token types (plus ``EPSILON_TYPE`` when the rule
is nullable): a least fixpoint over each rule's submachine, so left
recursion still terminates.  ``follow`` maps rule -> token types (plus
``EOF`` where the rule can end the input): a fixpoint over the ATN's call
sites, each adding the continuation after it, and the caller's FOLLOW
when that continuation can reach the caller's stop state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from repro.atn.states import ATN
from repro.atn.transitions import AtomTransition, RuleTransition, SetTransition
from repro.grammar.model import Grammar
from repro.runtime.token import EOF, EPSILON_TYPE


class GrammarSets:
    """FIRST/FOLLOW per rule and continuation sets per ATN state, for one
    grammar's ATN.

    One is built per analysis, on the first error recovery
    (:meth:`~repro.analysis.decisions.AnalysisResult.grammar_sets`), and
    shared by every parser of that analysis; clean parses never pay for
    it.  Continuations are memoized per ATN state.
    """

    def __init__(self, grammar: Grammar, atn: ATN):
        self.grammar = grammar
        self.atn = atn
        self.first: Dict[str, Set[int]] = {}
        self.follow: Dict[str, Set[int]] = {}
        self._cache: Dict[int, Tuple[FrozenSet[int], bool]] = {}
        self._compute_first()
        self._compute_follow()

    def _walk(self, state, stop) -> Tuple[Set[int], bool]:
        """``(tokens, reaches_end)`` from ``state`` to ``stop`` under the
        current ``first``: the tokens matchable first, and whether
        ``stop`` is reachable consuming nothing.  Rule calls contribute
        the callee's FIRST and are passed over when it is nullable;
        epsilon, predicate and action edges are free moves."""
        tokens: Set[int] = set()
        reaches_end = False
        seen: Set[int] = set()
        work = [state]
        while work:
            s = work.pop()
            if s is stop:
                reaches_end = True
                continue
            if s.id in seen:
                continue
            seen.add(s.id)
            for t in s.transitions:
                if isinstance(t, AtomTransition):
                    tokens.add(t.token_type)
                elif isinstance(t, SetTransition):
                    tokens.update(t.token_set)
                elif isinstance(t, RuleTransition):
                    first = self.first[t.rule_name]
                    tokens |= first
                    if EPSILON_TYPE in first:
                        work.append(t.follow_state)
                else:
                    work.append(t.target)
        tokens.discard(EPSILON_TYPE)
        return tokens, reaches_end

    def _compute_first(self) -> None:
        starts = self.atn.rule_start
        for name in starts:
            self.first[name] = set()
        changed = True
        while changed:
            changed = False
            for name, start in starts.items():
                tokens, nullable = self._walk(start, start.stop_state)
                if nullable:
                    tokens.add(EPSILON_TYPE)
                if not tokens <= self.first[name]:
                    self.first[name] |= tokens
                    changed = True

    def _compute_follow(self) -> None:
        for name in self.first:
            self.follow[name] = set()
        self.follow[self.grammar.start_rule].add(EOF)
        # Walked uncached: the per-state cache fills only with the
        # states a recovery actually asks about.
        sites = []
        for callee, calls in self.atn.call_sites.items():
            for t in calls:
                caller = t.follow_state.rule_name
                tokens, reaches_end = self._walk(t.follow_state,
                                                 self.atn.rule_stop[caller])
                sites.append((self.follow[callee], self.follow[caller],
                              tokens, reaches_end))
        changed = True
        while changed:
            changed = False
            for follow, caller_follow, tokens, reaches_end in sites:
                after = tokens | caller_follow if reaches_end else tokens
                if not after <= follow:
                    follow |= after
                    changed = True

    def continuation(self, state, rule_name: str) -> Tuple[FrozenSet[int], bool]:
        """``(tokens, reaches_end)`` matchable from ``state`` within
        ``rule_name``'s submachine; when ``reaches_end``, what follows
        the rule's caller applies on top."""
        cached = self._cache.get(state.id)
        if cached is None:
            tokens, reaches_end = self._walk(state, self.atn.rule_stop[rule_name])
            cached = self._cache[state.id] = (frozenset(tokens), reaches_end)
        return cached

    def nullable(self, rule_name: str) -> bool:
        return EPSILON_TYPE in self.first.get(rule_name, ())

    def describe(self, rule_name: str) -> str:
        v = self.grammar.vocabulary
        firsts = sorted(v.name_of(t) for t in self.first.get(rule_name, ())
                        if t != EPSILON_TYPE)
        follows = sorted(v.name_of(t) for t in self.follow.get(rule_name, ()))
        return "FIRST(%s) = {%s}%s\nFOLLOW(%s) = {%s}" % (
            rule_name, ", ".join(firsts),
            " (nullable)" if self.nullable(rule_name) else "",
            rule_name, ", ".join(follows))
