"""FIRST and FOLLOW sets over the grammar model, plus per-ATN-state
continuation sets.

Classic fixpoint computation, done structurally on the EBNF AST (no
desugaring needed).  Three consumers:

* panic-mode error recovery: after an error in rule A, resynchronise by
  consuming tokens until one in FOLLOW(A) appears (the deterministic-LL
  error-handling advantage the paper claims over speculating parsers);
* inline recovery (:class:`~repro.runtime.errors.DefaultErrorStrategy`)
  and ANTLR-style sync-and-return, which need the set of tokens viable
  *at a specific ATN state* — :class:`AtnContinuationSets` computes
  those on demand from the same tables;
* diagnostics/tooling: the CLI can show FIRST sets per rule.

``FIRST`` maps rule -> set of token types (plus ``EPSILON_TYPE`` when
the rule is nullable); ``FOLLOW`` maps rule -> set of token types (plus
``EOF`` where the rule can end the input).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from repro.grammar import ast
from repro.grammar.model import Grammar
from repro.runtime.token import EOF, EPSILON_TYPE


class GrammarSets:
    """FIRST/FOLLOW tables for one grammar."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.first: Dict[str, Set[int]] = {}
        self.follow: Dict[str, Set[int]] = {}
        self._compute_first()
        self._compute_follow()

    # -- FIRST -----------------------------------------------------------------

    def _compute_first(self) -> None:
        for rule in self.grammar.parser_rules:
            self.first[rule.name] = set()
        changed = True
        while changed:
            changed = False
            for rule in self.grammar.parser_rules:
                acc = set()
                for alt in rule.alternatives:
                    acc |= self._first_of_seq(alt.elements)
                if not acc <= self.first[rule.name]:
                    self.first[rule.name] |= acc
                    changed = True

    def first_of(self, element: ast.Element) -> Set[int]:
        """FIRST set of a single AST element (may include EPSILON_TYPE)."""
        g = self.grammar
        if isinstance(element, (ast.Epsilon, ast.Action, ast.SemanticPredicate,
                                ast.SyntacticPredicate)):
            return {EPSILON_TYPE}
        if isinstance(element, (ast.TokenRef, ast.Literal)):
            return {g.token_type(element)}
        if isinstance(element, ast.NotToken):
            excluded = set()
            for name in element.token_names:
                if name.startswith("'"):
                    excluded.add(g.vocabulary.type_of_literal(name[1:-1]))
                else:
                    excluded.add(g.vocabulary.type_of(name))
            return {t for t in range(1, g.vocabulary.max_type + 1)} - excluded
        if isinstance(element, ast.Wildcard):
            return set(range(1, g.vocabulary.max_type + 1))
        if isinstance(element, ast.RuleRef):
            return set(self.first.get(element.name, set()))
        if isinstance(element, ast.Sequence):
            return self._first_of_seq(element.elements)
        if isinstance(element, ast.Block):
            out: Set[int] = set()
            for alt in element.alternatives:
                out |= self.first_of(alt)
            return out
        if isinstance(element, (ast.Optional_, ast.Star)):
            return self.first_of(element.element) | {EPSILON_TYPE}
        if isinstance(element, ast.Plus):
            return self.first_of(element.element)
        raise TypeError("no FIRST for %r" % element)

    def _first_of_seq(self, elements) -> Set[int]:
        out: Set[int] = set()
        for el in elements:
            f = self.first_of(el)
            out |= f - {EPSILON_TYPE}
            if EPSILON_TYPE not in f:
                return out
        out.add(EPSILON_TYPE)
        return out

    def nullable(self, rule_name: str) -> bool:
        return EPSILON_TYPE in self.first.get(rule_name, set())

    # -- FOLLOW ----------------------------------------------------------------

    def _compute_follow(self) -> None:
        for rule in self.grammar.parser_rules:
            self.follow[rule.name] = set()
        self.follow[self.grammar.start_rule].add(EOF)
        changed = True
        while changed:
            changed = False
            for rule in self.grammar.parser_rules:
                for alt in rule.alternatives:
                    if self._follow_walk(alt.elements, self.follow[rule.name]):
                        changed = True

    def _follow_walk(self, elements, rule_follow: Set[int]) -> bool:
        """Propagate FOLLOW through one element sequence.

        For each rule reference r at position i, FOLLOW(r) gains
        FIRST(rest-of-sequence); if the rest is nullable, it also gains
        the containing rule's FOLLOW.  Loop bodies additionally feed
        their own FIRST back into trailing references (x in ``x*`` can
        be followed by another x).
        """
        changed = False
        for i, el in enumerate(elements):
            rest = elements[i + 1:]
            rest_first = self._first_of_seq(rest)
            after = rest_first - {EPSILON_TYPE}
            full_after = set(after)
            if EPSILON_TYPE in rest_first:
                full_after |= rule_follow
            changed |= self._feed_follow(el, full_after)
        return changed

    def _feed_follow(self, el: ast.Element, after: Set[int]) -> bool:
        changed = False
        if isinstance(el, ast.RuleRef):
            if el.name in self.follow and not after <= self.follow[el.name]:
                self.follow[el.name] |= after
                changed = True
        elif isinstance(el, ast.Sequence):
            changed |= self._follow_walk(el.elements, after)
        elif isinstance(el, ast.Block):
            for alt in el.alternatives:
                changed |= self._feed_follow(alt, after)
        elif isinstance(el, ast.Optional_):
            changed |= self._feed_follow(el.element, after)
        elif isinstance(el, (ast.Star, ast.Plus)):
            body_first = self.first_of(el.element) - {EPSILON_TYPE}
            changed |= self._feed_follow(el.element, after | body_first)
        return changed

    # -- convenience --------------------------------------------------------------

    def describe(self, rule_name: str) -> str:
        v = self.grammar.vocabulary
        firsts = sorted(v.name_of(t) for t in self.first.get(rule_name, ())
                        if t != EPSILON_TYPE)
        follows = sorted(v.name_of(t) for t in self.follow.get(rule_name, ()))
        return "FIRST(%s) = {%s}%s\nFOLLOW(%s) = {%s}" % (
            rule_name, ", ".join(firsts),
            " (nullable)" if self.nullable(rule_name) else "",
            rule_name, ", ".join(follows))


class AtnContinuationSets:
    """Token sets viable *from a specific ATN state*, for error recovery.

    Rule-level FOLLOW is too coarse for ANTLR-style recovery: after a
    mismatch the parser wants to know what can come next *here* — at
    this exact point inside this rule's submachine — not merely what may
    ever follow the rule.  ``continuation(state, rule)`` answers that:
    the FIRST set of every token sequence matchable from ``state`` to
    the rule's stop state, plus whether the stop state is reachable
    without consuming anything (in which case the caller's own
    continuation applies on top).

    Results are memoized per ATN state id; the whole structure is built
    lazily by the parser on the first error, so clean parses never pay
    for it.
    """

    def __init__(self, atn, sets: GrammarSets):
        self.atn = atn
        self.sets = sets
        self._cache: Dict[int, Tuple[FrozenSet[int], bool]] = {}

    def continuation(self, state, rule_name: str) -> Tuple[FrozenSet[int], bool]:
        """``(tokens, reaches_end)`` matchable from ``state`` within
        ``rule_name``'s submachine."""
        cached = self._cache.get(state.id)
        if cached is not None:
            return cached
        from repro.atn.transitions import (
            AtomTransition, RuleTransition, SetTransition,
        )

        stop = self.atn.rule_stop[rule_name]
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
                    first = self.sets.first.get(t.rule_name, set())
                    tokens.update(first - {EPSILON_TYPE})
                    if EPSILON_TYPE in first:
                        work.append(t.follow_state)
                else:  # epsilon, predicate, action: free moves
                    work.append(t.target)
        result = (frozenset(tokens), reaches_end)
        self._cache[state.id] = result
        return result

