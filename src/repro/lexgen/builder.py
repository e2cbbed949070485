"""Compile lexer rules of a grammar into a runnable tokenizer.

Thompson construction per element, one NFA branch per non-fragment
lexer rule, plus one branch per implicit literal token (keywords quoted
inside parser rules).  Priorities: implicit literals first (so ``'int'``
beats ``ID``), then lexer rules in definition order.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.exceptions import GrammarError
from repro.grammar import ast
from repro.grammar.model import Grammar, Rule
from repro.lexgen.dfa import LexerDFA, build_lexer_dfa
from repro.lexgen.lexer import LexerSpec
from repro.lexgen.nfa import MAX_CODEPOINT, NFA, NFAState
from repro.tables.lexer import compile_lexer_table
from repro.util.intervals import IntervalSet


def build_lexer(grammar: Grammar, minimize: bool = True) -> LexerSpec:
    """Build the lexer spec (flat table + vocabulary bindings) for a grammar.

    ``minimize`` runs Moore partition refinement on the subset-construction
    DFA; tokenization is unchanged, the tables just get smaller.  The
    object-graph DFA is compiled once into a
    :class:`~repro.tables.lexer.LexerTable` and dropped.
    """
    dfa = _LexerBuilder(grammar).build()
    if minimize:
        from repro.lexgen.minimize import minimize_lexer_dfa

        dfa = minimize_lexer_dfa(dfa)
    return LexerSpec(compile_lexer_table(dfa), grammar.vocabulary)


class _LexerBuilder:
    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.nfa = NFA()
        self._building: Set[str] = set()  # fragment-recursion guard

    def build(self) -> LexerDFA:
        """Thompson-construct the NFA, then subset-construct its DFA."""
        start = self.nfa.new_state()
        self.nfa.start = start
        priority = 0

        # Implicit literal tokens first: keywords beat identifier rules.
        for literal, token_type in sorted(self.grammar.vocabulary.literals().items()):
            frag_start, frag_end = self._literal(literal)
            frag_end.accept_rule = (priority, "'%s'" % literal, ())
            start.add_edge(None, frag_start)
            priority += 1

        lexer_rules = [r for r in self.grammar.lexer_rules if not r.is_fragment]
        if not lexer_rules and not self.grammar.vocabulary.literals():
            raise GrammarError(
                "grammar %s has no lexer rules; use a token-stream parser instead"
                % self.grammar.name)
        for rule in lexer_rules:
            frag_start, frag_end = self._rule_body(rule)
            frag_end.accept_rule = (priority, rule.name, tuple(rule.commands))
            start.add_edge(None, frag_start)
            priority += 1

        return build_lexer_dfa(self.nfa)

    # -- Thompson construction ------------------------------------------------

    def _rule_body(self, rule: Rule) -> Tuple[NFAState, NFAState]:
        if rule.name in self._building:
            raise GrammarError(
                "recursive lexer rule %s (lexer rules must be regular)" % rule.name)
        self._building.add(rule.name)
        try:
            alts = [self._sequence(alt.elements) for alt in rule.alternatives]
            return self._union(alts)
        finally:
            self._building.discard(rule.name)

    def _union(self, fragments) -> Tuple[NFAState, NFAState]:
        if len(fragments) == 1:
            return fragments[0]
        start = self.nfa.new_state()
        end = self.nfa.new_state()
        for frag_start, frag_end in fragments:
            start.add_edge(None, frag_start)
            frag_end.add_edge(None, end)
        return start, end

    def _sequence(self, elements) -> Tuple[NFAState, NFAState]:
        start = self.nfa.new_state()
        current = start
        for el in elements:
            frag_start, frag_end = self._element(el)
            current.add_edge(None, frag_start)
            current = frag_end
        return start, current

    def _element(self, el: ast.Element) -> Tuple[NFAState, NFAState]:
        if isinstance(el, ast.Epsilon):
            s = self.nfa.new_state()
            return s, s
        if isinstance(el, ast.Literal):
            return self._literal(el.text)
        if isinstance(el, ast.CharSet):
            ivals = el.intervals
            if el.negated:
                ivals = ivals.complement(0, MAX_CODEPOINT)
            return self._char_edge(ivals)
        if isinstance(el, ast.CharRange):
            return self._char_edge(IntervalSet.char_range(el.lo, el.hi))
        if isinstance(el, ast.Wildcard):
            return self._char_edge(IntervalSet([(0, MAX_CODEPOINT)]))
        if isinstance(el, ast.RuleRef):
            target = self.grammar.rule(el.name)
            if not target.is_lexer_rule:
                raise GrammarError("lexer rule references parser rule %s" % el.name)
            return self._rule_body(target)
        if isinstance(el, ast.TokenRef):
            # In lexer rules, uppercase refs mean other lexer (fragment) rules.
            target = self.grammar.rule(el.name)
            return self._rule_body(target)
        if isinstance(el, ast.Sequence):
            return self._sequence(el.elements)
        if isinstance(el, ast.Block):
            return self._union([self._element(a) for a in el.alternatives])
        if isinstance(el, ast.Optional_):
            frag_start, frag_end = self._element(el.element)
            start = self.nfa.new_state()
            end = self.nfa.new_state()
            start.add_edge(None, frag_start)
            frag_end.add_edge(None, end)
            start.add_edge(None, end)
            return start, end
        if isinstance(el, ast.Star):
            frag_start, frag_end = self._element(el.element)
            start = self.nfa.new_state()
            end = self.nfa.new_state()
            start.add_edge(None, frag_start)
            start.add_edge(None, end)
            frag_end.add_edge(None, frag_start)
            frag_end.add_edge(None, end)
            return start, end
        if isinstance(el, ast.Plus):
            frag_start, frag_end = self._element(el.element)
            end = self.nfa.new_state()
            frag_end.add_edge(None, frag_start)
            frag_end.add_edge(None, end)
            return frag_start, end
        if isinstance(el, (ast.SemanticPredicate, ast.Action, ast.SyntacticPredicate)):
            # Ignored in lexer rules (validation warns); epsilon behaviour.
            s = self.nfa.new_state()
            return s, s
        raise GrammarError("unsupported element %r in lexer rule" % el)

    def _literal(self, text: str) -> Tuple[NFAState, NFAState]:
        start = self.nfa.new_state()
        current = start
        for ch in text:
            nxt = self.nfa.new_state()
            current.add_edge(IntervalSet.of_chars(ch), nxt)
            current = nxt
        return start, current

    def _char_edge(self, ivals: IntervalSet) -> Tuple[NFAState, NFAState]:
        start = self.nfa.new_state()
        end = self.nfa.new_state()
        start.add_edge(ivals, end)
        return start, end
