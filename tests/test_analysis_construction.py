"""Lookahead-DFA construction: the paper's worked examples and edge cases.

These tests pin down the *shapes* the paper shows: Figure 1's
minimum-lookahead cyclic DFA, Figure 2's mixed lookahead/backtracking
DFA with recursion overflow at m=1, the Section 2 cyclic example that
defeats LALR(k), and the Section 5 bracketed-identifier LL(1) example.
"""

import gc

import pytest

from repro.analysis import (
    AnalysisOptions,
    BACKTRACK,
    CYCLIC,
    FIXED,
    analyze,
)
from repro.analysis.config import ATNConfig
from repro.analysis.diagnostics import AnalysisDiagnostic
from repro.grammar.meta_parser import parse_grammar
from tests.dfa_oracle import build_dfa


def analyzed(text, **opts):
    return analyze(parse_grammar(text), AnalysisOptions(**opts) if opts else None)


def edge_names(state, grammar):
    return {grammar.vocabulary.name_of(t): target
            for t, target in state.edges.items()}


FIG1 = r"""
s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
expr : INT ;
ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return analyzed(FIG1)

    def test_decision_is_cyclic(self, result):
        assert result.records[0].category == CYCLIC

    def test_min_lookahead_int_predicts_alt3_at_k1(self, result):
        g = result.grammar
        d0 = build_dfa(result, 0).start
        target = edge_names(d0, g)["'int'"]
        assert target.is_accept and target.predicted_alt == 3

    def test_id_needs_second_token(self, result):
        g = result.grammar
        d0 = build_dfa(result, 0).start
        d1 = edge_names(d0, g)["ID"]
        assert not d1.is_accept
        onward = edge_names(d1, g)
        assert onward["'='"].predicted_alt == 2
        assert onward["ID"].predicted_alt == 4
        assert onward["EOF"].predicted_alt == 1

    def test_unsigned_loop_state(self, result):
        g = result.grammar
        d0 = build_dfa(result, 0).start
        d2 = edge_names(d0, g)["'unsigned'"]
        loop = edge_names(d2, g)
        assert loop["'unsigned'"] is d2  # the cyclic scan
        assert loop["'int'"].predicted_alt == 3
        assert loop["ID"].predicted_alt == 4

    def test_no_backtracking_needed(self, result):
        assert not result.records[0].table.uses_backtracking()

    def test_all_alternatives_reachable(self, result):
        assert result.records[0].table.unreachable_alts() == set()


FIG2 = r"""
options { backtrack=true; }
t : '-'* ID | expr ;
expr : INT | '-' expr ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ ]+ -> skip ;
"""


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return analyzed(FIG2, max_recursion_depth=1)

    def test_decision_classified_backtrack(self, result):
        assert result.records[0].category == BACKTRACK

    def test_k1_paths_stay_deterministic(self, result):
        g = result.grammar
        d0 = build_dfa(result, 0).start
        assert edge_names(d0, g)["ID"].predicted_alt == 1
        assert edge_names(d0, g)["INT"].predicted_alt == 2

    def test_two_minus_then_fail_over(self, result):
        """With m=1, the DFA matches '-' twice before the synpred edge."""
        g = result.grammar
        d0 = build_dfa(result, 0).start
        d1 = edge_names(d0, g)["'-'"]
        assert not d1.predicate_edges  # still deterministic after one '-'
        d2 = edge_names(d1, g)["'-'"]
        assert d2.predicate_edges  # overflow: fail over to backtracking
        contexts = [ctx for ctx, _alt, _t in d2.predicate_edges]
        assert contexts[0] is not None and contexts[0].contains_synpred
        assert contexts[-1] is None  # ordered-choice default for last alt

    def test_overflow_recorded(self, result):
        assert result.records[0].table.had_overflow

    def test_larger_m_defers_backtracking(self):
        deeper = analyzed(FIG2, max_recursion_depth=3)
        g = deeper.grammar
        state = build_dfa(deeper, 0).start
        hops = 0
        while not state.predicate_edges:
            state = edge_names(state, g)["'-'"]
            hops += 1
            assert hops < 10
        assert hops > 2  # strictly more deterministic '-' matches than m=1


SEC2 = r"""
a : b AT+ X | c AT+ Y ;
b : ;
c : ;
AT : 'a' ;
X : 'x' ;
Y : 'y' ;
"""


class TestSection2Cyclic:
    def test_cyclic_dfa_stays_small(self):
        result = analyzed(SEC2)
        table = result.records[0].table
        assert result.records[0].category == CYCLIC
        assert table.n_states <= 5
        assert not table.uses_backtracking()

    def test_loop_resolves_on_x_or_y(self):
        result = analyzed(SEC2)
        g = result.grammar
        d0 = build_dfa(result, 0).start
        d1 = edge_names(d0, g)["AT"]
        assert edge_names(d1, g)["AT"] is d1
        assert edge_names(d1, g)["X"].predicted_alt == 1
        assert edge_names(d1, g)["Y"].predicted_alt == 2


class TestSection5Examples:
    def test_bracketed_identifier_is_ll1(self):
        # A -> '[' A ']' | id: continuation languages are context-free but
        # the first symbol already separates them (Section 5 example).
        result = analyzed("a : '[' a ']' | ID ; ID : [a-z]+ ;")
        rec = result.records[0]
        assert rec.category == FIXED
        assert rec.fixed_k == 1

    def test_figure6_grammar_aborts_to_ll1(self):
        # S -> A c | A d with A -> a A | b: recursion in both alternatives
        # (Section 5.4: terminate before overflow, fall back).
        result = analyzed(
            "s : a C | a D ; a : A a | B ; A:'a'; B:'b'; C:'c'; D:'d';")
        assert result.records[0].table.fell_back_to_ll1
        kinds = {d.kind for d in result.diagnostics}
        assert AnalysisDiagnostic.NON_LL_REGULAR in kinds


class TestAmbiguityResolution:
    def test_identical_alternatives_resolve_to_first(self):
        # Paper example: A -> (a | a) b has conflicting configurations
        # after 'a'; static resolution keeps production 1 and reports it.
        result = analyzed("s : (A | A) B ; A:'a'; B:'b';")
        accepts = set(result.records[0].table.accept_alt)
        assert 1 in accepts and 2 not in accepts
        assert any(d.kind == AnalysisDiagnostic.AMBIGUITY
                   for d in result.diagnostics)
        assert any(d.kind == AnalysisDiagnostic.DEAD_ALTERNATIVE
                   for d in result.diagnostics)

    def test_predicates_resolve_identical_alternatives(self):
        # A -> {p1}? a | {p2}? a: runtime predicate edges, no warning.
        result = analyzed("s : ({p1}? A | {p2}? A) B ; A:'a'; B:'b';")
        dfa = build_dfa(result, 0)
        pred_states = [s for s in dfa.states if s.predicate_edges]
        assert pred_states
        assert not any(d.kind == AnalysisDiagnostic.AMBIGUITY
                       for d in result.diagnostics)

    def test_dangling_else_greedy_with_warning(self):
        result = analyzed(
            "s : 'if' E 'then' s ('else' s)? | ID '=' E ';' ; "
            "E : [0-9]+ ; ID : [a-z]+ ;")
        assert any(d.kind == AnalysisDiagnostic.AMBIGUITY
                   for d in result.diagnostics)
        # the optional's exit alternative must remain reachable
        opt = next(r for r in result.records if r.kind == "optional")
        assert opt.table.unreachable_alts() == set()

    def test_prefix_language_needs_two_tokens(self):
        result = analyzed("s : A | A B ; A:'a'; B:'b';")
        rec = result.records[0]
        assert rec.category == FIXED
        assert rec.fixed_k == 2  # EOF vs 'b' at depth 2


class TestSafetyValves:
    def test_state_budget_triggers_fallback(self):
        # A decision needing a wide product construction with a tiny
        # budget must fall back instead of hanging.
        text = ("s : (A|B) (A|B) (A|B) (A|B) X | (A|B) (A|B) (A|B) (A|B) Y ; "
                "A:'a'; B:'b'; X:'x'; Y:'y';")
        result = analyze(parse_grammar(text), AnalysisOptions(max_dfa_states=3))
        assert result.records[0].table.fell_back_to_ll1
        assert any(d.kind == AnalysisDiagnostic.STATE_BUDGET
                   for d in result.diagnostics)

    def test_same_decision_succeeds_with_budget(self):
        text = ("s : (A|B) (A|B) (A|B) (A|B) X | (A|B) (A|B) (A|B) (A|B) Y ; "
                "A:'a'; B:'b'; X:'x'; Y:'y';")
        result = analyzed(text)
        rec = result.records[0]
        assert rec.category == FIXED
        assert rec.fixed_k == 5

    def test_invalid_recursion_depth_rejected(self):
        with pytest.raises(ValueError):
            AnalysisOptions(max_recursion_depth=0)


class TestDecisionAggregates:
    def test_histogram_and_percentages(self):
        result = analyzed("s : A | B ; t : A A X | A A Y ; "
                          "A:'a'; B:'b'; X:'x'; Y:'y';")
        hist = result.fixed_k_histogram()
        assert hist.get(1) == 1 and hist.get(3) == 1
        assert result.percent(FIXED) == 100.0
        assert result.percent_ll1() == 50.0

    def test_summary_contains_counts(self):
        result = analyzed("s : A | B ; A:'a'; B:'b';")
        text = result.summary()
        assert "fixed LL(k)" in text and "decisions" in text

    def test_elapsed_time_recorded(self):
        result = analyzed("s : A ; A:'a';")
        assert result.elapsed_seconds >= 0


def live_configs(atn):
    """ATN configurations over ``atn``'s states still alive after a full
    collection (configurations other tests hold stay out of the count)."""
    gc.collect()
    states = set(atn.states)
    return [o for o in gc.get_objects()
            if type(o) is ATNConfig and o.state in states]


class TestConstructionStateLifetime:
    """Configurations, busy sets, and the dedup table exist only while a
    decision is being analyzed; a compiled grammar keeps none of them."""

    def test_compiled_suite_grammar_keeps_no_configurations(self):
        from repro.api import compile_grammar
        from repro.grammars import load

        host = compile_grammar(load("rats_c").grammar_text)
        assert host.analysis.records  # the host (and its tables) is alive
        assert live_configs(host.analysis.atn) == []

    def test_ll1_fallback_keeps_no_configurations(self):
        text = ("s : (A|B) (A|B) (A|B) (A|B) X | (A|B) (A|B) (A|B) (A|B) Y ; "
                "A:'a'; B:'b'; X:'x'; Y:'y';")
        result = analyze(parse_grammar(text), AnalysisOptions(max_dfa_states=3))
        assert result.records[0].table.fell_back_to_ll1
        assert live_configs(result.atn) == []
