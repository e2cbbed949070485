"""Figure 2: mixed fixed-lookahead + backtracking DFA for rule ``t``.

Paper: with ``backtrack=true`` and recursion bound m = 1,
``t : '-'* ID | expr ;  expr : INT | '-' expr`` yields a DFA that decides
immediately on ``x`` or ``1``, matches a couple of ``-`` deterministically,
and only then fails over to a synpred (backtracking) edge — "the decision
will not backtrack in practice unless the input starts with ``--``".
"""


from repro.analysis import AnalysisOptions, BACKTRACK, analyze
from repro.api import compile_grammar
from repro.grammar.meta_parser import parse_grammar
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry

from conftest import emit_table

FIG2 = r"""
grammar Fig2;
options { backtrack=true; }
t : '-'* ID | expr ;
expr : INT | '-' expr ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ ]+ -> skip ;
"""


def _edges(state, grammar):
    return {grammar.vocabulary.name_of(t): target
            for t, target in state.edges.items()}


def test_figure2_dfa(benchmark):
    options = AnalysisOptions(max_recursion_depth=1)
    result = benchmark(lambda: analyze(parse_grammar(FIG2), options))
    grammar = result.grammar
    record = result.records[0]
    dfa = record.dfa
    assert record.category == BACKTRACK

    d0 = dfa.start
    assert _edges(d0, grammar)["ID"].predicted_alt == 1  # x -> alt 1, k=1
    assert _edges(d0, grammar)["INT"].predicted_alt == 2  # 1 -> alt 2, k=1
    d1 = _edges(d0, grammar)["'-'"]
    assert not d1.predicate_edges  # one '-' still deterministic
    d2 = _edges(d1, grammar)["'-'"]
    assert d2.predicate_edges  # '--' fails over to backtracking
    assert d2.predicate_edges[0][0].contains_synpred

    # Runtime confirmation: '-x' never backtracks, '--x' does.
    host = compile_grammar(FIG2, options=options)
    def backtracks(text):
        telemetry = ParseTelemetry(capture_events=False)
        host.parse(text, options=ParserOptions(telemetry=telemetry))
        return telemetry.report().backtrack_event_percent > 0

    assert not backtracks("x")
    assert not backtracks("-x")
    assert not backtracks("- 5")
    assert backtracks("--x")
    assert backtracks("---5")

    rows = [
        ("k=1 on ID -> alt", 1),
        ("k=1 on INT -> alt", 2),
        ("deterministic '-' prefix tokens", 2),
        ("synpred edge after '--'", "yes"),
        ("backtracks on '-x'", "no"),
        ("backtracks on '--x'", "yes"),
    ]
    emit_table("fig2", "Figure 2: mixed k<=3 lookahead + backtracking for rule t",
               ("property", "value"), rows)
