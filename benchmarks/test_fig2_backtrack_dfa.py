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


def _edges(table, state, grammar):
    """Token name -> target state of one state's row in the table."""
    row = slice(table.edge_index[state], table.edge_index[state + 1])
    return {grammar.vocabulary.name_of(t): target
            for t, target in zip(table.edge_keys[row], table.edge_targets[row])}


def _gates(table, state):
    """Pool indices of one state's predicate edges, in evaluation order
    (-1 is the ordered-choice default)."""
    return table.pred_ctx[table.pred_index[state]:table.pred_index[state + 1]]


def test_figure2_dfa(benchmark):
    options = AnalysisOptions(max_recursion_depth=1)
    result = benchmark(lambda: analyze(parse_grammar(FIG2), options))
    grammar = result.grammar
    record = result.records[0]
    table = record.table
    alt = table.accept_alt
    assert record.category == BACKTRACK

    d0 = table.start
    assert alt[_edges(table, d0, grammar)["ID"]] == 1  # x -> alt 1, k=1
    assert alt[_edges(table, d0, grammar)["INT"]] == 2  # 1 -> alt 2, k=1
    d1 = _edges(table, d0, grammar)["'-'"]
    assert not _gates(table, d1)  # one '-' still deterministic
    d2 = _edges(table, d1, grammar)["'-'"]
    gates = _gates(table, d2)
    assert gates  # '--' fails over to backtracking
    assert gates[0] >= 0 and table.pool.synpred_flags[gates[0]]

    # Runtime confirmation: '-x' never backtracks, '--x' does.
    host = compile_grammar(FIG2, options=options)
    def backtracks(text):
        telemetry = ParseTelemetry()
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
