"""Ablation: the closure recursion bound m (Section 5.3).

m controls how far closure unwinds recursive rules before marking
overflow.  Small m: smaller DFAs, earlier fail-over to backtracking
(Figure 2 used m = 1 to show a compact DFA).  Larger m: deterministic
prediction covers deeper prefixes, so fewer inputs trigger speculation —
at the cost of DFA size.  We sweep m on the Figure 2 grammar and measure
DFA size and the runtime backtrack percentage on inputs of varying
'-'-prefix depth.
"""

from repro.analysis import AnalysisOptions
from repro.api import compile_grammar
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

INPUTS = ["x", "-x", "--x", "---x", "----5", "------5"]


def backtrack_percent(host, text):
    telemetry = ParseTelemetry()
    host.parse(text, options=ParserOptions(telemetry=telemetry))
    return telemetry.report().backtrack_event_percent


def test_recursion_bound_sweep(benchmark):
    rows = []
    dfa_sizes = {}
    backtracked_inputs = {}
    for m in (1, 2, 4, 8):
        host = compile_grammar(FIG2, options=AnalysisOptions(max_recursion_depth=m))
        dfa_sizes[m] = host.analysis.records[0].table.n_states
        hit = [s for s in INPUTS if backtrack_percent(host, s) > 0]
        backtracked_inputs[m] = len(hit)
        rows.append((m, dfa_sizes[m],
                     "%d/%d" % (len(hit), len(INPUTS)),
                     ", ".join(hit) or "none"))

    # Deeper m => bigger DFA but fewer backtracking inputs.
    assert dfa_sizes[8] > dfa_sizes[1]
    assert backtracked_inputs[8] <= backtracked_inputs[1]
    assert backtracked_inputs[1] >= 1

    emit_table("recursion_bound",
               "Ablation: recursion bound m vs DFA size and backtracking",
               ("m", "DFA states", "inputs that backtrack", "which"), rows)

    benchmark.pedantic(
        lambda: compile_grammar(FIG2, options=AnalysisOptions(max_recursion_depth=4)),
        rounds=3, iterations=1)
