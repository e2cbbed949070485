"""Figure 1: the LL(*) lookahead DFA for rule ``s``.

Paper: ``s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID``
yields a DFA that (a) predicts alternative 3 on ``int`` with k = 1,
(b) separates alternatives 1/2/4 at k = 2 after ``ID``, and (c) scans
``unsigned*`` with a cyclic state before deciding between 3 and 4.  The
benchmark times the grammar analysis that constructs this DFA; the
assertions pin the DFA's exact shape.
"""

from repro.analysis import CYCLIC, analyze
from repro.atn.dot import dfa_to_dot
from repro.grammar.meta_parser import parse_grammar

from conftest import emit_table

FIG1 = r"""
grammar Fig1;
s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
expr : INT ;
ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""


def _edges(table, state, grammar):
    """Token name -> target state of one state's row in the table."""
    row = slice(table.edge_index[state], table.edge_index[state + 1])
    return {grammar.vocabulary.name_of(t): target
            for t, target in zip(table.edge_keys[row], table.edge_targets[row])}


def test_figure1_dfa(benchmark):
    result = benchmark(lambda: analyze(parse_grammar(FIG1)))
    grammar = result.grammar
    record = result.records[0]
    table = record.table
    alt = table.accept_alt

    # (a) minimum lookahead: 'int' predicts alternative 3 immediately
    d0 = table.start
    assert alt[_edges(table, d0, grammar)["'int'"]] == 3

    # (b) after ID, one more token separates alternatives 1, 2, 4
    d1 = _edges(table, d0, grammar)["ID"]
    assert alt[_edges(table, d1, grammar)["EOF"]] == 1
    assert alt[_edges(table, d1, grammar)["'='"]] == 2
    assert alt[_edges(table, d1, grammar)["ID"]] == 4

    # (c) the cyclic 'unsigned'* scan
    d2 = _edges(table, d0, grammar)["'unsigned'"]
    assert _edges(table, d2, grammar)["'unsigned'"] == d2
    assert alt[_edges(table, d2, grammar)["'int'"]] == 3
    assert alt[_edges(table, d2, grammar)["ID"]] == 4
    assert record.category == CYCLIC
    assert not table.uses_backtracking()

    rows = [
        ("alt predicted on 'int' at k=1", 3),
        ("alt predicted on ID EOF", 1),
        ("alt predicted on ID '='", 2),
        ("alt predicted on ID ID", 4),
        ("'unsigned' state self-loops", "yes"),
        ("DFA states", table.n_states),
        ("category", record.category),
    ]
    emit_table("fig1", "Figure 1: lookahead DFA for rule s", ("property", "value"), rows)
    emit_table("fig1_dot", "Figure 1 DFA (graphviz)", ("dot",),
               [(line,) for line in dfa_to_dot(table, grammar.vocabulary).splitlines()])
