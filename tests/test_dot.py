"""The DOT rendering of Figures 1 and 2's lookahead DFAs, pinned.

``examples/paper_figures.py`` rewrites ``examples/fig*_dfa.dot`` every
time it runs, so those files cannot hold the rendering still; the
expected text lives here.  State ids, token edges in sorted order and
predicate edges in evaluation order are all part of it.
"""

import repro
from repro.analysis import AnalysisOptions
from repro.atn.dot import dfa_to_dot

FIG1 = r"""
grammar Fig1;
s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
expr : INT ;
ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""

FIG2 = r"""
grammar Fig2;
options { backtrack=true; }
t : '-'* ID | expr ;
expr : INT | '-' expr ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ ]+ -> skip ;
"""

FIG1_DOT = """\
digraph DFA {
  rankdir=LR;
  node [shape=circle, fontsize=10];
  D0 [label="D0"];
  D1 [label="D1"];
  D2 [label="D2"];
  D3 [label="D3=>3", shape=doublecircle];
  D4 [label="D4=>1", shape=doublecircle];
  D5 [label="D5=>4", shape=doublecircle];
  D6 [label="D6=>2", shape=doublecircle];
  D7 [label="D7=>4", shape=doublecircle];
  D0 -> D1 [label="ID"];
  D0 -> D2 [label="'unsigned'"];
  D0 -> D3 [label="'int'"];
  D1 -> D4 [label="EOF"];
  D1 -> D5 [label="ID"];
  D1 -> D6 [label="'='"];
  D2 -> D7 [label="ID"];
  D2 -> D2 [label="'unsigned'"];
  D2 -> D3 [label="'int'"];
}"""

FIG2_DOT = """\
digraph DFA {
  rankdir=LR;
  node [shape=circle, fontsize=10];
  D0 [label="D0"];
  D1 [label="D1=>1", shape=doublecircle];
  D2 [label="D2=>2", shape=doublecircle];
  D3 [label="D3"];
  D4 [label="D4=>2", shape=doublecircle];
  D5 [label="D5"];
  D6 [label="D6=>1", shape=doublecircle];
  D7 [label="D7=>2", shape=doublecircle];
  D0 -> D1 [label="ID"];
  D0 -> D2 [label="INT"];
  D0 -> D3 [label="'-'"];
  D3 -> D1 [label="ID"];
  D3 -> D4 [label="INT"];
  D3 -> D5 [label="'-'"];
  D5 -> D6 [label="{synpred(synpred1)}?", color=blue];
  D5 -> D7 [label="default=>2", color=blue];
}"""


def render(text, options=None):
    host = repro.compile_grammar(text, options=options)
    return dfa_to_dot(host.analysis.records[0].table, host.grammar.vocabulary)


def test_figure1_dfa_dot():
    assert render(FIG1) == FIG1_DOT


def test_figure2_dfa_dot_at_m1():
    assert render(FIG2, AnalysisOptions(max_recursion_depth=1)) == FIG2_DOT


def test_token_types_without_a_vocabulary():
    host = repro.compile_grammar(FIG1)
    table = host.analysis.records[0].table
    lines = dfa_to_dot(table).splitlines()
    assert '  D0 -> D1 [label="%d"];' % table.edge_keys[0] in lines
