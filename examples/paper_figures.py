"""Regenerate the paper's Figures 1 and 2 as Graphviz DOT files.

Writes ``fig1_dfa.dot``, ``fig2_dfa.dot``, and ``fig1_atn.dot`` next to
this script, and narrates the decision procedure the way Section 2 does.

Run:  python examples/paper_figures.py
"""

import os

import repro
from repro.analysis import AnalysisOptions
from repro.atn.dot import atn_to_dot, dfa_to_dot

HERE = os.path.dirname(os.path.abspath(__file__))

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


def write(name, text):
    path = os.path.join(HERE, name)
    with open(path, "w") as f:
        f.write(text)
    print("wrote", path)


def main():
    host1 = repro.compile_grammar(FIG1)
    table1 = host1.analysis.records[0].table
    write("fig1_dfa.dot", dfa_to_dot(table1, host1.grammar.vocabulary))
    write("fig1_atn.dot", atn_to_dot(host1.analysis.atn, rule_name="s",
                                     vocabulary=host1.grammar.vocabulary))
    print()
    print("Figure 1 narrative:")
    print("  on 'int'      -> predict alt 3 with k=1")
    print("  on ID         -> need k=2 ('=' -> 2, ID -> 4, EOF -> 1)")
    print("  on 'unsigned' -> cyclic scan until 'int' (3) or ID ID (4)")
    print()

    host2 = repro.compile_grammar(FIG2, options=AnalysisOptions(max_recursion_depth=1))
    table2 = host2.analysis.records[0].table
    write("fig2_dfa.dot", dfa_to_dot(table2, host2.grammar.vocabulary))
    print()
    print("Figure 2 narrative (m=1):")
    print("  on ID or INT -> immediate k=1 decision")
    print("  one '-'      -> still deterministic")
    print("  '--'         -> recursion overflow: fail over to synpred")
    print("  (render with: dot -Tpng fig2_dfa.dot -o fig2.png)")


if __name__ == "__main__":
    main()
