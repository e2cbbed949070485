"""Section 2: LL(*) vs fixed-k on ``a : b A+ X | c A+ Y``.

The paper demonstrates this decision defeats LALR(k)/LL(k) for any k
(LPG reports conflicts even at k = 10,000 and exhausts memory at
k = 100,000, while ANTLR builds a small cyclic DFA in well under a
second).  We reproduce the comparison with the exact-tuple fixed-k
baseline: tuple-set storage grows with k and never becomes
deterministic, while the LL(*) DFA has a handful of states.
"""

from repro.analysis import CYCLIC, analyze
from repro.api import compile_grammar
from repro.baselines.llk import FixedKAnalyzer
from repro.grammar.meta_parser import parse_grammar

from conftest import emit_table

SEC2 = r"""
grammar Sec2;
a : b AT+ X | c AT+ Y ;
b : ;
c : ;
AT : 'a' ;
X : 'x' ;
Y : 'y' ;
"""


def test_cyclic_dfa_vs_fixed_k(benchmark):
    result = benchmark(lambda: analyze(parse_grammar(SEC2)))
    record = result.records[0]
    assert record.category == CYCLIC
    dfa_states = record.table.n_states
    assert dfa_states <= 5

    fk = FixedKAnalyzer(result.atn, start_rule="a")
    rows = []
    for k in (1, 2, 4, 6, 8, 10):
        la = fk.lookahead(0, k)
        rows.append((("k=%d" % k), la.total_tuples(), la.storage_cost(),
                     "yes" if la.is_deterministic() else "NO"))
        assert not la.is_deterministic()  # not LL(k) for any bounded k

    rows.append(("LL(*) cyclic DFA", "-", "%d states" % dfa_states, "yes"))
    emit_table("sec2", "Section 2: a : b A+ X | c A+ Y  (fixed-k vs LL(*))",
               ("strategy", "tuples", "storage", "deterministic"), rows)

    # Deep input parses with constant-size machinery.
    host = compile_grammar(SEC2)
    assert host.recognize("a" * 500 + "y")
