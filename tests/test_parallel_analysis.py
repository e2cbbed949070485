"""Parallel decision analysis must be indistinguishable from serial.

``analyze(grammar, parallel=N)`` fans the per-decision subset
construction out over N threads; each DecisionAnalyzer is independent,
so the records, DFA shapes, and diagnostics (including their order)
must match a serial run decision for decision.
"""

import pytest

from repro.analysis import analyze
from repro.grammar.leftrec import eliminate_left_recursion
from repro.grammar.meta_parser import parse_grammar
from repro.grammars import load


def _fresh_grammar(text):
    grammar = parse_grammar(text)
    eliminate_left_recursion(grammar)
    return grammar


def _comparable(result):
    return {
        "records": [(r.decision, r.rule_name, r.kind, r.category, r.fixed_k,
                     r.table.to_dict())
                    for r in result.records],
        "diagnostics": [d.to_dict() for d in result.diagnostics],
    }


@pytest.mark.parametrize("name", ["java", "rats_c"])
def test_parallel_matches_serial(name):
    bench = load(name)
    serial = bench.compile().analysis  # registry-cached cold analysis
    parallel = analyze(_fresh_grammar(bench.grammar_text), parallel=4)
    assert _comparable(serial) == _comparable(parallel)


def test_parallel_one_equals_serial_path():
    text = load("sql").grammar_text
    serial = analyze(_fresh_grammar(text))
    parallel = analyze(_fresh_grammar(text), parallel=1)
    assert _comparable(serial) == _comparable(parallel)


def test_more_workers_than_decisions():
    grammar = _fresh_grammar("grammar W; s : A | B ; A : 'a' ; B : 'b' ;")
    result = analyze(grammar, parallel=64)
    assert result.num_decisions == 1
    assert result.records[0].category == "fixed"


def test_compile_grammar_parallel_wiring():
    import repro

    host = repro.compile_grammar(
        "grammar P; s : A B | A C ; A:'a'; B:'b'; C:'c';", parallel=2)
    assert host.recognize(host.token_stream_from_types(["A", "B"]))
