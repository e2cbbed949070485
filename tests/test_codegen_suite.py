"""Code generation over the full benchmark suite.

The strongest integration check we have: for every suite grammar, emit
a Python parser module, exec it, and require the generated parser to
produce the *identical* parse tree the interpreter produces on a
generated workload, and to report identical per-decision statistics
(lookahead depth, backtracking, speculation depth) and telemetry
prediction, fallback, backtrack, synpred and rule-invocation counters.
"""

import pytest

from repro.codegen import generate_python
from repro.codegen.support import GeneratedParser
from repro.grammars import PAPER_ORDER, load
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry
from tests.test_prediction_golden import TELEMETRY_METRICS


def load_generated(host):
    source = generate_python(host.analysis)
    namespace = {}
    exec(compile(source, "<suite-generated>", "exec"), namespace)
    cls = [v for v in namespace.values()
           if isinstance(v, type) and issubclass(v, GeneratedParser)
           and v is not GeneratedParser][0]
    return cls


def decision_stats(telemetry):
    return {d: (s.events, s.sum_depth, s.max_depth, s.backtrack_events,
                s.sum_backtrack_depth, s.max_backtrack_depth)
            for d, s in telemetry.profiler.stats.items()}


def prediction_counters(telemetry):
    metrics = telemetry.metrics.to_json()
    return {m: metrics[m]["samples"] for m in TELEMETRY_METRICS if m in metrics}


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_generated_parser_matches_interpreter(name):
    bench = load(name)
    host = bench.compile()
    cls = load_generated(host)
    for source_text in (bench.sample, bench.generate_program(6, seed=13),
                        bench.generate_program(6, seed=1)):
        interp_tel = ParseTelemetry()
        generated_tel = ParseTelemetry()
        expected = host.parse(source_text,
                              options=ParserOptions(telemetry=interp_tel))
        actual = cls(host.tokenize(source_text),
                     telemetry=generated_tel).parse()
        assert actual.to_sexpr() == expected.to_sexpr()
        assert decision_stats(generated_tel) == decision_stats(interp_tel)
        assert prediction_counters(generated_tel) == \
            prediction_counters(interp_tel)


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_generated_source_is_substantial_and_valid(name):
    bench = load(name)
    host = bench.compile()
    source = generate_python(host.analysis)
    compile(source, "gen.py", "exec")
    # every parser rule got a method
    for rule in host.grammar.parser_rules:
        assert "def rule_%s(" % rule.name in source
