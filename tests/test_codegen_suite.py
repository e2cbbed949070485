"""Code generation over the full benchmark suite.

The strongest integration check we have: for every suite grammar, emit
a Python parser module, exec it, and require the generated parser to
produce the *identical* parse tree the interpreter produces on a
generated workload, and to report identical per-decision profiler
statistics (lookahead depth, backtracking, speculation depth).
"""

import pytest

from repro.codegen import generate_python
from repro.codegen.support import GeneratedParser
from repro.grammars import PAPER_ORDER, load
from repro.runtime.parser import ParserOptions
from repro.runtime.profiler import DecisionProfiler


def load_generated(host):
    source = generate_python(host.analysis)
    namespace = {}
    exec(compile(source, "<suite-generated>", "exec"), namespace)
    cls = [v for v in namespace.values()
           if isinstance(v, type) and issubclass(v, GeneratedParser)
           and v is not GeneratedParser][0]
    return cls


def decision_stats(profiler):
    return {d: (s.events, s.sum_depth, s.max_depth, s.backtrack_events,
                s.sum_backtrack_depth, s.max_backtrack_depth)
            for d, s in profiler.stats.items()}


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_generated_parser_matches_interpreter(name):
    bench = load(name)
    host = bench.compile()
    cls = load_generated(host)
    for source_text in (bench.sample, bench.generate_program(6, seed=13),
                        bench.generate_program(6, seed=1)):
        interp_profile, generated_profile = DecisionProfiler(), DecisionProfiler()
        expected = host.parse(source_text,
                              options=ParserOptions(profiler=interp_profile))
        actual = cls(host.tokenize(source_text),
                     profiler=generated_profile).parse()
        assert actual.to_sexpr() == expected.to_sexpr()
        assert decision_stats(generated_profile) == decision_stats(interp_profile)


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_generated_source_is_substantial_and_valid(name):
    bench = load(name)
    host = bench.compile()
    source = generate_python(host.analysis)
    compile(source, "gen.py", "exec")
    # every parser rule got a method
    for rule in host.grammar.parser_rules:
        assert "def rule_%s(" % rule.name in source
