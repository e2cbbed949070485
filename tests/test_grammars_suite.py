"""Benchmark grammar suite: every grammar compiles, parses its sample and
generated workloads, and shows a Table-1-like decision mix."""

import pytest

from repro.analysis.decisions import BACKTRACK, CYCLIC, FIXED
from repro.baselines.earley import EarleyParser
from repro.grammars import ALL, PAPER_ORDER, load
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry

# Compiled hosts are cached on the registry entries, so the suite only
# pays for analysis once per grammar per test session.


@pytest.fixture(scope="module", params=PAPER_ORDER)
def bench(request):
    return load(request.param)


class TestSuiteGrammars:
    def test_registry_complete(self):
        assert set(ALL) == set(PAPER_ORDER)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            load("cobol")

    def test_compiles(self, bench):
        host = bench.compile()
        assert host.analysis.num_decisions > 20

    def test_sample_parses(self, bench):
        host = bench.compile()
        assert host.parse(bench.sample) is not None

    def test_generated_workloads_parse(self, bench):
        host = bench.compile()
        for seed in range(3):
            program = bench.generate_program(8, seed=seed)
            assert host.parse(program) is not None

    def test_generator_is_deterministic(self, bench):
        assert bench.generate_program(5, seed=7) == bench.generate_program(5, seed=7)

    def test_generator_scales(self, bench):
        small = bench.generate_program(3, seed=1)
        large = bench.generate_program(30, seed=1)
        assert len(large) > len(small)

    def test_mostly_fixed_decisions(self, bench):
        """Table 1's headline: the vast majority of decisions are LL(k)."""
        res = bench.compile().analysis
        assert res.percent(FIXED) > 80.0

    def test_fixed_k_histogram_dominated_by_k1(self, bench):
        """Table 2: most fixed decisions are LL(1)."""
        res = bench.compile().analysis
        hist = res.fixed_k_histogram()
        assert hist, "no fixed decisions?"
        assert hist.get(1, 0) == max(hist.values())

    def test_profile_avg_k_small(self, bench):
        """Table 3: runtime average lookahead is one-or-two tokens."""
        host = bench.compile()
        telemetry = ParseTelemetry()
        host.parse(bench.generate_program(10, seed=11),
                   options=ParserOptions(telemetry=telemetry))
        report = telemetry.report(host.analysis)
        assert 1.0 <= report.avg_k < 3.0
        assert report.total_events > 50


class TestSuiteCrossChecks:
    def test_peg_mode_grammars_backtrack_somewhere(self):
        # The PEG-mode pair with genuine C/Java ambiguity must keep some
        # backtracking decisions after analysis strips the rest.
        for name in ("java", "rats_c"):
            res = load(name).compile().analysis
            assert res.count(BACKTRACK) >= 1, name

    def test_some_cyclic_decision_exists_in_suite(self):
        assert any(load(n).compile().analysis.count(CYCLIC) > 0
                   for n in PAPER_ORDER)

    def test_earley_agrees_on_sql_sample(self):
        bench = load("sql")
        host = bench.compile()
        oracle = EarleyParser(host.grammar)
        stream = host.tokenize(bench.sample)
        assert oracle.recognize(stream)

    def test_bad_input_rejected(self):
        host = load("sql").compile()
        assert not host.recognize("SELECT FROM WHERE ;;;")
        host2 = load("rats_c").compile()
        assert not host2.recognize("int int int = ;")
