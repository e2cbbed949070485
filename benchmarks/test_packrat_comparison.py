"""LL(*) as "an optimization of packrat parsing" (Section 7).

A pure packrat parser speculates at every ordered choice and pays for a
memo entry per (rule, position).  The LL(*) parser makes almost every
decision with a DFA over one or two tokens and speculates only where
analysis failed over.  We measure both on the same PEG-mode grammar and
input: decision events + speculation for LL(*) vs rule invocations +
memo entries for packrat, plus wall-clock parse time.
"""

import time

from repro.baselines.packrat import PackratParser
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry

from conftest import emit_table

UNITS = 30


def test_llstar_reduces_speculation(suite, benchmark):
    bench, host = suite["rats_c"]
    text = bench.generate_program(UNITS, seed=3)
    stream = host.tokenize(text)
    tokens = stream.size

    telemetry = ParseTelemetry()
    t0 = time.perf_counter()
    host.parse(text, options=ParserOptions(telemetry=telemetry))
    ll_time = time.perf_counter() - t0
    report = telemetry.report(host.analysis)
    ll_backtracks = sum(s.backtrack_events
                        for s in telemetry.profiler.stats.values())

    packrat = PackratParser(host.grammar, memoize=True)
    stream.seek(0)
    t0 = time.perf_counter()
    assert packrat.recognize(stream)
    peg_time = time.perf_counter() - t0

    rows = [
        ("input tokens", tokens, tokens),
        ("decision events / rule invocations",
         report.total_events, packrat.stats.rule_invocations),
        ("speculative events", ll_backtracks, packrat.stats.rule_invocations),
        ("memo entries", "only while speculating", packrat.stats.memo_entries),
        ("parse time", "%.0fms" % (ll_time * 1000), "%.0fms" % (peg_time * 1000)),
        ("% events that speculate",
         "%.2f%%" % report.backtrack_event_percent, "100% (always ordered choice)"),
    ]
    emit_table("packrat_comparison",
               "LL(*) vs packrat on the PEG-mode C grammar",
               ("metric", "LL(*)", "packrat"), rows)

    # The LL(*) parser's speculation events are a small fraction of the
    # packrat parser's speculative rule invocations.
    assert ll_backtracks * 10 < packrat.stats.rule_invocations
    assert report.backtrack_event_percent < 25.0

    benchmark(lambda: host.recognize(text))
