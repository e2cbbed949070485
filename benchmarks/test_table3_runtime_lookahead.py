"""Table 3: parser decision lookahead depth at runtime.

Paper columns per grammar/input: input lines, parse time, n (decision
points covered), avg k (average lookahead depth over all decision
events), back. k (average speculation depth over backtracking events
only), max k.  Shape to preserve: avg k is ~1-2 tokens even for
PEG-mode grammars; backtracking average stays small; max k is large only
where a decision speculates across a whole construct (the RatsC
declaration-vs-definition decision speculating across entire function
bodies dominates, 7,968 tokens in the paper).
"""

import time

from repro.grammars import PAPER_ORDER

from conftest import emit_table

UNITS = 40


def profile_parse(host, text):
    from repro.runtime.parser import ParserOptions
    from repro.runtime.telemetry import ParseTelemetry

    telemetry = ParseTelemetry()
    started = time.perf_counter()
    host.parse(text, options=ParserOptions(telemetry=telemetry))
    elapsed = time.perf_counter() - started
    return telemetry.report(host.analysis), elapsed


def test_table3(suite, paper_names, benchmark):
    rows = []
    max_k_by_name = {}
    for name in PAPER_ORDER:
        bench, host = suite[name]
        text = bench.generate_program(UNITS, seed=42)
        report, elapsed = profile_parse(host, text)
        max_k_by_name[name] = report.max_k
        rows.append((
            paper_names[name],
            text.count("\n") + 1,
            "%.0fms" % (elapsed * 1000),
            report.decisions_covered,
            "%.2f" % report.avg_k,
            "%.2f" % report.avg_backtrack_k,
            report.max_k,
        ))
        # Shape: decisions examine one-or-two tokens on average.
        assert report.avg_k < 3.0, name
        assert report.decisions_covered > 20

    # RatsC's decl-vs-definition speculation reaches much deeper than the
    # keyword-led grammars (paper: 7,968 vs 9-20 for VB/TSQL/C#).
    assert max_k_by_name["rats_c"] > max_k_by_name["sql"]
    assert max_k_by_name["rats_c"] > max_k_by_name["vb"]

    emit_table(
        "table3", "Table 3: parser decision lookahead depth (runtime)",
        ("Grammar", "lines", "parse time", "n", "avg k", "back. k", "max k"),
        rows)

    # Benchmark: steady-state parse of the Java workload.
    bench_obj, host = suite["java"]
    text = bench_obj.generate_program(UNITS, seed=42)
    benchmark(lambda: host.parse(text))
