"""Table 4: parser decision backtracking behaviour.

Paper columns: Can back. (decisions that potentially backtrack), Did
back. (those that actually did on the input), decision events, Backtrack
(percentage of events that backtracked), Back. rate (likelihood a
potentially-backtracking decision backtracks when triggered).  Shape to
preserve: parsers backtrack in only a few percent of decision events —
less than static analysis predicts — and potentially-backtracking
decisions fire their speculation only a fraction of the time.
"""

from repro.grammars import PAPER_ORDER

from conftest import emit_table

UNITS = 40


def test_table4(suite, paper_names, benchmark):
    from repro.runtime.parser import ParserOptions
    from repro.runtime.telemetry import ParseTelemetry

    rows = []
    percents = {}
    for name in PAPER_ORDER:
        bench, host = suite[name]
        telemetry = ParseTelemetry()
        text = bench.generate_program(UNITS, seed=7)
        host.parse(text, options=ParserOptions(telemetry=telemetry))
        report = telemetry.report(host.analysis)
        can = report.can_backtrack_decisions
        did = report.did_backtrack_decisions & can
        percents[name] = report.backtrack_event_percent
        rows.append((
            paper_names[name],
            len(can),
            len(did),
            report.total_events,
            "%.2f%%" % report.backtrack_event_percent,
            "%.2f%%" % report.backtrack_rate,
        ))
        # Shape: backtracking is a small fraction of decision events.
        assert report.backtrack_event_percent < 25.0, name

    # The PEG-derived C grammar backtracks the most (paper: 16.85%).
    assert percents["rats_c"] >= max(percents[n] for n in ("vb", "sql"))

    emit_table(
        "table4", "Table 4: parser decision backtracking behaviour",
        ("Grammar", "Can back.", "Did back.", "events", "Backtrack", "Back. rate"),
        rows)

    bench_obj, host = suite["rats_c"]
    text = bench_obj.generate_program(UNITS, seed=7)
    benchmark(lambda: host.parse(text))
