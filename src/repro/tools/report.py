"""Evaluation report generator: the paper's Section 6 as a library call.

``build_report(units=...)`` compiles the whole benchmark suite, parses
generated workloads under a telemetry, and renders Tables 1-4 plus the
static/dynamic headline claims as text — the same numbers the
``benchmarks/`` harness asserts on, but available to the CLI
(``llstar report``) and to downstream code without pytest.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.analysis.decisions import BACKTRACK, CYCLIC, FIXED
from repro.grammars import PAPER_NAMES, PAPER_ORDER, load
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry


def format_table(title: str, header, rows) -> str:
    widths = [len(str(h)) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = [title, ""]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


class SuiteReport:
    """Holds per-grammar static and runtime measurements."""

    def __init__(self, units: int = 30, seed: int = 42,
                 names: Optional[List[str]] = None):
        self.units = units
        self.seed = seed
        self.names = list(names) if names else list(PAPER_ORDER)
        self.static: Dict[str, object] = {}
        self.runtime: Dict[str, object] = {}

    def collect(self) -> "SuiteReport":
        for name in self.names:
            bench = load(name)
            host = bench.compile()
            self.static[name] = (bench, host.analysis)
            text = bench.generate_program(self.units, seed=self.seed)
            telemetry = ParseTelemetry()
            started = time.perf_counter()
            host.parse(text, options=ParserOptions(telemetry=telemetry))
            elapsed = time.perf_counter() - started
            self.runtime[name] = (text, telemetry.report(host.analysis), elapsed)
        return self

    # -- tables -------------------------------------------------------------------

    def table1(self) -> str:
        rows = []
        for name in self.names:
            bench, res = self.static[name]
            rows.append((PAPER_NAMES.get(name, name), bench.grammar_lines(),
                         res.num_decisions, res.count(FIXED), res.count(CYCLIC),
                         "%d (%.1f%%)" % (res.count(BACKTRACK),
                                          res.percent(BACKTRACK)),
                         "%.2fs" % res.elapsed_seconds))
        return format_table(
            "Table 1: grammar decision characteristics",
            ("Grammar", "Lines", "n", "Fixed", "Cyclic", "Backtrack", "Runtime"),
            rows)

    def table2(self, max_depth: int = 6) -> str:
        rows = []
        for name in self.names:
            _bench, res = self.static[name]
            hist = res.fixed_k_histogram()
            cells = [hist.get(k, "") for k in range(1, max_depth + 1)]
            rows.append((PAPER_NAMES.get(name, name),
                         "%.2f%%" % res.percent(FIXED),
                         "%.2f%%" % res.percent_ll1(), *cells))
        return format_table(
            "Table 2: fixed lookahead decision characteristics",
            ("Grammar", "LL(k)%", "LL(1)%") +
            tuple("k=%d" % k for k in range(1, max_depth + 1)),
            rows)

    def table3(self) -> str:
        rows = []
        for name in self.names:
            text, report, elapsed = self.runtime[name]
            rows.append((PAPER_NAMES.get(name, name), text.count("\n") + 1,
                         "%.0fms" % (elapsed * 1000), report.decisions_covered,
                         "%.2f" % report.avg_k, "%.2f" % report.avg_backtrack_k,
                         report.max_k))
        return format_table(
            "Table 3: parser decision lookahead depth (runtime)",
            ("Grammar", "lines", "parse time", "n", "avg k", "back. k", "max k"),
            rows)

    def table4(self) -> str:
        rows = []
        for name in self.names:
            _text, report, _elapsed = self.runtime[name]
            can = report.can_backtrack_decisions or set()
            did = report.did_backtrack_decisions & can
            rows.append((PAPER_NAMES.get(name, name), len(can), len(did),
                         report.total_events,
                         "%.2f%%" % report.backtrack_event_percent,
                         "%.2f%%" % report.backtrack_rate))
        return format_table(
            "Table 4: parser decision backtracking behaviour",
            ("Grammar", "Can back.", "Did back.", "events", "Backtrack",
             "Back. rate"),
            rows)

    def render(self) -> str:
        parts = [
            "LL(*) reproduction — evaluation report "
            "(workload: ~%d units per grammar, seed %d)" % (self.units, self.seed),
            "",
            self.table1(), "", self.table2(), "", self.table3(), "",
            self.table4(), "",
            self._headlines(),
        ]
        return "\n".join(parts)

    def _headlines(self) -> str:
        lines = ["Headline claims:"]
        fixed_ok = all(res.percent(FIXED) > 80 for _b, res in self.static.values())
        lines.append("  - vast majority of decisions fixed LL(k): %s"
                     % ("holds" if fixed_ok else "VIOLATED"))
        avg_ok = all(report.avg_k < 3.0
                     for _t, report, _e in self.runtime.values())
        lines.append("  - runtime average lookahead ~1-2 tokens: %s"
                     % ("holds" if avg_ok else "VIOLATED"))
        back_ok = all(report.backtrack_event_percent < 25.0
                      for _t, report, _e in self.runtime.values())
        lines.append("  - only a few percent of decision events backtrack: %s"
                     % ("holds" if back_ok else "VIOLATED"))
        return "\n".join(lines)


def build_report(units: int = 30, seed: int = 42,
                 names: Optional[List[str]] = None) -> str:
    return SuiteReport(units=units, seed=seed, names=names).collect().render()


# -- single-input profiling views (the ``profile`` CLI) ----------------------------


def profile_to_dict(report, telemetry=None) -> dict:
    """Table-3/4 aggregates of one profiled parse as a JSON-safe dict.

    ``report`` is a :class:`~repro.runtime.profiler.ProfileReport`;
    ``telemetry`` (optional :class:`~repro.runtime.telemetry.ParseTelemetry`)
    adds the full metrics snapshot, so one document carries both the
    paper-style aggregates and the operational counters.
    """
    can = report.can_backtrack_decisions
    data = {
        "table3": {
            "decisions_covered": report.decisions_covered,
            "events": report.total_events,
            "avg_k": report.avg_k,
            "avg_backtrack_k": report.avg_backtrack_k,
            "max_k": report.max_k,
        },
        "table4": {
            "can_backtrack": len(can) if can is not None else None,
            "did_backtrack": len(report.did_backtrack_decisions
                                 & can) if can is not None
            else len(report.did_backtrack_decisions),
            "backtrack_event_percent": report.backtrack_event_percent,
            "backtrack_rate": report.backtrack_rate,
        },
        "per_decision": [
            {"decision": d, "events": s.events, "avg_k": s.avg_depth,
             "max_k": max(s.max_depth, s.max_backtrack_depth),
             "backtracks": s.backtrack_events}
            for d, s in sorted(report.profiler.stats.items())
        ],
    }
    if telemetry is not None:
        data["telemetry"] = telemetry.snapshot()
    return data


def profile_tables(report, name: str = "input") -> str:
    """Render one profiled parse as Table-3/4-style text tables."""
    t3 = format_table(
        "Table 3 (single input): parser decision lookahead depth",
        ("Input", "n", "events", "avg k", "back. k", "max k"),
        [(name, report.decisions_covered, report.total_events,
          "%.2f" % report.avg_k, "%.2f" % report.avg_backtrack_k,
          report.max_k)])
    can = report.can_backtrack_decisions
    t4 = format_table(
        "Table 4 (single input): decision backtracking behaviour",
        ("Input", "Can back.", "Did back.", "events", "Backtrack",
         "Back. rate"),
        [(name,
          len(can) if can is not None else "-",
          len(report.did_backtrack_decisions & can) if can is not None
          else len(report.did_backtrack_decisions),
          report.total_events,
          "%.2f%%" % report.backtrack_event_percent,
          "%.2f%%" % report.backtrack_rate)])
    return t3 + "\n\n" + t4
