"""Per-decision profiling: the store behind Tables 3-4.

A :class:`~repro.runtime.telemetry.ParseTelemetry` folds every committed
prediction into its :class:`DecisionProfiler`: which decision ran, how
many tokens of lookahead the DFA examined, whether the decision
backtracked (evaluated a synpred speculatively), and how deep the
speculation looked.  ``ProfileReport`` then aggregates exactly the
columns the paper reports:

* Table 3 — decisions covered (``n``), ``avg k``, ``backtrack k``
  (average speculation depth over backtracking events only), ``max k``;
* Table 4 — decisions that *can* backtrack vs *did*, percentage of
  decision events that backtracked, and the backtrack rate of
  potentially-backtracking decisions.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set


class DecisionStats:
    """Aggregate counters for one decision point."""

    __slots__ = ("decision", "events", "sum_depth", "max_depth",
                 "backtrack_events", "sum_backtrack_depth", "max_backtrack_depth")

    def __init__(self, decision: int):
        self.decision = decision
        self.events = 0
        self.sum_depth = 0
        self.max_depth = 0
        self.backtrack_events = 0
        self.sum_backtrack_depth = 0
        self.max_backtrack_depth = 0

    def record(self, depth: int, backtracked: bool, backtrack_depth: int,
               n: int = 1) -> None:
        """Count ``n`` identical events."""
        self.events += n
        self.sum_depth += depth * n
        if depth > self.max_depth:
            self.max_depth = depth
        if backtracked:
            self.backtrack_events += n
            self.sum_backtrack_depth += backtrack_depth * n
            if backtrack_depth > self.max_backtrack_depth:
                self.max_backtrack_depth = backtrack_depth

    def merge(self, other: "DecisionStats") -> None:
        """Fold another run's counters for the same decision into this one."""
        self.events += other.events
        self.sum_depth += other.sum_depth
        self.max_depth = max(self.max_depth, other.max_depth)
        self.backtrack_events += other.backtrack_events
        self.sum_backtrack_depth += other.sum_backtrack_depth
        self.max_backtrack_depth = max(self.max_backtrack_depth,
                                       other.max_backtrack_depth)

    @property
    def avg_depth(self) -> float:
        return self.sum_depth / self.events if self.events else 0.0

    def __repr__(self):
        return ("DecisionStats(d%d: %d events, avg k=%.2f, %d backtracks)"
                % (self.decision, self.events, self.avg_depth, self.backtrack_events))


class DecisionProfiler:
    """Per-decision aggregates; each telemetry owns one (``.profiler``).

    Thread-safe: one profiler may be fed by concurrent parses of a
    batch.  Each ``record`` is a read-modify-write of several counters,
    so without the lock simultaneous events silently under-count (the
    classic lost-update race); the uncontended acquire is cheap next to
    the prediction it instruments.
    """

    def __init__(self):
        self.stats: Dict[int, DecisionStats] = {}
        self.total_events = 0
        self._lock = threading.Lock()

    def record(self, decision: int, depth: int, backtracked: bool = False,
               backtrack_depth: int = 0) -> None:
        with self._lock:
            self._record(decision, depth, backtracked, backtrack_depth)

    def _record(self, decision: int, depth: int, backtracked: bool,
                backtrack_depth: int, n: int = 1) -> None:
        """:meth:`record` of ``n`` identical events, for a caller already
        holding the lock (the owning telemetry)."""
        stats = self.stats.get(decision)
        if stats is None:
            stats = self.stats[decision] = DecisionStats(decision)
        stats.record(depth, backtracked, backtrack_depth, n)
        self.total_events += n

    def merge(self, other: "DecisionProfiler") -> None:
        """Fold another profiler's aggregates into this one.

        The corpus-aggregation half of :mod:`repro.batch`: each pool
        worker profiles its own inputs and the parent merges the
        (pickled) profilers into one corpus-level report.  Per-decision
        stats sum (maxima take the max); ``other`` is left untouched.
        Merging a profiler into itself would double every aggregate (and
        self-deadlock on the lock), so it raises ``ValueError``.
        """
        if other is self:
            raise ValueError("cannot merge a DecisionProfiler into itself")
        with self._lock:
            for decision, theirs in sorted(other.stats.items()):
                stats = self.stats.get(decision)
                if stats is None:
                    stats = self.stats[decision] = DecisionStats(decision)
                stats.merge(theirs)
            self.total_events += other.total_events

    # A profiler crosses process boundaries when batch workers return
    # their per-chunk aggregates; the lock is per-process state, so it is
    # dropped on pickle and recreated fresh on load.

    def __getstate__(self):
        return {"stats": self.stats, "total_events": self.total_events}

    def __setstate__(self, state):
        self.stats = state["stats"]
        self.total_events = state["total_events"]
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.stats.clear()
            self.total_events = 0

    def report(self, analysis=None) -> "ProfileReport":
        return ProfileReport(self, analysis)


class ProfileReport:
    """Paper-style aggregates over a profiling run.

    ``analysis`` (an :class:`~repro.analysis.decisions.AnalysisResult`)
    is optional; when provided the report can also compute Table 4's
    "can backtrack" column from static decision categories.
    """

    def __init__(self, profiler: DecisionProfiler, analysis=None):
        self.profiler = profiler
        self.analysis = analysis

    # -- Table 3 columns ---------------------------------------------------------

    @property
    def decisions_covered(self) -> int:
        """n: distinct decision points exercised by the input."""
        return len(self.profiler.stats)

    @property
    def total_events(self) -> int:
        return self.profiler.total_events

    @property
    def avg_k(self) -> float:
        """Sum of all event lookahead depths / number of events."""
        total = sum(s.sum_depth for s in self.profiler.stats.values())
        return total / self.total_events if self.total_events else 0.0

    @property
    def avg_backtrack_k(self) -> float:
        """Average speculation depth over backtracking events only."""
        events = sum(s.backtrack_events for s in self.profiler.stats.values())
        depth = sum(s.sum_backtrack_depth for s in self.profiler.stats.values())
        return depth / events if events else 0.0

    @property
    def max_k(self) -> int:
        depths = [max(s.max_depth, s.max_backtrack_depth)
                  for s in self.profiler.stats.values()]
        return max(depths) if depths else 0

    # -- Table 4 columns -----------------------------------------------------------

    @property
    def can_backtrack_decisions(self) -> Optional[Set[int]]:
        if self.analysis is None:
            return None
        return {r.decision for r in self.analysis.classified() if r.can_backtrack}

    @property
    def did_backtrack_decisions(self) -> Set[int]:
        return {d for d, s in self.profiler.stats.items() if s.backtrack_events}

    @property
    def backtrack_event_percent(self) -> float:
        """Percentage of all decision events that backtracked."""
        events = sum(s.backtrack_events for s in self.profiler.stats.values())
        return 100.0 * events / self.total_events if self.total_events else 0.0

    @property
    def backtrack_rate(self) -> float:
        """Within potentially-backtracking decisions that ran: likelihood
        a decision event actually backtracked."""
        can = self.can_backtrack_decisions
        if can is None:
            return 0.0
        events = backtracks = 0
        for d in can:
            s = self.profiler.stats.get(d)
            if s is None:
                continue
            events += s.events
            backtracks += s.backtrack_events
        return 100.0 * backtracks / events if events else 0.0

    def summary(self) -> str:
        lines = [
            "decision events: %d over %d decision points"
            % (self.total_events, self.decisions_covered),
            "avg k: %.2f   backtrack k: %.2f   max k: %d"
            % (self.avg_k, self.avg_backtrack_k, self.max_k),
            "events that backtracked: %.2f%%" % self.backtrack_event_percent,
        ]
        can = self.can_backtrack_decisions
        if can is not None:
            lines.append("can backtrack: %d decisions, did backtrack: %d, rate %.2f%%"
                         % (len(can), len(self.did_backtrack_decisions & can),
                            self.backtrack_rate))
        return "\n".join(lines)

    def __repr__(self):
        return "ProfileReport(%d events, avg k %.2f)" % (self.total_events, self.avg_k)
