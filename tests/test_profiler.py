"""DecisionProfiler / ProfileReport unit behavior.

Two concerns live here:

* the Table-3/4 arithmetic, pinned against hand-computed fixtures
  (including the zero-event and no-analysis edge paths), plus parity
  with the telemetry registry's realized-k histogram — both instruments
  watch the same predictions, so their numbers must agree;
* thread safety: a profiler shared across concurrent parses must not
  lose events to the read-modify-write race in ``record``.
"""

import sys
import threading
import time

import repro.runtime.profiler as profiler_mod
from repro.runtime.profiler import DecisionProfiler, DecisionStats, ProfileReport
from repro.runtime.telemetry import ParseTelemetry


def _fixture_profiler():
    """Five events over three decisions, two of them backtracking.

    Hand-computed expectations:
      total_events = 5, decisions_covered = 3
      avg_k = (1 + 3 + 2 + 2 + 1) / 5 = 1.8
      avg_backtrack_k = (4 + 6) / 2 = 5.0
      max_k = max(3, max(2, 6), 1) = 6
      backtrack_event_percent = 100 * 2 / 5 = 40.0
    """
    p = DecisionProfiler()
    p.record(0, 1)
    p.record(0, 3)
    p.record(1, 2, backtracked=True, backtrack_depth=4)
    p.record(1, 2, backtracked=True, backtrack_depth=6)
    p.record(2, 1)
    return p


class _FakeRecord:
    def __init__(self, decision, can_backtrack):
        self.decision = decision
        self.can_backtrack = can_backtrack


class _FakeAnalysis:
    def __init__(self, records):
        self.records = records

    def classified(self):
        return self.records


class TestProfileReportMath:
    def test_table3_columns(self):
        report = _fixture_profiler().report()
        assert report.total_events == 5
        assert report.decisions_covered == 3
        assert report.avg_k == 1.8
        assert report.avg_backtrack_k == 5.0
        assert report.max_k == 6

    def test_table4_columns_without_analysis(self):
        report = _fixture_profiler().report()
        assert report.backtrack_event_percent == 40.0
        assert report.did_backtrack_decisions == {1}
        assert report.can_backtrack_decisions is None
        assert report.backtrack_rate == 0.0

    def test_table4_columns_with_analysis(self):
        analysis = _FakeAnalysis([_FakeRecord(0, False),
                                  _FakeRecord(1, True),
                                  _FakeRecord(2, False)])
        report = _fixture_profiler().report(analysis)
        assert report.can_backtrack_decisions == {1}
        # Decision 1 ran 2 events, both backtracked.
        assert report.backtrack_rate == 100.0

    def test_backtrack_rate_ignores_unexercised_decisions(self):
        # A can-backtrack decision with no events contributes nothing.
        analysis = _FakeAnalysis([_FakeRecord(1, True), _FakeRecord(9, True)])
        report = _fixture_profiler().report(analysis)
        assert report.backtrack_rate == 100.0

    def test_zero_events_all_zero(self):
        report = ProfileReport(DecisionProfiler())
        assert report.total_events == 0
        assert report.decisions_covered == 0
        assert report.avg_k == 0.0
        assert report.avg_backtrack_k == 0.0
        assert report.max_k == 0
        assert report.backtrack_event_percent == 0.0
        assert report.did_backtrack_decisions == set()

    def test_reset_clears_everything(self):
        p = _fixture_profiler()
        p.reset()
        assert p.total_events == 0
        assert p.stats == {}

    def test_summary_renders_fixture_numbers(self):
        text = _fixture_profiler().report().summary()
        assert "5 over 3 decision points" in text
        assert "avg k: 1.80" in text
        assert "backtrack k: 5.00" in text
        assert "max k: 6" in text
        assert "40.00%" in text

    def test_telemetry_histogram_agrees_with_report(self):
        """Feed identical events to both instruments: the realized-k
        histogram's sum/count/max must reproduce the report's avg_k /
        total_events / max_k, and the backtrack-depth histogram the
        backtracking aggregates."""
        profiler = _fixture_profiler()
        tel = ParseTelemetry()
        for decision, k, bt, bd in ((0, 1, False, 0), (0, 3, False, 0),
                                    (1, 2, True, 4), (1, 2, True, 6),
                                    (2, 1, False, 0)):
            tel.record_predict(decision, k, dfa_hit=not bt,
                               backtracked=bt, backtrack_depth=bd)
        report = profiler.report()
        k_hist = tel.metrics.get("llstar_realized_k")
        assert k_hist.count == report.total_events
        assert k_hist.sum / k_hist.count == report.avg_k
        bt_hist = tel.metrics.get("llstar_backtrack_depth")
        assert bt_hist.sum / bt_hist.count == report.avg_backtrack_k
        assert max(k_hist.max, bt_hist.max) == report.max_k
        assert tel.metrics.value("llstar_backtrack_events_total") == 2

    def test_exported_json_carries_the_same_numbers(self):
        tel = ParseTelemetry()
        for k in (1, 3, 2, 2, 1):
            tel.record_predict(0, k, dfa_hit=True, backtracked=False,
                               backtrack_depth=0)
        doc = tel.metrics.to_json()["llstar_realized_k"]
        (sample,) = doc["samples"]
        assert sample["count"] == 5
        assert sample["sum"] == 9
        assert sample["max"] == 3


class TestProfilerThreadSafety:
    def test_concurrent_records_do_not_lose_events(self):
        """Regression: ``record`` is a read-modify-write of several
        counters; pre-lock, threads hammering one decision silently
        under-counted.  Force frequent GIL switches to make the race
        near-certain on the unlocked code."""
        profiler = DecisionProfiler()
        threads, per_thread = 8, 2000
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def hammer():
                for _ in range(per_thread):
                    profiler.record(0, 2, backtracked=True, backtrack_depth=3)

            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        finally:
            sys.setswitchinterval(old_interval)
        expected = threads * per_thread
        assert profiler.total_events == expected
        stats = profiler.stats[0]
        assert stats.events == expected
        assert stats.sum_depth == 2 * expected
        assert stats.backtrack_events == expected
        assert stats.sum_backtrack_depth == 3 * expected

    def test_create_race_is_serialized(self, monkeypatch):
        """Regression for the unlocked check-then-create in ``record``:
        two threads hitting a fresh decision could both see no stats
        entry, and the second store clobbered the first instance —
        silently dropping its events.  The GIL makes that window too
        narrow to hit by scheduling pressure alone, so widen it
        deterministically: the first ``DecisionStats`` construction
        sleeps mid-window.  With the lock, the second thread must wait
        and no event is lost."""
        in_window = threading.Event()

        class SlowFirstStats(DecisionStats):
            constructed = 0

            def __init__(self, decision):
                first = SlowFirstStats.constructed == 0
                SlowFirstStats.constructed += 1
                super().__init__(decision)
                if first:
                    in_window.set()
                    time.sleep(0.1)

        monkeypatch.setattr(profiler_mod, "DecisionStats", SlowFirstStats)
        profiler = DecisionProfiler()
        t1 = threading.Thread(target=lambda: profiler.record(0, 1))
        t1.start()
        assert in_window.wait(5.0)
        t2 = threading.Thread(target=lambda: profiler.record(0, 2))
        t2.start()
        t1.join()
        t2.join()
        assert profiler.total_events == 2
        assert profiler.stats[0].events == 2  # pre-lock: clobbered to 1


class TestDecisionProfilerMergeEdgeCases:
    """Degenerate merge shapes for the profiler fold: empty profilers on
    either side, one-sided decisions, self-merge."""

    def test_empty_into_empty(self):
        a, b = DecisionProfiler(), DecisionProfiler()
        a.merge(b)
        assert a.total_events == 0 and a.stats == {}

    def test_empty_other_leaves_target_unchanged(self):
        a, b = _fixture_profiler(), DecisionProfiler()
        a.merge(b)
        assert a.total_events == 5
        assert sorted(a.stats) == [0, 1, 2]

    def test_merge_into_empty_equals_source(self):
        a, b = DecisionProfiler(), _fixture_profiler()
        a.merge(b)
        assert a.total_events == b.total_events
        for decision, theirs in b.stats.items():
            mine = a.stats[decision]
            assert (mine.events, mine.sum_depth, mine.max_depth,
                    mine.backtrack_events) == \
                   (theirs.events, theirs.sum_depth, theirs.max_depth,
                    theirs.backtrack_events)
        a.record(9, 1)  # the copy is independent
        assert 9 not in b.stats and b.total_events == 5

    def test_one_sided_decisions_union(self):
        a, b = DecisionProfiler(), DecisionProfiler()
        a.record(0, 2)
        b.record(7, 4)
        a.merge(b)
        assert sorted(a.stats) == [0, 7]
        assert a.stats[7].events == 1 and a.total_events == 2

    def test_merge_into_itself_raises(self):
        import pytest

        a = _fixture_profiler()
        with pytest.raises(ValueError):
            a.merge(a)
        assert a.total_events == 5  # nothing doubled, no deadlock
