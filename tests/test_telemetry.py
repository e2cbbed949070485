"""The prediction observability layer: events, metrics, exporters, wiring.

The telemetry subsystem mirrors the instrumentation behind the paper's
Tables 2-4 as production metrics: every adaptive prediction lands in the
realized-k histogram and the DFA-hit/ATN-fallback counters, every error
repair and cache operation is a structured event, and the whole registry
exports as JSON and Prometheus text.
"""

import json
import re
import threading

import pytest

import repro
from repro.runtime.parser import LLStarParser, ParserOptions
from repro.runtime.streaming import StreamingTokenStream
from repro.runtime.telemetry import (
    Histogram,
    MetricsRegistry,
    ParseTelemetry,
    PredictEvent,
    TraceTelemetry,
)

SIMPLE = r"""
    grammar Simple;
    s : ID '=' INT ';' | 'print' ID ';' ;
    ID : [a-z]+ ;
    INT : [0-9]+ ;
    WS : [ \t\r\n]+ -> skip ;
"""

SYN = r"""
    grammar Syn;
    options { backtrack=true; }
    s : (t ';')+ ;
    t : '-'* ID | expr ;
    expr : INT | '-' expr ;
    ID : [a-z]+ ;
    INT : [0-9]+ ;
    WS : [ ]+ -> skip ;
"""


@pytest.fixture(scope="module")
def simple():
    return repro.compile_grammar(SIMPLE)


@pytest.fixture(scope="module")
def syn():
    from repro.analysis.construction import AnalysisOptions

    return repro.compile_grammar(SYN, options=AnalysisOptions(
        max_recursion_depth=1))


# -- metrics registry -----------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        m = MetricsRegistry()
        c = m.counter("x_total", "help text")
        c.inc()
        c.inc(4)
        assert m.value("x_total") == 5

    def test_same_name_same_labels_is_same_instance(self):
        m = MetricsRegistry()
        assert m.counter("a_total") is m.counter("a_total")
        assert m.counter("a_total", labels={"k": "1"}) is not m.counter("a_total")

    def test_type_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ValueError):
            m.gauge("x")

    def test_gauge_track_max(self):
        m = MetricsRegistry()
        g = m.gauge("peak")
        g.track_max(3)
        g.track_max(2)
        assert g.value == 3

    def test_histogram_buckets_sum_count_max(self):
        h = Histogram("k", buckets=(1, 2, 4))
        for v in (1, 1, 2, 3, 9):
            h.observe(v)
        assert h.count == 5
        assert h.sum == 16
        assert h.max == 9
        assert h.mean == pytest.approx(3.2)
        # cumulative le counts: <=1:2, <=2:3, <=4:4, +Inf:5
        assert h.cumulative() == [(1, 2), (2, 3), (4, 4), (float("inf"), 5)]

    def test_json_export_shape(self):
        m = MetricsRegistry()
        m.counter("c_total", "a counter", labels={"op": "hit"}).inc()
        m.histogram("h", "a histogram", buckets=(1, 2)).observe(2)
        doc = json.loads(m.to_json_text())
        assert doc["c_total"]["type"] == "counter"
        assert doc["c_total"]["samples"][0] == {
            "labels": {"op": "hit"}, "value": 1}
        sample = doc["h"]["samples"][0]
        assert sample["buckets"] == {"1": 0, "2": 1, "+Inf": 1}
        assert sample["count"] == 1 and sample["sum"] == 2

    def test_prometheus_text_parses(self):
        m = MetricsRegistry()
        m.counter("c_total", "a counter", labels={"op": "hit"}).inc(2)
        m.gauge("g", "a gauge").set(7)
        m.histogram("h", "a histogram", buckets=(1, 2)).observe(1.5)
        text = m.to_prometheus()
        metric_line = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"'
            r'(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9.eE+]+(inf)?$')
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ",
                                line), line
            else:
                assert metric_line.match(line), line
        assert 'c_total{op="hit"} 2' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1.5" in text
        assert "h_count 1" in text

    def test_histogram_bucket_counts_monotonic_in_export(self):
        m = MetricsRegistry()
        h = m.histogram("h", buckets=(1, 2, 4, 8))
        for v in (1, 3, 3, 5, 100):
            h.observe(v)
        counts = [n for _le, n in h.cumulative()]
        assert counts == sorted(counts)
        assert counts[-1] == h.count


# -- the facade ----------------------------------------------------------------------


class TestParseTelemetry:
    def test_event_list_is_bounded_with_drop_counter(self):
        tel = ParseTelemetry(max_events=3)
        for i in range(5):
            tel.record_predict(0, "s", 1, True, False, 0, i)
        assert len(tel.events) == 3
        assert tel.dropped_events == 2
        assert tel.metrics.value("llstar_predictions_total") == 5  # metrics never drop

    def test_capture_events_off_keeps_metrics(self):
        tel = ParseTelemetry(capture_events=False)
        tel.record_predict(0, "s", 2, False, True, 3, 0)
        assert tel.events == []
        assert tel.metrics.value("llstar_predictions_total") == 1

    def test_dfa_hit_rate(self):
        tel = ParseTelemetry()
        tel.record_predict(0, "s", 1, True, False, 0, 0)
        tel.record_predict(0, "s", 1, True, False, 0, 1)
        tel.record_predict(1, "t", 2, False, True, 2, 2)
        assert tel.dfa_hit_rate == pytest.approx(2 / 3)

    def test_spans_nest_and_aggregate(self):
        tel = ParseTelemetry()
        with tel.span("rule:outer"):
            with tel.span("synpred:inner"):
                pass
        spans = tel.events_by_kind("span")
        assert [s.name for s in spans] == ["synpred:inner", "rule:outer"]
        assert spans[0].depth == 1 and spans[1].depth == 0
        hist = tel.metrics.get("llstar_span_seconds", {"kind": "rule"})
        assert hist.count == 1

    def test_snapshot_is_json_safe(self):
        tel = ParseTelemetry()
        tel.record_recovery("panic", "s", 4, skipped=2)
        tel.record_cache("hit", "abc123")
        doc = json.loads(tel.to_json_text())
        assert doc["events"] == {"recovery": 1, "cache": 1}
        assert doc["dropped_events"] == 0

    def test_shared_across_threads_loses_nothing(self):
        tel = ParseTelemetry(capture_events=False)
        n, per = 8, 2000

        def hammer():
            for i in range(per):
                tel.record_predict(0, "s", 1, True, False, 0, i)

        threads = [threading.Thread(target=hammer) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tel.metrics.value("llstar_predictions_total") == n * per

    def test_span_depth_is_per_thread(self):
        """Regression: span nesting depth lived on the shared telemetry,
        so threads parsing concurrently pushed each other's spans deeper
        and a span opened afterwards no longer started at depth 0."""
        import sys

        from repro.grammars import load

        bench = load("rats_c")
        host = bench.compile()
        text = bench.generate_program(10, seed=3)

        def span_depths(tel):
            return [s.depth for s in tel.events_by_kind("span")]

        alone = ParseTelemetry(max_events=200_000)
        host.parse(text, options=ParserOptions(build_tree=False,
                                               telemetry=alone))
        deepest = max(span_depths(alone))

        shared = ParseTelemetry(max_events=200_000)
        threads = [threading.Thread(target=host.parse, args=(text,), kwargs={
            "options": ParserOptions(build_tree=False, telemetry=shared)})
            for _ in range(4)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert shared.metrics.value("llstar_synpred_invocations_total") == \
            4 * alone.metrics.value("llstar_synpred_invocations_total")
        assert max(span_depths(shared)) <= deepest
        with shared.span("compile:after") as handle:
            assert handle.depth == 0


# -- runtime wiring -------------------------------------------------------------------


class TestParserWiring:
    def test_predict_events_and_realized_k(self, simple):
        tel = ParseTelemetry()
        simple.parse("x = 42 ;", options=ParserOptions(telemetry=tel))
        profiler = tel.profiler
        events = tel.events_by_kind("predict")
        assert events and all(isinstance(e, PredictEvent) for e in events)
        hist = tel.metrics.get("llstar_realized_k")
        # The registry and the per-decision store see the same predictions.
        assert hist.count == profiler.total_events
        assert hist.sum == sum(s.sum_depth for s in profiler.stats.values())
        assert tel.dfa_hit_rate == 1.0

    def test_synpred_fallback_recorded(self, syn):
        tel = ParseTelemetry()
        syn.parse("- - 5 ;", options=ParserOptions(telemetry=tel))
        assert tel.metrics.value("llstar_atn_fallbacks_total") > 0
        assert tel.metrics.value("llstar_synpred_invocations_total") > 0
        reasons = {e.reason for e in tel.events_by_kind("dfa-fallback")}
        assert "synpred" in reasons
        assert tel.metrics.value("llstar_backtrack_events_total") > 0
        assert tel.metrics.get("llstar_backtrack_depth").count > 0
        # speculation spans are always timed
        assert any(s.name.startswith("synpred:")
                   for s in tel.events_by_kind("span"))

    def test_rule_spans_are_opt_in(self, simple):
        quiet = ParseTelemetry()
        simple.parse("x = 1 ;", options=ParserOptions(telemetry=quiet))
        assert not any(s.name.startswith("rule:")
                       for s in quiet.events_by_kind("span"))
        traced = ParseTelemetry(trace_rules=True)
        simple.parse("x = 1 ;", options=ParserOptions(telemetry=traced))
        assert any(s.name == "rule:s" for s in traced.events_by_kind("span"))
        assert traced.metrics.value("llstar_rule_invocations_total") == 1

    def test_trace_transcript_is_a_view_of_the_hooks(self, syn):
        """``TraceTelemetry`` renders rule spans, committed predictions
        and speculation spans; a speculation shows as its synpred span
        (matched, then FAILED), never as speculative rule entries."""
        trace = TraceTelemetry()
        syn.parse("- - x ; - - 5 ;", options=ParserOptions(telemetry=trace))
        assert trace.transcript() == "\n".join([
            "enter s @0",
            "  enter t @0",
            "    speculate synpred1 @0",
            "    end synpred1 @3",
            "    predict d1 k=2 (backtracked)",
            "    predict d2 k=1",
            "    predict d2 k=1",
            "    predict d2 k=1",
            "  exit t @3",
            "  predict d0 k=1",
            "  enter t @4",
            "    speculate synpred1 @4",
            "    end synpred1 @6 FAILED",
            "    predict d1 k=2 (backtracked)",
            "    enter expr @4",
            "      predict d3 k=1",
            "      enter expr @5",
            "        predict d3 k=1",
            "        enter expr @6",
            "          predict d3 k=1",
            "        exit expr @7",
            "      exit expr @7",
            "    exit expr @7",
            "  exit t @7",
            "  predict d0 k=1",
            "exit s @8",
        ])
        # The same telemetry kept the counters and per-decision store.
        assert trace.metrics.value("llstar_predictions_total") == 10
        assert trace.profiler.total_events == 10

    def test_trace_marks_a_recovered_rule_failed(self, syn):
        trace = TraceTelemetry()
        parser = syn.parser(syn.tokenize("- - ; x ;"), options=ParserOptions(
            recover=True, telemetry=trace))
        parser.parse()
        assert parser.errors
        assert "        exit expr @2 FAILED" in trace.lines
        assert "  exit t @2" in trace.lines

    def test_recovery_events(self, simple):
        tel = ParseTelemetry()
        parser = simple.parser(simple.tokenize("x = ;"),
                               options=ParserOptions(recover=True,
                                                     telemetry=tel))
        parser.parse()
        repairs = {e.repair for e in tel.events_by_kind("recovery")}
        assert "insert" in repairs
        assert tel.metrics.value("llstar_recovery_events_total",
                                 {"kind": "insert"}) == 1

    def test_panic_recovery_counts_skipped_tokens(self, simple):
        tel = ParseTelemetry()
        parser = simple.parser(simple.tokenize("x x x x ;"),
                               options=ParserOptions(recover=True,
                                                     telemetry=tel))
        parser.parse()
        assert parser.errors
        total = sum(e.skipped for e in tel.events_by_kind("recovery"))
        assert total > 0
        assert tel.metrics.value(
            "llstar_recovery_tokens_skipped_total") == total

    def test_streaming_peak_window_gauge(self, simple):
        tel = ParseTelemetry()
        tokens = iter(simple.lexer_spec.tokenizer("x = 42 ;"))
        stream = StreamingTokenStream(tokens, telemetry=tel)
        parser = LLStarParser(simple.analysis, stream,
                              ParserOptions(telemetry=tel))
        parser.parse()
        peak = tel.metrics.value("llstar_stream_peak_window")
        assert peak == stream.peak_buffered
        assert peak >= 1


class TestCacheWiring:
    def test_cold_then_warm_compile_events(self, tmp_path):
        tel = ParseTelemetry()
        host = repro.compile_grammar(SIMPLE, cache_dir=str(tmp_path),
                                     telemetry=tel)
        assert not host.from_cache
        ops = [e.operation for e in tel.events_by_kind("cache")]
        # One save: the entry is a single ``.llt`` image.
        assert ops == ["miss", "save"]
        warm = repro.compile_grammar(SIMPLE, cache_dir=str(tmp_path),
                                     telemetry=tel)
        assert warm.from_cache
        assert tel.metrics.value("llstar_cache_events_total",
                                 {"op": "hit"}) == 1
        # compile spans bracket both compiles
        assert len([s for s in tel.events_by_kind("span")
                    if s.name.startswith("compile:")]) == 2

    def test_corrupt_entry_emits_diagnostic_event(self, tmp_path):
        import glob
        import os

        tel = ParseTelemetry()
        repro.compile_grammar(SIMPLE, cache_dir=str(tmp_path))
        entry, = glob.glob(os.path.join(str(tmp_path), "*.llt"))
        with open(entry, "w") as f:
            f.write("{ truncated")
        host = repro.compile_grammar(SIMPLE, cache_dir=str(tmp_path),
                                     telemetry=tel)
        assert not host.from_cache
        ops = [e.operation for e in tel.events_by_kind("cache")]
        assert "corrupt" in ops and "evict" in ops and "save" in ops


class TestDegradationWiring:
    def test_degraded_decision_counted(self):
        # Strip one decision's table to force a parse-time rebuild.
        host = repro.compile_grammar(SIMPLE)
        record = host.analysis.records[0]
        record.table = None  # as a salvaged-cache degraded record would be
        tel = ParseTelemetry()
        host.parse("x = 1 ;", options=ParserOptions(telemetry=tel))
        assert tel.metrics.value("llstar_degradations_total") == 1
        reasons = {e.reason for e in tel.events_by_kind("dfa-fallback")}
        assert "degraded" in reasons


class TestMetricsRegistryMergeEdgeCases:
    """Degenerate merge shapes the batch fold must survive: empty
    registries on either side, metrics present in only one registry,
    self-merge, and bucket-layout mismatches against default layouts."""

    def test_empty_into_empty_is_a_noop(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.merge(b)
        assert a.names() == []

    def test_empty_other_leaves_target_unchanged(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        a.gauge("g").set(7)
        a.histogram("h").observe(2)
        a.merge(b)
        assert a.value("c") == 3
        assert a.value("g") == 7
        assert a.get("h").count == 1

    def test_single_sided_metrics_survive_both_directions(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("only_a").inc(1)
        b.counter("only_b").inc(2)
        b.histogram("h_only_b").observe(4)
        a.merge(b)
        assert a.value("only_a") == 1  # untouched by the merge
        assert a.value("only_b") == 2  # copied over
        assert a.get("h_only_b").count == 1
        assert "only_a" not in b.names()  # other side never mutated

    def test_merge_into_itself_raises(self):
        a = MetricsRegistry()
        a.counter("c").inc(5)
        with pytest.raises(ValueError):
            a.merge(a)
        assert a.value("c") == 5  # nothing double-counted

    def test_default_vs_custom_bucket_layout_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").observe(1)  # default K_BUCKETS layout
        b.histogram("h", buckets=(1, 2, 3)).observe(1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_custom_layout_absent_on_target_is_adopted_then_enforced(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("h", buckets=(1, 2, 3)).observe(2)
        a.merge(b)
        assert a.get("h").bounds == b.get("h").bounds
        c = MetricsRegistry()
        c.histogram("h", buckets=(10, 20)).observe(1)
        with pytest.raises(ValueError):
            a.merge(c)
