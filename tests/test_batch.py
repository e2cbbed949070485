"""Batch engine: pool warm-start, per-input isolation, aggregation.

The merge primitives (MetricsRegistry.merge, DecisionProfiler.merge) are
unit-tested here too, since the corpus report is only as trustworthy as
the fold that builds it.
"""

import json
import os
import pickle

import pytest

from repro.batch import BatchEngine, parse_corpus
from repro.exceptions import LLStarError
from repro.runtime.budget import ParserBudget
from repro.runtime.parser import ParserOptions
from repro.runtime.profiler import DecisionProfiler
from repro.runtime.telemetry import MetricsRegistry, ParseTelemetry
from repro.runtime.trees import TreeBuilder
from repro.tools import cli

GRAMMAR = r"""
grammar BatchCalc;
s : stmt+ ;
stmt : ID '=' expr ';' ;
expr : term (('+'|'-') term)* ;
term : ID | INT | '(' expr ')' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""

GOOD = [("in%d" % i, "x%s = %d + (y + %d);" % ("abcdefghij"[i], i, i * 7))
        for i in range(10)]
BAD = ("broken", "z = ;")  # no viable term
DEEP = ("deep", "w = %s1%s;" % ("(" * 60, ")" * 60))  # blows a rule-depth budget


def counter_value(metrics, name, labels=None):
    return metrics.value(name, labels)


class TestBatchEngine:
    def test_inline_and_pool_agree(self):
        corpus = GOOD + [BAD]
        inline = parse_corpus(GRAMMAR, corpus, jobs=0)
        pooled = parse_corpus(GRAMMAR, corpus, jobs=2)
        assert [(r.input_id, r.ok, r.error_type, r.tokens)
                for r in inline.results] == \
               [(r.input_id, r.ok, r.error_type, r.tokens)
                for r in pooled.results]
        assert inline.ok_count == pooled.ok_count == len(GOOD)
        assert inline.total_tokens == pooled.total_tokens > 0

    def test_results_preserve_submission_order(self):
        report = parse_corpus(GRAMMAR, GOOD, jobs=2, chunk_size=1)
        assert [r.input_id for r in report.results] == [i for i, _ in GOOD]

    def test_one_bad_input_fails_alone(self):
        report = parse_corpus(GRAMMAR, GOOD + [BAD] + GOOD[:2], jobs=2)
        assert report.total == len(GOOD) + 3
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.input_id == "broken"
        assert failure.error_type == "NoViableAltError"
        assert "no viable alternative" in failure.error

    def test_budget_blowup_is_per_input(self):
        budget = ParserBudget(max_rule_depth=20)
        report = parse_corpus(GRAMMAR, GOOD + [DEEP], jobs=2, budget=budget)
        assert report.ok_count == len(GOOD)
        failure = report.failures[0]
        assert failure.input_id == "deep"
        assert failure.error_type == "BudgetExceededError"

    def test_lexer_start_rule_fails_every_row_typed(self):
        """Regression: a lexer-rule start rule raised KeyError out of
        ``run``; every row now fails with a typed GrammarError."""
        report = BatchEngine(GRAMMAR, jobs=0, rule_name="ID").run(GOOD[:3])
        assert [(r.ok, r.error_type) for r in report.results] == \
            [(False, "GrammarError")] * 3
        assert "ID is a lexer rule" in report.results[0].error

    def test_lexer_failure_is_per_input(self):
        report = parse_corpus(GRAMMAR, GOOD[:3] + [("nonascii", "x = Δ;")],
                              jobs=0)
        assert report.ok_count == 3
        assert report.failures[0].error_type == "LexerError"

    def test_corpus_counters(self):
        report = parse_corpus(GRAMMAR, GOOD + [BAD], jobs=2)
        metrics = report.metrics
        assert counter_value(metrics, "llstar_batch_inputs_total",
                             {"status": "ok"}) == len(GOOD)
        assert counter_value(metrics, "llstar_batch_inputs_total",
                             {"status": "failed"}) == 1
        assert counter_value(metrics, "llstar_batch_tokens_total") \
            == report.total_tokens
        assert counter_value(metrics, "llstar_batch_chunks_total") \
            == report.chunks
        assert metrics.value("llstar_batch_workers") == 2
        latency = metrics.get("llstar_batch_input_seconds")
        assert latency.count == report.total

    def test_merged_metrics_equal_serial_sums(self):
        """Deterministic fixture: the corpus-merged registry must equal a
        single-process replay of the same inputs, metric for metric."""
        report = parse_corpus(GRAMMAR, GOOD, jobs=2, chunk_size=3)
        telemetry = ParseTelemetry(capture_events=False)
        profiler = telemetry.profiler
        host = BatchEngine(GRAMMAR, jobs=0).host
        for _, text in GOOD:
            host.parse(text, options=ParserOptions(telemetry=telemetry))
        for name in ("llstar_predictions_total", "llstar_dfa_hits_total",
                     "llstar_rule_invocations_total"):
            assert report.metrics.value(name) == telemetry.metrics.value(name)
        merged_k = report.metrics.get("llstar_realized_k")
        serial_k = telemetry.metrics.get("llstar_realized_k")
        assert merged_k.counts == serial_k.counts
        assert merged_k.count == serial_k.count
        assert merged_k.sum == serial_k.sum
        # Profiler fold: same totals and identical per-decision stats.
        assert report.profiler.total_events == profiler.total_events
        assert set(report.profiler.stats) == set(profiler.stats)
        for decision, mine in profiler.stats.items():
            theirs = report.profiler.stats[decision]
            assert (theirs.events, theirs.sum_depth, theirs.max_depth,
                    theirs.backtrack_events) == \
                   (mine.events, mine.sum_depth, mine.max_depth,
                    mine.backtrack_events)

    def test_cache_dir_warm_start(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = BatchEngine(GRAMMAR, jobs=1, cache_dir=cache)
        report = first.run(GOOD[:4])
        assert report.ok_count == 4
        # The parent's compile persisted the artifact; a second engine
        # (and every pool worker) warm-starts from it.
        second = BatchEngine(GRAMMAR, jobs=1, cache_dir=cache)
        assert second.host.from_cache
        assert second.run(GOOD[:4]).ok_count == 4

    def test_cache_dir_workers_get_slim_initargs(self, tmp_path):
        """With a cache directory a unit of work ships neither the
        grammar text nor the artifact payload — only the artifact key —
        and every worker boots by mmap-ing the shared ``.llt`` image."""
        from repro.batch.worker import ChunkTask

        cache = str(tmp_path / "cache")
        engine = BatchEngine(GRAMMAR, jobs=2, cache_dir=cache)
        unit = pickle.dumps((cache, engine._grammar.boot,
                             ChunkTask(GOOD[:2], **engine._settings)))
        assert len(unit) < 1024  # key + flags + inputs, not tables
        assert b"grammar BatchCalc" not in unit
        report = engine.run(GOOD)
        assert report.ok_count == len(GOOD)

    def test_slim_worker_boot_matches_payload_mode(self, tmp_path):
        cache = str(tmp_path / "cache")
        slim = parse_corpus(GRAMMAR, GOOD + [BAD], jobs=2, cache_dir=cache)
        shipped = parse_corpus(GRAMMAR, GOOD + [BAD], jobs=2)
        assert [(r.input_id, r.ok, r.error_type, r.tokens)
                for r in slim.results] == \
               [(r.input_id, r.ok, r.error_type, r.tokens)
                for r in shipped.results]

    def test_unwritable_cache_dir_falls_back_to_shipping_text(self, tmp_path,
                                                              monkeypatch):
        """No image can exist in the cache directory, so the pooled run
        publishes one into a private directory and the workers boot from
        that: no pool death, no inline fallback."""
        from repro.pool import WorkerPool

        image_dirs = []
        image_dir = WorkerPool._image_dir

        def recording_image_dir(pool, grammar, host):
            image_dirs.append(image_dir(pool, grammar, host))
            return image_dirs[-1]

        monkeypatch.setattr(WorkerPool, "_image_dir", recording_image_dir)
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        engine = BatchEngine(GRAMMAR, jobs=1, cache_dir=str(blocker))
        report = engine.run(GOOD[:3])
        assert report.ok_count == 3
        assert report.pool_rebuilds == 0 and not report.degraded_to_inline
        assert all(r.worker_pid != os.getpid() for r in report.results)
        (private,) = set(image_dirs)
        assert private != str(blocker)
        assert not os.path.exists(private)  # the pool removed it on close

    def test_inline_engine_builds_nothing_for_workers(self, monkeypatch):
        from repro.analysis.decisions import AnalysisResult

        def serialize(self):
            raise AssertionError("jobs=0 serialized the artifact")

        monkeypatch.setattr(AnalysisResult, "to_dict", serialize)
        report = BatchEngine(GRAMMAR, jobs=0).run(GOOD)
        assert report.ok_count == len(GOOD)

    def test_recover_mode_reports_repaired_inputs(self):
        report = parse_corpus(GRAMMAR, [("fixable", "x = 1 + ; y = 2;")],
                              jobs=0, recover=True)
        failure = report.results[0]
        assert not failure.ok
        assert "recovered syntax error" in failure.error

    def test_report_json_shape(self):
        report = parse_corpus(GRAMMAR, GOOD[:3] + [BAD], jobs=0)
        doc = report.to_json()
        json.dumps(doc)  # JSON-safe end to end
        assert doc["inputs"] == 4 and doc["ok"] == 3 and doc["failed"] == 1
        assert doc["total_tokens"] == report.total_tokens
        assert doc["metrics"]["llstar_batch_inputs_total"]["type"] == "counter"

    def test_profile_report_over_corpus(self):
        report = parse_corpus(GRAMMAR, GOOD, jobs=0)
        profile = report.profile_report()
        assert profile.total_events == report.profiler.total_events
        assert profile.avg_k >= 1.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            BatchEngine(GRAMMAR, jobs=-1)
        with pytest.raises(ValueError):
            BatchEngine(GRAMMAR, chunk_size=0)


def tree_building_row(host, text, recover):
    """The row a tree-building parse of ``text`` implies, in the
    ``(ok, error_type, error, tokens)`` form of a BatchResult."""
    tokens = 0
    try:
        stream = host.tokenize(text)
        tokens = len(stream.tokens()) - 1  # minus EOF
        parser = host.parser(stream, options=ParserOptions(recover=recover))
        assert parser.parse() is not None
    except LLStarError as e:
        return (False, type(e).__name__, str(e), tokens)
    if parser.errors:
        return (False, "RecognitionError",
                "%d recovered syntax error(s); first: %s"
                % (len(parser.errors), parser.errors[0]), tokens)
    return (True, None, None, tokens)


class TestTreeFreeBatch:
    """Batch rows carry no tree, so workers parse without building one;
    every row must still match what a tree-building parse reports."""

    INVALID = [BAD, ("nonascii", "x = Δ;"), ("truncated", "x = (1 + 2")]
    # Panic-mode resyncs plus single-token insertion ("missing-eq",
    # "unclosed") and deletion ("stray-paren") repairs.
    REPAIRABLE = [("fixable", "x = 1 + ; y = 2;"),
                  ("missing-semi", "x = 1 y = 2;"),
                  ("extra-token", "x = = 1; y = 2;"),
                  ("missing-eq", "x = 1; y 2;"),
                  ("stray-paren", "x = 1 ) ; y = 2;"),
                  ("unclosed", "x = (1 + 2 ;")]

    @pytest.mark.parametrize("recover", [False, True])
    def test_rows_match_tree_building_parse_without_trees(self, monkeypatch,
                                                          recover):
        corpus = GOOD + self.INVALID + self.REPAIRABLE
        engine = BatchEngine(GRAMMAR, jobs=0, recover=recover)
        calls = []
        original = TreeBuilder.open_rule

        def counting_open_rule(builder, *args):
            calls.append(args)
            return original(builder, *args)

        monkeypatch.setattr(TreeBuilder, "open_rule", counting_open_rule)
        report = engine.run(corpus)
        assert calls == []
        expected = [tree_building_row(engine.host, text, recover)
                    for _, text in corpus]
        assert calls  # the oracle really built trees
        assert [(r.ok, r.error_type, r.error, r.tokens)
                for r in report.results] == expected
        assert report.ok_count == len(GOOD)
        if recover:
            assert all("recovered syntax error" in r.error
                       for r in report.results[-len(self.REPAIRABLE):])


class TestMetricsRegistryMerge:
    def test_counters_sum_per_label(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("events", "help", {"kind": "x"}).inc(3)
        b.counter("events", "help", {"kind": "x"}).inc(4)
        b.counter("events", "help", {"kind": "y"}).inc(5)
        a.merge(b)
        assert a.value("events", {"kind": "x"}) == 7
        assert a.value("events", {"kind": "y"}) == 5

    def test_gauges_take_high_water_mark(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("peak").set(10)
        b.gauge("peak").set(4)
        a.merge(b)
        assert a.value("peak") == 10
        b.gauge("peak").set(25)
        a.merge(b)
        assert a.value("peak") == 25

    def test_histograms_fold_counts_sum_and_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (1, 2, 8):
            a.histogram("k").observe(v)
        for v in (3, 64):
            b.histogram("k").observe(v)
        a.merge(b)
        h = a.get("k")
        assert h.count == 5 and h.sum == 78 and h.max == 64
        assert sum(h.counts) == 5

    def test_merge_into_empty_copies_everything(self):
        b = MetricsRegistry()
        b.counter("c").inc(2)
        b.histogram("h", buckets=(1, 2)).observe(2)
        a = MetricsRegistry()
        a.merge(b)
        assert a.value("c") == 2
        assert a.get("h").bounds == b.get("h").bounds
        # and the copy is independent
        a.counter("c").inc()
        assert b.value("c") == 2

    def test_type_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m")
        b.gauge("m")
        with pytest.raises(ValueError):
            a.merge(b)

    def test_histogram_bounds_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b.histogram("h", buckets=(1, 4)).observe(1)
        with pytest.raises(ValueError):
            a.merge(b)


class TestDecisionProfilerMerge:
    def test_merge_sums_and_maxes(self):
        a, b = DecisionProfiler(), DecisionProfiler()
        a.record(0, 2)
        a.record(0, 4, backtracked=True, backtrack_depth=6)
        b.record(0, 10)
        b.record(1, 1)
        a.merge(b)
        assert a.total_events == 4
        assert a.stats[0].events == 3
        assert a.stats[0].max_depth == 10
        assert a.stats[0].backtrack_events == 1
        assert a.stats[1].events == 1

    def test_profiler_pickles_without_lock(self):
        p = DecisionProfiler()
        p.record(2, 3)
        clone = pickle.loads(pickle.dumps(p))
        assert clone.stats[2].events == 1
        clone.record(2, 5)  # the restored lock works
        assert clone.stats[2].events == 2


class TestBatchCli:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        grammar = tmp_path / "calc.g"
        grammar.write_text(GRAMMAR)
        paths = []
        for input_id, text in GOOD[:4]:
            p = tmp_path / ("%s.txt" % input_id)
            p.write_text(text)
            paths.append(str(p))
        return tmp_path, str(grammar), paths

    def test_batch_ok_exit_and_metrics(self, corpus_dir, capsys):
        tmp_path, grammar, paths = corpus_dir
        metrics_path = str(tmp_path / "merged.json")
        code = cli.main(["batch", grammar, *paths, "--jobs", "2",
                         "--metrics-out", metrics_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "parsed 4/4 inputs ok" in out
        doc = json.loads(open(metrics_path).read())
        assert doc["llstar_batch_inputs_total"]["type"] == "counter"
        assert doc["llstar_predictions_total"]["samples"][0]["value"] > 0

    def test_batch_failure_exit_code(self, corpus_dir, capsys):
        tmp_path, grammar, paths = corpus_dir
        bad = tmp_path / "bad.txt"
        bad.write_text("z = ;")
        code = cli.main(["batch", grammar, *paths, str(bad), "--jobs", "0"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_batch_json_document(self, corpus_dir, capsys):
        _, grammar, paths = corpus_dir
        code = cli.main(["batch", grammar, *paths, "--jobs", "0", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] == 4 and doc["failed"] == 0

    def test_batch_defensive_budget_flag(self, corpus_dir, tmp_path, capsys):
        _, grammar, paths = corpus_dir
        deep = tmp_path / "deep.txt"
        deep.write_text(DEEP[1])
        code = cli.main(["batch", grammar, *paths, str(deep),
                         "--jobs", "0", "--defensive"])
        # defensive budget allows depth 400; this input is fine
        assert code == 0
        assert "parsed 5/5" in capsys.readouterr().out


class TestWorkerCrashRecovery:
    """Worker death must cost at most the in-flight chunk retries, never
    the corpus: rebuild the pool once, re-run what broke, and if the
    rebuilt pool dies too, finish inline with typed per-input failures."""

    def kill_chaos(self, *ids):
        from repro.runtime.chaos import ServiceChaos

        return ServiceChaos(kill_ids=set(ids))

    @pytest.mark.chaos
    def test_pool_kill_rebuilds_then_degrades_inline(self):
        engine = BatchEngine(GRAMMAR, jobs=2, chunk_size=1,
                             chaos=self.kill_chaos("in3"))
        report = engine.run(GOOD)
        assert report.total == len(GOOD)
        assert report.ok_count == len(GOOD) - 1
        assert [r.input_id for r in report.results] == [i for i, _ in GOOD]
        (failure,) = report.failures
        assert failure.input_id == "in3"
        assert failure.error_type == "WorkerCrashError"
        # One rebuild was attempted; the retried chunk met the same
        # deterministic fault, so the run finished inline.
        assert report.pool_rebuilds == 1
        assert report.degraded_to_inline is True
        assert counter_value(report.metrics,
                             "llstar_batch_pool_rebuilds_total") == 1
        assert counter_value(report.metrics,
                             "llstar_batch_pool_degraded") == 1
        doc = report.to_json()
        assert doc["pool_rebuilds"] == 1 and doc["degraded_to_inline"] is True

    @pytest.mark.chaos
    def test_inline_kill_is_a_typed_row_not_process_death(self):
        report = BatchEngine(GRAMMAR, jobs=0,
                             chaos=self.kill_chaos("in2", "in5")).run(GOOD)
        failed = {r.input_id: r.error_type for r in report.failures}
        assert failed == {"in2": "WorkerCrashError",
                          "in5": "WorkerCrashError"}
        assert report.ok_count == len(GOOD) - 2
        assert report.pool_rebuilds == 0
        assert report.degraded_to_inline is False

    def test_crash_free_pool_run_reports_no_rebuilds(self):
        report = parse_corpus(GRAMMAR, GOOD, jobs=2)
        assert report.pool_rebuilds == 0
        assert report.degraded_to_inline is False
        assert counter_value(report.metrics,
                             "llstar_batch_pool_degraded") == 0
