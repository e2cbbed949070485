"""Structured parse-time observability: the one observer a parser talks to.

The paper's evaluation (Tables 2-4) is built on instrumenting prediction
— lookahead depth, backtracking frequency, DFA coverage.
:class:`ParseTelemetry` receives every committed prediction, rule
invocation, speculation, repair and degradation, and keeps each fact in
one place:

* **Per-decision store** — :attr:`ParseTelemetry.profiler`, the
  :class:`~repro.runtime.profiler.DecisionProfiler` behind Tables 3-4;
  :meth:`ParseTelemetry.report` is the paper-table view over it.
* **Metrics** — :class:`MetricsRegistry` holds counters, gauges, and
  histograms (DFA hit vs ATN-fallback rate, realized-k distribution,
  recovery attempts, cache hit/miss/evict, peak streaming window) and
  exports them as JSON or Prometheus text exposition format.
* **Spans** — wall-clock timing for rule invocation and synpred
  speculation (:meth:`ParseTelemetry.span`), aggregated into per-kind
  latency histograms.
* **Trace** — :class:`TraceTelemetry` renders rule spans, predictions
  and speculation spans, indented by their per-thread nesting depth, as
  the ``llstar parse --trace`` transcript.

The details of one occurrence stay with the component that owns it:
a repair in ``parser.errors`` and the tree's error nodes, a cache
operation in ``ArtifactStore.diagnostics``, a degradation in
``parser.degradations``, grafts in ``parser.reused_nodes`` and
``EditSession.stats``.

Attach one via ``ParserOptions(telemetry=...)`` /
``compile_grammar(telemetry=...)`` or the CLI's ``--metrics-out``.
Every hook is a no-op ``None`` check when telemetry is not attached
(``benchmarks/test_telemetry_overhead.py`` bounds the cost).  ``record_*``
methods take one internal lock, so one telemetry object can observe
concurrent parses of a batch without losing counts.

A parser does not call a hook per prediction, rule or speculation: it
counts them in its own :class:`ParseTally`, without a lock, and
:meth:`ParseTelemetry.record_parse` folds the tally in once, when the
parse returns or raises.  Only a :class:`TraceTelemetry`, whose
transcript is an ordering, gets each prediction and speculation as it
happens (:attr:`ParseTelemetry.per_event`).  Both paths add predictions
through one routine, so the aggregates they leave are identical.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.profiler import DecisionProfiler, ProfileReport

__all__ = [
    "Counter",
    "DegradationEvent",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ParseTally",
    "ParseTelemetry",
    "TraceTelemetry",
]


class DegradationEvent:
    """One graceful-degradation occurrence: a decision ran without its
    precomputed artifact (e.g. the cached DFA was corrupt) and the
    runtime fell back to on-the-fly analysis instead of failing.
    ``parser.degradations`` and ``ParseService.events`` hold them."""

    __slots__ = ("decision", "rule_name", "reason")

    def __init__(self, decision: int, rule_name: str, reason: str):
        self.decision = decision
        self.rule_name = rule_name
        self.reason = reason

    def __repr__(self):
        return "DegradationEvent(d%d in %s: %s)" % (
            self.decision, self.rule_name, self.reason)


class _OpenSpan:
    """Handle returned by :meth:`ParseTelemetry.start_span`; ``depth``
    is its nesting level in a :class:`TraceTelemetry` (0 elsewhere)."""

    __slots__ = ("name", "started", "depth")

    def __init__(self, name: str, started: float, depth: int = 0):
        self.name = name
        self.started = started
        self.depth = depth


# -- metrics -------------------------------------------------------------------------


class Counter:
    """Monotonically increasing count."""

    metric_type = "counter"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: Optional[dict] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else {}
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another worker's count into this one (sum)."""
        self.value += other.value

    def sample(self) -> dict:
        return {"labels": self.labels, "value": self.value}


class Gauge:
    """A value that can move both ways; ``track_max`` keeps high-water
    marks (peak streaming window)."""

    metric_type = "gauge"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: Optional[dict] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else {}
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def track_max(self, value) -> None:
        if value > self.value:
            self.value = value

    def merge(self, other: "Gauge") -> None:
        """Fold another worker's gauge into this one.  Every gauge this
        runtime exports is a high-water mark, so merge takes the max."""
        self.track_max(other.value)

    def sample(self) -> dict:
        return {"labels": self.labels, "value": self.value}


#: Default histogram buckets for token-count distributions (realized k,
#: speculation depth): fine near the paper's observed 1-2 token regime,
#: coarse in the pathological tail.
K_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 32, 64)

#: Default buckets for span latencies, in seconds.
LATENCY_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

_INF = float("inf")


class Histogram:
    """Fixed-bucket histogram with sum/count/max.

    Buckets are upper bounds (Prometheus ``le`` semantics); an implicit
    ``+Inf`` bucket catches the tail.  ``max`` is tracked exactly so
    Table-3-style ``max k`` never loses precision to bucketing.
    """

    metric_type = "histogram"
    __slots__ = ("name", "help", "labels", "bounds", "counts", "sum",
                 "count", "max")

    def __init__(self, name: str, help: str = "", labels: Optional[dict] = None,
                 buckets: Tuple[float, ...] = K_BUCKETS):
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else {}
        self.bounds = tuple(sorted(buckets)) + (_INF,)
        self.counts = [0] * len(self.bounds)
        self.sum = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value, n: int = 1) -> None:
        """Observe ``value`` ``n`` times."""
        self.counts[bisect_left(self.bounds, value)] += n
        self.sum += value * n
        self.count += n
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another worker's histogram into this one: bucket counts,
        sum, and count add; max takes the max.  Bucket bounds must match
        exactly — merging across layouts would silently misbucket."""
        if other.bounds != self.bounds:
            raise ValueError("histogram %r bucket bounds differ: %r vs %r"
                             % (self.name, self.bounds, other.bounds))
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count
        if other.max > self.max:
            self.max = other.max

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs, Prometheus-style."""
        out, running = [], 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        return out

    def sample(self) -> dict:
        return {"labels": self.labels,
                "buckets": {_format_bound(b): n for b, n in self.cumulative()},
                "sum": self.sum, "count": self.count, "max": self.max}


def _format_bound(bound: float) -> str:
    if bound == _INF:
        return "+Inf"
    if float(bound) == int(bound):
        return str(int(bound))
    return repr(float(bound))


def _label_key(labels: Optional[dict]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((labels or {}).items()))


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join('%s="%s"' % (k, str(v).replace("\\", "\\\\").replace('"', '\\"'))
                     for k, v in sorted(labels.items()))
    return "{%s}" % inner


class MetricsRegistry:
    """A named collection of metrics with JSON and Prometheus export.

    One metric *name* maps to one type/help and any number of labelled
    instances; asking again for the same ``(name, labels)`` returns the
    existing instance, so call sites never need to pre-register.
    """

    def __init__(self):
        self._metrics: Dict[Tuple[str, tuple], Any] = {}
        self._meta: Dict[str, Tuple[type, str]] = {}

    def _get(self, cls, name: str, help: str, labels: Optional[dict], **kwargs):
        meta = self._meta.get(name)
        if meta is not None and meta[0] is not cls:
            raise ValueError("metric %r already registered as %s"
                             % (name, meta[0].metric_type))
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, help=help, labels=labels,
                                              **kwargs)
            if meta is None:
                self._meta[name] = (cls, help)
        return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[dict] = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[dict] = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[dict] = None,
                  buckets: Tuple[float, ...] = K_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, instance by instance.

        This is the corpus-aggregation primitive behind
        :mod:`repro.batch`: every pool worker fills its own registry and
        the parent merges the snapshots into one corpus-level registry.
        Counters and histograms sum; gauges (all high-water marks here)
        take the max; a name registered under a different metric type (or
        a histogram with different bucket bounds) raises ``ValueError``
        rather than aggregating apples into oranges.  ``other`` is left
        untouched.  Merging a registry into itself would double every
        counter and histogram, so it raises ``ValueError``.
        """
        if other is self:
            raise ValueError("cannot merge a MetricsRegistry into itself")
        for (name, _), metric in sorted(other._metrics.items(),
                                        key=lambda kv: kv[0]):
            cls, help_text = other._meta[name]
            kwargs = {}
            if isinstance(metric, Histogram):
                kwargs["buckets"] = metric.bounds[:-1]  # drop implicit +Inf
            mine = self._get(cls, name, help_text, metric.labels, **kwargs)
            mine.merge(metric)

    # -- introspection ---------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._meta)

    def get(self, name: str, labels: Optional[dict] = None):
        """The metric instance for ``(name, labels)``, or None."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, labels: Optional[dict] = None, default=0):
        """Counter/gauge value (testing convenience)."""
        metric = self.get(name, labels)
        return default if metric is None else metric.value

    # -- exporters -------------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-safe snapshot: ``{name: {type, help, samples: [...]}}``."""
        out: Dict[str, dict] = {}
        for (name, _), metric in sorted(self._metrics.items(),
                                        key=lambda kv: kv[0]):
            entry = out.setdefault(name, {
                "type": metric.metric_type,
                "help": self._meta[name][1],
                "samples": [],
            })
            entry["samples"].append(metric.sample())
        return out

    def to_json_text(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        seen: set = set()
        for (name, _), metric in sorted(self._metrics.items(),
                                        key=lambda kv: kv[0]):
            if name not in seen:
                seen.add(name)
                help_text = self._meta[name][1]
                if help_text:
                    lines.append("# HELP %s %s" % (name, help_text))
                lines.append("# TYPE %s %s" % (name, metric.metric_type))
            if isinstance(metric, Histogram):
                for bound, running in metric.cumulative():
                    labels = dict(metric.labels, le=_format_bound(bound))
                    lines.append("%s_bucket%s %d"
                                 % (name, _format_labels(labels), running))
                lines.append("%s_sum%s %s" % (name, _format_labels(metric.labels),
                                              _format_number(metric.sum)))
                lines.append("%s_count%s %d" % (name, _format_labels(metric.labels),
                                                metric.count))
            else:
                lines.append("%s%s %s" % (name, _format_labels(metric.labels),
                                          _format_number(metric.value)))
        return "\n".join(lines) + "\n"


def _format_number(value) -> str:
    if isinstance(value, int):
        return str(value)
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


# -- the facade ----------------------------------------------------------------------


class ParseTally:
    """What one parse reports, counted by the parser that owns it.

    A parser belongs to one thread, so it counts here without a lock;
    :meth:`ParseTelemetry.record_parse` folds the tally in, under the
    telemetry's lock, when the parse ends.  The counts are exactly what
    the per-event hooks would have recorded:

    * ``dfa_k1`` — one-token DFA predictions, by decision (most
      predictions: one list increment each);
    * ``predictions`` — every other prediction, one count per distinct
      ``(decision, k, backtracked, backtrack_depth, fallbacks)``;
    * ``rules`` — committed rule invocations;
    * ``synpreds_matched`` / ``synpreds_failed`` — speculation outcomes,
      and ``synpred_seconds`` the duration of each speculation, in the
      order they ended (empty when speculations were timed as spans).
    """

    __slots__ = ("dfa_k1", "predictions", "rules", "synpreds_matched",
                 "synpreds_failed", "synpred_seconds")

    def __init__(self, n_decisions: int):
        self.dfa_k1 = [0] * n_decisions
        self.predictions: Dict[tuple, int] = {}
        self.rules = 0
        self.synpreds_matched = 0
        self.synpreds_failed = 0
        self.synpred_seconds: List[float] = []

    def clear(self) -> None:
        self.dfa_k1 = [0] * len(self.dfa_k1)
        self.predictions = {}
        self.rules = self.synpreds_matched = self.synpreds_failed = 0
        self.synpred_seconds = []


class ParseTelemetry:
    """Observability hub threaded through the runtime and cache.

    It keeps metrics (counters, gauges, histograms) and the
    per-decision store, nothing else.  ``trace_rules`` additionally opens a span per rule invocation
    — precise but hot, so it is opt-in; speculations are always timed
    (speculation is the expensive path worth timing).  All ``record_*``
    entry points (and :attr:`profiler`) are serialized by one lock, so a
    telemetry shared across threads never drops counts.  A parser reports
    a whole parse in one :meth:`record_parse`.
    """

    #: Whether a parser must deliver each prediction and speculation as
    #: it happens (:meth:`record_predict`, :meth:`start_span`) instead of
    #: tallying them for :meth:`record_parse`: only where their order is
    #: observable, as it is in a :class:`TraceTelemetry`.
    per_event = False

    def __init__(self, trace_rules: bool = False, clock=time.perf_counter):
        self.metrics = MetricsRegistry()
        #: Tables 3-4's per-decision store, fed by :meth:`record_predict`
        #: and :meth:`record_parse`.
        self.profiler = DecisionProfiler()
        self.trace_rules = trace_rules
        #: Times spans and speculations (seconds).
        self.clock = clock
        self._lock = self.profiler._lock
        # Labelled metrics by (name, label value or span kind), cached
        # at first use, never before: an unused label exports no sample.
        self._labelled: Dict[Tuple[str, str], Any] = {}
        m = self.metrics
        # Pre-resolved hot-path handles (no registry lookup per event).
        self._predictions = m.counter(
            "llstar_predictions_total", "adaptive-prediction events")
        self._dfa_hits = m.counter(
            "llstar_dfa_hits_total",
            "predictions resolved by the lookahead DFA alone")
        self._fallbacks = m.counter(
            "llstar_atn_fallbacks_total",
            "predictions that left the DFA for predicate/synpred evaluation")
        self._realized_k = m.histogram(
            "llstar_realized_k", "lookahead depth per prediction (tokens)",
            buckets=K_BUCKETS)
        self._backtracks = m.counter(
            "llstar_backtrack_events_total",
            "predictions that launched speculative sub-parses")
        self._backtrack_depth = m.histogram(
            "llstar_backtrack_depth",
            "deepest token reach per backtracking prediction",
            buckets=K_BUCKETS)
        self._synpreds = m.counter(
            "llstar_synpred_invocations_total",
            "speculative sub-parses launched")
        self._rules = m.counter(
            "llstar_rule_invocations_total", "rule invocations")
        self._recovery_skipped = m.counter(
            "llstar_recovery_tokens_skipped_total",
            "tokens discarded while resynchronising")
        self._degradations = m.counter(
            "llstar_degradations_total",
            "decisions whose DFA was rebuilt at parse time")
        self._stream_window = m.gauge(
            "llstar_stream_peak_window",
            "high-water mark of the streaming token window")
        # Incremental reparsing (repro.runtime.incremental).
        self._incremental_edits = m.counter(
            "llstar_incremental_edits_total",
            "edits applied through an EditSession")
        self._incremental_relexed = m.counter(
            "llstar_incremental_relexed_chars_total",
            "characters rescanned inside damage windows")
        self._reused_nodes = m.counter(
            "llstar_incremental_reused_nodes_total",
            "subtrees grafted from a previous parse")
        self._reused_tokens = m.counter(
            "llstar_incremental_reused_tokens_total",
            "tokens covered by grafted subtrees")

    # -- labelled metrics ------------------------------------------------------

    def _count(self, name: str, help: str, label: str, value: str,
               n: int = 1) -> None:
        """Add ``n`` to the labelled counter ``name{label=value}``."""
        counter = self._labelled.get((name, value))
        if counter is None:
            counter = self._labelled[(name, value)] = self.metrics.counter(
                name, help, labels={label: value})
        counter.value += n

    def _span_seconds(self, kind: str) -> Histogram:
        """The ``llstar_span_seconds{kind=...}`` histogram."""
        key = ("llstar_span_seconds", kind)
        hist = self._labelled.get(key)
        if hist is None:
            hist = self._labelled[key] = self.metrics.histogram(
                key[0], "nested span latency by kind", labels={"kind": kind},
                buckets=LATENCY_BUCKETS)
        return hist

    # -- runtime hooks ---------------------------------------------------------

    def _add_predictions(self, decision: int, k: int, dfa_hit: bool,
                         backtracked: bool, backtrack_depth: int,
                         fallbacks: Tuple[str, ...], n: int) -> None:
        """Add ``n`` identical committed predictions (lock held)."""
        self.profiler._record(decision, k, backtracked, backtrack_depth, n)
        self._predictions.value += n
        self._realized_k.observe(k, n)
        if dfa_hit:
            self._dfa_hits.value += n
        else:
            self._fallbacks.value += n
            for reason in fallbacks:
                self._count("llstar_fallback_reasons_total",
                            "why predictions left the DFA", "reason", reason, n)
        if backtracked:
            self._backtracks.value += n
            self._backtrack_depth.observe(backtrack_depth, n)

    def record_predict(self, decision: int, k: int, dfa_hit: bool,
                       backtracked: bool, backtrack_depth: int,
                       fallbacks: Tuple[str, ...] = ()) -> None:
        """One committed prediction.  ``fallbacks`` names why it left the
        DFA (``predicates`` or ``synpred``, and ``degraded``)."""
        with self._lock:
            self._add_predictions(decision, k, dfa_hit, backtracked,
                                  backtrack_depth, fallbacks, 1)

    def record_parse(self, tally: ParseTally) -> None:
        """Fold one parse's :class:`ParseTally` in, then clear it.

        The aggregates come out as if each counted prediction, rule and
        speculation had been recorded one at a time: one-token DFA
        predictions as dfa hits with ``k=1``, and one
        ``llstar_span_seconds{kind="synpred"}`` observation per timed
        speculation, in the order they ended.
        """
        with self._lock:
            add = self._add_predictions
            for decision, n in enumerate(tally.dfa_k1):
                if n:
                    add(decision, 1, True, False, 0, (), n)
            for (decision, k, backtracked, backtrack_depth, fallbacks), n \
                    in tally.predictions.items():
                add(decision, k, not fallbacks, backtracked, backtrack_depth,
                    fallbacks, n)
            self._rules.value += tally.rules
            for outcome, n in (("matched", tally.synpreds_matched),
                               ("failed", tally.synpreds_failed)):
                if n:
                    self._synpreds.value += n
                    self._count("llstar_synpred_outcomes_total",
                                "speculation outcomes", "outcome", outcome, n)
            if tally.synpred_seconds:
                hist = self._span_seconds("synpred")
                for elapsed in tally.synpred_seconds:
                    hist.observe(elapsed)
        tally.clear()

    def record_recovery(self, repair: str, skipped: int = 0) -> None:
        """One error repair: inline ``insert``/``delete``, rule-level
        ``panic`` resync, or the end-of-parse ``eof-drain``, which threw
        ``skipped`` tokens away."""
        with self._lock:
            self._count("llstar_recovery_events_total", "error repairs by kind",
                        "kind", repair)
            if skipped:
                self._recovery_skipped.inc(skipped)

    def record_incremental_edit(self, relexed_chars: int, reused_nodes: int,
                                reused_tokens: int) -> None:
        """One applied :meth:`~repro.runtime.incremental.EditSession.edit`:
        the characters it relexed, and the subtrees (and tokens they
        cover) its reparse grafted from the previous tree."""
        with self._lock:
            self._incremental_edits.inc()
            self._incremental_relexed.inc(relexed_chars)
            self._reused_nodes.inc(reused_nodes)
            self._reused_tokens.inc(reused_tokens)

    def record_cache(self, op: str) -> None:
        """One artifact-cache operation: ``hit``, ``miss``, ``save``,
        ``evict``, or a :class:`~repro.cache.CacheDiagnostic` kind."""
        with self._lock:
            self._count("llstar_cache_events_total", "artifact-cache operations",
                        "op", op)

    def record_degradation(self) -> None:
        """One decision DFA rebuilt at parse time."""
        with self._lock:
            self._degradations.inc()

    def observe_stream_window(self, peak: int) -> None:
        with self._lock:
            self._stream_window.track_max(peak)

    # -- spans -----------------------------------------------------------------

    def start_span(self, name: str, index: int = -1) -> _OpenSpan:
        """Open span ``name`` (``kind:detail``) at token ``index``."""
        return _OpenSpan(name, self.clock())

    def end_span(self, span: _OpenSpan, index: int = -1,
                 failed: bool = False) -> float:
        """Close ``span`` at token ``index``; ``failed``: it ended in error."""
        elapsed = self.clock() - span.started
        with self._lock:
            self._span_seconds(span.name.partition(":")[0]).observe(elapsed)
        return elapsed

    @contextmanager
    def span(self, name: str):
        handle = self.start_span(name)
        try:
            yield handle
        finally:
            self.end_span(handle)

    # -- derived views ---------------------------------------------------------

    def report(self, analysis=None) -> ProfileReport:
        """Tables 3-4 over every committed prediction recorded so far."""
        return self.profiler.report(analysis)

    @property
    def dfa_hit_rate(self) -> float:
        """Fraction of predictions the DFA resolved without fallback."""
        total = self._predictions.value
        return self._dfa_hits.value / total if total else 0.0

    def snapshot(self) -> dict:
        """One JSON-safe document: the metrics and the DFA hit rate."""
        return {
            "metrics": self.metrics.to_json(),
            "dfa_hit_rate": self.dfa_hit_rate,
        }

    def to_json_text(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        return self.metrics.to_prometheus()

    def __repr__(self):
        return ("ParseTelemetry(%d predictions, hit rate %.2f)"
                % (self._predictions.value, self.dfa_hit_rate))


class TraceTelemetry(ParseTelemetry):
    """A telemetry (rule spans on) that also writes the ``llstar parse
    --trace`` transcript from the hooks it receives, indented by span
    depth: ``enter R @i`` / ``exit R @j [FAILED]`` per rule span,
    ``predict dN k=K [(backtracked)]`` per committed prediction, and
    ``speculate S @i`` / ``end S @j [FAILED]`` per speculation.  The
    transcript interleaves them, so a parser delivers each one as it
    happens.  Nesting depth is per thread: parses sharing one trace do
    not push each other's spans deeper."""

    per_event = True

    def __init__(self, clock=time.perf_counter):
        super().__init__(trace_rules=True, clock=clock)
        self.lines: List[str] = []
        self._local = threading.local()  # per-thread span nesting depth

    def _line(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def start_span(self, name: str, index: int = -1) -> _OpenSpan:
        local = self._local
        depth = getattr(local, "depth", 0)
        local.depth = depth + 1
        kind, _, what = name.partition(":")
        if kind in _TRACE_VERBS:
            self._line(depth, "%s %s @%d" % (_TRACE_VERBS[kind][0], what, index))
        return _OpenSpan(name, self.clock(), depth)

    def end_span(self, span: _OpenSpan, index: int = -1,
                 failed: bool = False) -> float:
        elapsed = super().end_span(span, index, failed)
        self._local.depth = span.depth
        kind, _, what = span.name.partition(":")
        if kind in _TRACE_VERBS:
            self._line(span.depth, "%s %s @%d%s" % (
                _TRACE_VERBS[kind][1], what, index, " FAILED" if failed else ""))
        return elapsed

    def record_predict(self, decision: int, k: int, dfa_hit: bool,
                       backtracked: bool, *rest) -> None:
        super().record_predict(decision, k, dfa_hit, backtracked, *rest)
        self._line(getattr(self._local, "depth", 0), "predict d%d k=%d%s" % (
            decision, k, " (backtracked)" if backtracked else ""))

    def transcript(self) -> str:
        return "\n".join(self.lines)


#: (open, close) transcript verbs for the span kinds a trace renders.
_TRACE_VERBS = {"rule": ("enter", "exit"), "synpred": ("speculate", "end")}
