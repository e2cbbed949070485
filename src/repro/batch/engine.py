"""The batch engine: chunked corpus dispatch over warm worker processes.

Lifecycle of one :meth:`BatchEngine.run`:

1. The parent compiles the grammar once (through the artifact cache when
   ``cache_dir`` is set, so the analysis is also persisted for the next
   run).
2. A :class:`~repro.pool.WorkerPool` starts ``jobs`` workers, each of
   which boots its host from the artifact image and its key alone — no
   worker ever runs static analysis.  The image is the one in
   ``cache_dir`` (republished from the parent's host when it is gone);
   without one there, the pool publishes it into a private temporary
   directory that lives as long as the run.
3. Inputs are dispatched in chunks, with a bounded number of chunks in
   flight per worker (backpressure: a huge corpus streams through
   bounded memory instead of materializing every future up front).
4. Workers parse without building trees: a :class:`BatchResult` holds
   the outcome, error, and token count of an input, not its tree.
5. Each chunk returns its :class:`BatchResult` rows plus its telemetry's
   metrics registry and per-decision store; the parent folds them into the
   corpus-level :class:`BatchReport`, preserving input order in the final
   result list.

``jobs=0`` runs the same chunk code inline in the parent process —
deterministic, pool-free execution for debugging and tests; it publishes
nothing.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.batch.worker import ChunkTask
from repro.pool import PoolGrammar, WorkerPool
from repro.runtime.budget import ParserBudget
from repro.runtime.profiler import DecisionProfiler, ProfileReport
from repro.runtime.telemetry import MetricsRegistry


class BatchResult:
    """Outcome of one corpus input.

    ``ok`` is False when the input failed to lex/parse or blew its
    budget; ``error_type`` then names the exception class
    (``BudgetExceededError``, ``NoViableAltError``, ...) so corpus-level
    tooling can bucket failures without string-matching messages.
    """

    __slots__ = ("input_id", "ok", "error_type", "error", "tokens",
                 "elapsed", "worker_pid")

    def __init__(self, input_id: str, ok: bool, error_type: Optional[str],
                 error: Optional[str], tokens: int, elapsed: float,
                 worker_pid: int):
        self.input_id = input_id
        self.ok = ok
        self.error_type = error_type
        self.error = error
        self.tokens = tokens
        self.elapsed = elapsed
        self.worker_pid = worker_pid

    def to_dict(self) -> dict:
        return {"input": self.input_id, "ok": self.ok,
                "error_type": self.error_type, "error": self.error,
                "tokens": self.tokens, "elapsed": self.elapsed,
                "worker_pid": self.worker_pid}

    def __repr__(self):
        status = "ok" if self.ok else "FAILED(%s)" % self.error_type
        return "BatchResult(%s %s, %d tokens, %.4fs)" % (
            self.input_id, status, self.tokens, self.elapsed)


class BatchReport:
    """Corpus-level aggregate: ordered results + merged instruments."""

    def __init__(self, results: List[BatchResult], metrics: MetricsRegistry,
                 profiler: DecisionProfiler, wall_seconds: float, jobs: int,
                 chunks: int, pool_rebuilds: int = 0,
                 degraded_to_inline: bool = False):
        self.results = results
        self.metrics = metrics
        self.profiler = profiler
        self.wall_seconds = wall_seconds
        self.jobs = jobs
        self.chunks = chunks
        #: Times the worker pool died and was rebuilt mid-corpus.
        self.pool_rebuilds = pool_rebuilds
        #: True when pool failures exhausted the rebuild allowance and
        #: the remaining chunks ran inline in the parent instead.
        self.degraded_to_inline = degraded_to_inline

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[BatchResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def total_tokens(self) -> int:
        return sum(r.tokens for r in self.results)

    @property
    def tokens_per_second(self) -> float:
        return self.total_tokens / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def files_per_second(self) -> float:
        return self.total / self.wall_seconds if self.wall_seconds else 0.0

    def profile_report(self, analysis=None) -> ProfileReport:
        """Paper-style Table 3/4 aggregates over the whole corpus."""
        return self.profiler.report(analysis)

    def to_json(self) -> dict:
        return {
            "inputs": self.total,
            "ok": self.ok_count,
            "failed": self.total - self.ok_count,
            "jobs": self.jobs,
            "chunks": self.chunks,
            "wall_seconds": self.wall_seconds,
            "total_tokens": self.total_tokens,
            "tokens_per_second": self.tokens_per_second,
            "files_per_second": self.files_per_second,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded_to_inline": self.degraded_to_inline,
            "results": [r.to_dict() for r in self.results],
            "metrics": self.metrics.to_json(),
        }

    def summary(self) -> str:
        lines = ["parsed %d/%d inputs ok in %.3fs (%d jobs, %d chunks)"
                 % (self.ok_count, self.total, self.wall_seconds, self.jobs,
                    self.chunks),
                 "throughput: %.0f tokens/s, %.1f files/s (%d tokens)"
                 % (self.tokens_per_second, self.files_per_second,
                    self.total_tokens)]
        if self.pool_rebuilds:
            lines.append("  pool died %d time(s) and was rebuilt%s"
                         % (self.pool_rebuilds,
                            "; finished inline (degraded)"
                            if self.degraded_to_inline else ""))
        for failure in self.failures:
            lines.append("  FAILED %s: [%s] %s"
                         % (failure.input_id, failure.error_type, failure.error))
        return "\n".join(lines)

    def __repr__(self):
        return "BatchReport(%d/%d ok, %.0f tok/s)" % (
            self.ok_count, self.total, self.tokens_per_second)


class BatchEngine:
    """Parses corpora of inputs against one grammar over a worker pool.

    ``jobs``
        Worker processes (default ``os.cpu_count()``); ``0`` runs inline
        in the parent, with identical results and aggregation.
    ``chunk_size``
        Inputs per dispatched chunk (default: corpus size balanced over
        ``4 x jobs`` chunks, clamped to [1, 32]).
    ``budget`` / ``recover`` / ``rule_name``
        Applied per input inside the workers; a
        :class:`~repro.exceptions.BudgetExceededError` or
        :class:`~repro.exceptions.RecognitionError` on one input fails
        only that input's :class:`BatchResult`.
    ``cache_dir``
        Compile through the artifact cache; pool workers then boot from
        the image published there instead of a private copy.
    ``chaos``
        Optional :class:`~repro.runtime.chaos.ServiceChaos` fault policy
        applied per input in the workers (robustness testing).

    A worker killed mid-corpus breaks the pool: the lost chunks are
    retried on a rebuilt pool once, and after a second death the rest of
    the corpus runs inline (:class:`~repro.pool.WorkerPool`).
    """

    def __init__(self, grammar_text: str, name: Optional[str] = None,
                 options=None, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 rule_name: Optional[str] = None,
                 budget: Optional[ParserBudget] = None,
                 recover: bool = False, cache_dir: Optional[str] = None,
                 rewrite_left_recursion: bool = True, strict: bool = True,
                 parallel: Optional[int] = None, chaos=None):
        from repro.api import compile_grammar

        if jobs is not None and jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = inline)")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 or None")
        self.jobs = (os.cpu_count() or 1) if jobs is None else jobs
        self.chunk_size = chunk_size
        # Compile once in the parent; with a cache_dir this also publishes
        # the artifact image the workers boot from.
        self.host = compile_grammar(
            grammar_text, name=name, options=options,
            rewrite_left_recursion=rewrite_left_recursion, strict=strict,
            cache_dir=cache_dir, parallel=parallel)
        self._grammar = PoolGrammar(grammar_text, name, options,
                                    rewrite_left_recursion, strict)
        self._cache_dir = cache_dir
        self._settings = dict(rule_name=rule_name, budget=budget,
                              recover=recover, chaos=chaos)

    # -- corpus preparation ----------------------------------------------------

    def _chunks(self, items: Sequence[Tuple[str, str]]) -> List[List[Tuple[str, str]]]:
        size = self.chunk_size
        if size is None:
            workers = max(1, self.jobs)
            size = max(1, min(32, -(-len(items) // (workers * 4))))
        return [list(items[i:i + size]) for i in range(0, len(items), size)]

    # -- execution -------------------------------------------------------------

    def run(self, inputs: Iterable[Tuple[str, str]]) -> BatchReport:
        """Parse every ``(input_id, text)`` pair; returns the corpus report."""
        items = [(str(input_id), text) for input_id, text in inputs]
        tasks = [ChunkTask(chunk, **self._settings)
                 for chunk in self._chunks(items)]
        started = time.perf_counter()
        pool = WorkerPool(self.jobs, self._cache_dir)
        try:
            outcomes = pool.map(self._grammar, self.host, tasks)
        finally:
            pool.close(wait=True)
        wall = time.perf_counter() - started
        return self._aggregate(outcomes, wall, pool.rebuilds,
                               pool.degradations > 0)

    def run_paths(self, paths: Iterable[str]) -> BatchReport:
        """Parse files by path (the path is the input id)."""
        corpus = []
        for path in paths:
            with open(path) as f:
                corpus.append((path, f.read()))
        return self.run(corpus)

    def _aggregate(self, outcomes, wall: float, rebuilds: int,
                   degraded: bool) -> BatchReport:
        results: List[BatchResult] = []
        metrics = MetricsRegistry()
        profiler = DecisionProfiler()
        for chunk_results, chunk_metrics, chunk_profiler in outcomes:
            results.extend(chunk_results)
            metrics.merge(chunk_metrics)
            profiler.merge(chunk_profiler)
        metrics.gauge("llstar_batch_workers", "worker processes").set(self.jobs)
        metrics.counter("llstar_batch_chunks_total",
                        "chunks dispatched").inc(len(outcomes))
        if rebuilds:
            metrics.counter("llstar_batch_pool_rebuilds_total",
                            "worker pools rebuilt after a crash").inc(rebuilds)
        metrics.gauge("llstar_batch_pool_degraded",
                      "1 when the corpus finished inline after repeated "
                      "pool deaths").set(1 if degraded else 0)
        return BatchReport(results, metrics, profiler, wall, self.jobs,
                           len(outcomes), pool_rebuilds=rebuilds,
                           degraded_to_inline=degraded)


def parse_corpus(grammar_text: str, inputs: Iterable[Tuple[str, str]],
                 **engine_kwargs) -> BatchReport:
    """One-shot convenience: build a :class:`BatchEngine` and run it."""
    return BatchEngine(grammar_text, **engine_kwargs).run(inputs)
