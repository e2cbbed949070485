"""Corpus-scale batch parsing over a process pool with warm artifacts.

The paper's evaluation (Section 6) is a *corpus* workload — 12,920 JDK
Java files parsed in aggregate — and its whole thesis is that static
analysis makes the runtime cheap enough to scale.  This package is that
thesis applied operationally: pay for grammar compilation **once**, then
spread the per-input parsing across worker processes that never re-run
:class:`~repro.analysis.construction.DecisionAnalyzer`.

* :class:`~repro.batch.engine.BatchEngine` — compiles (or cache-loads)
  the grammar in the parent, then dispatches chunks of inputs to a
  :class:`~repro.pool.WorkerPool` whose workers boot from the artifact
  image and its key alone: the image in ``cache_dir``, or one the pool
  publishes into a private temporary directory.  Dispatch is chunked
  with a bounded in-flight window, so a million-file corpus never
  materializes a million futures.
* Per-input isolation — every input parses under its own
  :class:`~repro.runtime.budget.ParserBudget` accounting; a
  pathological or malformed input fails its own
  :class:`~repro.batch.engine.BatchResult` while the rest of the corpus
  completes.
* Corpus aggregation — each chunk parses under one
  :class:`~repro.runtime.telemetry.ParseTelemetry` and returns its
  :class:`~repro.runtime.telemetry.MetricsRegistry` and per-decision
  :class:`~repro.runtime.profiler.DecisionProfiler`; the parent merges
  the snapshots (:meth:`MetricsRegistry.merge`,
  :meth:`DecisionProfiler.merge`) into one corpus-level
  :class:`~repro.batch.engine.BatchReport` with throughput totals.

CLI: ``llstar batch grammar.g inputs... --jobs N --metrics-out FILE``.
"""

from repro.batch.engine import BatchEngine, BatchReport, BatchResult, parse_corpus

__all__ = [
    "BatchEngine",
    "BatchReport",
    "BatchResult",
    "parse_corpus",
]
