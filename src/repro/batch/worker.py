"""Pool-worker half of the batch engine.

A worker process warm-starts exactly once: the pool initializer maps the
artifact image the parent published (:func:`repro.api.host_from_cache_key`,
given only the cache directory and the artifact key — the image carries
the grammar text) and every chunk the worker receives parses against
that host.  Static analysis
(:class:`~repro.analysis.construction.DecisionAnalyzer`) never runs in a
worker; a batch's analysis cost is paid once, in the parent.

Inputs parse without building trees (``ParserOptions(build_tree=False)``):
a :class:`~repro.batch.engine.BatchResult` records outcome, error, and
token count, never a tree, so building one per file would be pure
allocation.  Recovery and telemetry see the same parse either way.

Chunk results travel back as plain picklable values: a list of
:class:`~repro.batch.engine.BatchResult` rows plus the registry and the
per-decision store of the chunk's one
:class:`~repro.runtime.telemetry.ParseTelemetry`, which the parent
merges into the corpus-level report.  Budget- or syntax-level failures
are caught *per input*: one pathological file fails its own row, never
the chunk or the batch.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import LLStarError
from repro.runtime.budget import ParserBudget
from repro.runtime.telemetry import LATENCY_BUCKETS, ParseTelemetry


class WorkerConfig:
    """Everything a worker needs to warm-start, in picklable form.

    The worker boots from ``(cache_dir, artifact_key)`` alone: it maps
    the ``.llt`` image the parent published, which carries the grammar
    text, so the pickled initargs ship no grammar and no tables and N
    workers share one page-cache copy of the tables.  The remaining
    fields are the compile flags of the parent's host and the per-input
    parse settings.
    """

    __slots__ = ("name", "options", "rewrite_left_recursion", "strict",
                 "cache_dir", "artifact_key", "rule_name", "budget",
                 "recover", "chaos")

    def __init__(self, name: Optional[str], options,
                 rewrite_left_recursion: bool, strict: bool,
                 cache_dir: Optional[str], artifact_key: Optional[str],
                 rule_name: Optional[str], budget: Optional[ParserBudget],
                 recover: bool, chaos=None):
        self.name = name
        self.options = options
        self.rewrite_left_recursion = rewrite_left_recursion
        self.strict = strict
        self.cache_dir = cache_dir
        self.artifact_key = artifact_key
        self.rule_name = rule_name
        self.budget = budget
        self.recover = recover
        # Optional ServiceChaos fault policy (robustness testing): kills
        # apply only in pool workers; inline contexts report them as
        # typed WorkerCrashError rows instead of dying.
        self.chaos = chaos

    def booting_from(self, cache_dir: str, artifact_key: str) -> "WorkerConfig":
        """A copy of this config whose workers boot from the image
        ``artifact_key`` in ``cache_dir``."""
        return WorkerConfig(self.name, self.options,
                            self.rewrite_left_recursion, self.strict,
                            cache_dir, artifact_key, self.rule_name,
                            self.budget, self.recover, self.chaos)


class WorkerContext:
    """One process's warm state: the host plus per-chunk instrument set."""

    def __init__(self, config: WorkerConfig, host=None):
        from repro.api import host_from_cache_key

        self.config = config
        # Inline contexts receive the parent's host; only a real pool
        # worker builds its own (and only a real worker may be killed by
        # an injected fault — see run_chunk).  A worker whose image is
        # gone raises, and the engine's pool-rebuild/degrade machinery
        # finishes the corpus inline.
        self.in_worker = host is None
        self.host = host if host is not None else host_from_cache_key(
            config.cache_dir, config.artifact_key, name=config.name,
            options=config.options,
            rewrite_left_recursion=config.rewrite_left_recursion,
            strict=config.strict)

    def run_chunk(self, chunk: Sequence[Tuple[str, str]]):
        """Parse one chunk of ``(input_id, text)`` pairs, tree-free.

        Returns ``(results, metrics, profiler)``: the registry and
        per-decision store of the chunk's telemetry cover exactly this
        chunk, so the parent's merge over all chunks is the corpus total.
        """
        from repro.batch.engine import BatchResult
        from repro.runtime.parser import ParserOptions

        config = self.config
        host = self.host
        telemetry = ParseTelemetry(capture_events=False)
        input_seconds = telemetry.metrics.histogram(
            "llstar_batch_input_seconds", "per-input parse latency",
            buckets=LATENCY_BUCKETS)
        ok_inputs = telemetry.metrics.counter(
            "llstar_batch_inputs_total", "corpus inputs by outcome",
            labels={"status": "ok"})
        failed_inputs = telemetry.metrics.counter(
            "llstar_batch_inputs_total", "corpus inputs by outcome",
            labels={"status": "failed"})
        tokens_total = telemetry.metrics.counter(
            "llstar_batch_tokens_total", "tokens lexed across the corpus")
        pid = os.getpid()
        results: List[BatchResult] = []
        for input_id, text in chunk:
            started = time.perf_counter()
            tokens = 0
            if config.chaos is not None:
                from repro.exceptions import WorkerCrashError
                from repro.runtime.chaos import KILL

                # In a pool worker a KILL fault hard-exits here (the
                # parent sees BrokenProcessPool); inline it becomes a
                # typed per-input failure instead.
                fault = config.chaos.apply_before_parse(
                    input_id, in_worker=self.in_worker)
                if fault == KILL:
                    error = WorkerCrashError(
                        "injected worker-kill fault on input %s" % input_id)
                    result = BatchResult(
                        input_id, ok=False, error_type=type(error).__name__,
                        error=str(error), tokens=0,
                        elapsed=time.perf_counter() - started, worker_pid=pid)
                    input_seconds.observe(result.elapsed)
                    failed_inputs.inc()
                    results.append(result)
                    continue
            try:
                stream = host.tokenize(text)
                tokens = max(0, len(stream.tokens()) - 1)  # minus EOF
                parser = host.parser(stream, options=ParserOptions(
                    build_tree=False, telemetry=telemetry,
                    budget=config.budget, recover=config.recover))
                parser.parse(config.rule_name)
                errors = len(parser.errors)
                result = BatchResult(
                    input_id, ok=not errors,
                    error_type="RecognitionError" if errors else None,
                    error=("%d recovered syntax error(s); first: %s"
                           % (errors, parser.errors[0]) if errors else None),
                    tokens=tokens, elapsed=time.perf_counter() - started,
                    worker_pid=pid)
            except (LLStarError, RecursionError) as e:
                result = BatchResult(
                    input_id, ok=False, error_type=type(e).__name__,
                    error=str(e) or type(e).__name__, tokens=tokens,
                    elapsed=time.perf_counter() - started, worker_pid=pid)
            input_seconds.observe(result.elapsed)
            tokens_total.inc(result.tokens)
            (ok_inputs if result.ok else failed_inputs).inc()
            results.append(result)
        return results, telemetry.metrics, telemetry.profiler


#: Per-process singleton installed by the pool initializer.
_CONTEXT: Optional[WorkerContext] = None


def initialize_worker(config: WorkerConfig) -> None:
    """``ProcessPoolExecutor`` initializer: warm-start this process."""
    global _CONTEXT
    _CONTEXT = WorkerContext(config)


def run_chunk(chunk: Sequence[Tuple[str, str]]):
    """Top-level (picklable) chunk entry point for pool submission."""
    if _CONTEXT is None:
        raise RuntimeError("batch worker used before initialize_worker ran")
    return _CONTEXT.run_chunk(chunk)
