"""Batch's unit of work for the shared worker pool (:mod:`repro.pool`).

A :class:`ChunkTask` carries one chunk of ``(input_id, text)`` pairs and
the per-input parse settings, and no grammar: a pool worker boots its
host from the artifact key alone, so static analysis never runs in a
worker and a batch's analysis cost is paid once, in the parent.

Inputs parse without building trees: a
:class:`~repro.batch.engine.BatchResult` records outcome, error, and token
count, never a tree, so building one per file would be pure allocation.
Recovery and telemetry see the same parse either way.

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

from repro.pool import parse_input
from repro.runtime.budget import ParserBudget
from repro.runtime.telemetry import LATENCY_BUCKETS, ParseTelemetry


class ChunkTask:
    """One chunk of corpus inputs and how to parse each, in picklable form.

    ``chaos`` is an optional
    :class:`~repro.runtime.chaos.ServiceChaos` fault policy (robustness
    testing): kills exit pool workers, and inline they become typed
    ``WorkerCrashError`` rows instead.
    """

    __slots__ = ("chunk", "rule_name", "budget", "recover", "chaos")

    def __init__(self, chunk: Sequence[Tuple[str, str]],
                 rule_name: Optional[str], budget: Optional[ParserBudget],
                 recover: bool, chaos=None):
        self.chunk = chunk
        self.rule_name = rule_name
        self.budget = budget
        self.recover = recover
        self.chaos = chaos

    def run(self, host, in_worker: bool, telemetry=None):
        """Parse the chunk tree-free on ``host``.

        Returns ``(results, metrics, profiler)``: the registry and
        per-decision store of the chunk's telemetry (``telemetry``, or a
        fresh one) cover exactly this chunk, so the parent's merge over
        all chunks is the corpus total.
        """
        from repro.batch.engine import BatchResult

        if telemetry is None:
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
        for input_id, text in self.chunk:
            started = time.perf_counter()
            parsed = parse_input(
                host, input_id, text, rule_name=self.rule_name,
                recover=self.recover, budget=self.budget,
                telemetry=telemetry, chaos=self.chaos, in_worker=in_worker)
            error_type, error = parsed.error_type, parsed.error
            if error_type is None and parsed.errors:
                error_type = "RecognitionError"
                error = ("%d recovered syntax error(s); first: %s"
                         % (len(parsed.errors), parsed.errors[0]))
            result = BatchResult(
                input_id, ok=error_type is None, error_type=error_type,
                error=error, tokens=parsed.tokens,
                elapsed=time.perf_counter() - started, worker_pid=pid)
            input_seconds.observe(result.elapsed)
            tokens_total.inc(result.tokens)
            (ok_inputs if result.ok else failed_inputs).inc()
            results.append(result)
        return results, telemetry.metrics, telemetry.profiler
