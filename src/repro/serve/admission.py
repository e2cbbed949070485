"""Admission control: bounded concurrency, bounded queue, load shedding.

The saturation failure mode of an unprotected server is unbounded queue
growth: every request eventually gets served, seconds too late for
anyone to still want the answer.  The controller enforces two bounds —
``max_concurrency`` requests executing, at most ``queue_limit`` more
waiting — and sheds anything beyond them *immediately* with a typed
:class:`~repro.serve.errors.SheddingError` (HTTP 429 + ``Retry-After``),
keeping latency for admitted requests flat no matter the offered load.

Deadline propagation starts here: a request whose absolute deadline
expires while still queued is rejected without ever executing, so queue
wait is charged against the same budget as the parse itself.

Health probes never pass through this module — the service routes
``/healthz`` ahead of admission so saturation cannot make the process
look dead.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.exceptions import BudgetExceededError
from repro.serve.errors import SheddingError


class AdmissionController:
    """Semaphore + bounded waiting room for one service.

    Not thread-safe: lives on the service's event loop like everything
    else in the asyncio layer.
    """

    def __init__(self, max_concurrency: int = 8, queue_limit: int = 32,
                 retry_after: float = 1.0,
                 clock: Callable[[], float] = time.monotonic):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.max_concurrency = max_concurrency
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        self._clock = clock
        self._sem = asyncio.Semaphore(max_concurrency)
        self.queued = 0       # admitted but waiting for a slot
        self.executing = 0    # holding a slot
        self.peak_queued = 0
        self.shed_total = 0

    def _shed(self) -> SheddingError:
        self.shed_total += 1
        # Scale the hint with how deep the backlog is: a caller told to
        # retry into the same wall of traffic just sheds again.
        depth = self.queued / max(1, self.queue_limit)
        return SheddingError(
            "request queue full (%d executing, %d queued, limit %d)"
            % (self.executing, self.queued, self.queue_limit),
            retry_after=self.retry_after * max(1.0, depth))

    async def acquire(self, deadline_at: Optional[float] = None) -> None:
        """Admit one request, waiting (bounded) for an execution slot.

        Raises :class:`SheddingError` when the waiting room is full and
        :class:`~repro.exceptions.BudgetExceededError` when
        ``deadline_at`` expires before a slot frees up.
        """
        if self._sem.locked() and self.queued >= self.queue_limit:
            raise self._shed()
        self.queued += 1
        self.peak_queued = max(self.peak_queued, self.queued)
        try:
            timeout = None
            if deadline_at is not None:
                timeout = deadline_at - self._clock()
                if timeout <= 0:
                    raise BudgetExceededError(
                        "deadline", deadline_at,
                        spent="expired while queued")
            try:
                await asyncio.wait_for(self._sem.acquire(), timeout)
            except asyncio.TimeoutError:
                raise BudgetExceededError(
                    "deadline", deadline_at,
                    spent="expired while queued") from None
        finally:
            self.queued -= 1
        self.executing += 1

    def release(self) -> None:
        self.executing -= 1
        self._sem.release()

    def __repr__(self):
        return ("AdmissionController(%d/%d executing, %d/%d queued, "
                "%d shed)" % (self.executing, self.max_concurrency,
                              self.queued, self.queue_limit, self.shed_total))
