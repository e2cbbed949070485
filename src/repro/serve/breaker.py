"""Per-grammar circuit breaker: fail fast while a dependency is sick.

The serve layer runs many grammars behind one admission queue.  One
pathological grammar — whose parses keep killing workers or blowing
budgets — would otherwise occupy the queue with doomed work and starve
the healthy grammars.  The breaker converts a streak of such *resource*
failures (never plain syntax errors, which are properties of the input)
into fast, typed :class:`~repro.serve.errors.CircuitOpenError` rejections
until a cooldown passes, then lets a limited number of half-open probes
test whether the fault has cleared.

State machine::

    CLOSED --(threshold consecutive failures)--> OPEN
    OPEN   --(cooldown elapsed)---------------> HALF_OPEN
    HALF_OPEN --(probe succeeds)--------------> CLOSED
    HALF_OPEN --(probe fails)-----------------> OPEN (cooldown restarts)

The clock is injectable so tests drive the cooldown deterministically.
Thread-safe: the service may record outcomes from executor callbacks.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.serve.errors import CircuitOpenError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Gauge encoding for /metrics (one number per state).
STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}

#: Concurrent requests a half-open circuit admits as probes.
HALF_OPEN_PROBES = 1


class CircuitBreaker:
    """Consecutive-failure breaker guarding one grammar.

    ``threshold``
        Consecutive resource failures that open the circuit.
    ``cooldown``
        Seconds the circuit stays open before probing.

    While half-open it admits :data:`HALF_OPEN_PROBES` concurrent
    requests; the rest are rejected until a probe settles.
    """

    def __init__(self, name: str = "", threshold: int = 5,
                 cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Optional[Callable[[str, str, str], None]] = None):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.name = name
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._probes = 0  # in-flight half-open probes
        #: Transition history ``(from, to)`` — test/debug visibility.
        self.transitions: List[Tuple[str, str]] = []

    # -- state ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        """Current state with the open->half-open clock edge applied."""
        if (self._state == OPEN
                and self._clock() - self._opened_at >= self.cooldown):
            self._transition(HALF_OPEN)
        return self._state

    def _transition(self, to: str) -> None:
        if self._state == to:
            return
        frm, self._state = self._state, to
        if to == HALF_OPEN:
            self._probes = 0
        self.transitions.append((frm, to))
        if self._on_transition is not None:
            self._on_transition(self.name, frm, to)

    def retry_after(self) -> float:
        """Seconds until the circuit will next admit a probe."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0, self.cooldown - (self._clock() - self._opened_at))

    # -- request lifecycle ------------------------------------------------------

    def admit(self) -> None:
        """Gate one request; raises :class:`CircuitOpenError` when the
        circuit will not take it.  Every admitted request MUST later
        call exactly one of :meth:`record_success` /
        :meth:`record_failure` / :meth:`record_ignored`."""
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return
            if state == HALF_OPEN and self._probes < HALF_OPEN_PROBES:
                self._probes += 1
                return
            raise CircuitOpenError(
                "circuit for grammar %r is %s after %d consecutive "
                "resource failure(s)" % (self.name, state, self._consecutive),
                retry_after=max(
                    0.1, self.cooldown - (self._clock() - self._opened_at))
                if state == OPEN else 0.1)

    def record_success(self) -> None:
        with self._lock:
            self._consecutive = 0
            if self._state == HALF_OPEN:
                self._probes = max(0, self._probes - 1)
                self._transition(CLOSED)

    def record_failure(self) -> None:
        """A resource failure (worker crash, budget blowout) — syntax
        errors in user input must NOT be recorded here."""
        with self._lock:
            self._consecutive += 1
            if self._state == HALF_OPEN:
                self._probes = max(0, self._probes - 1)
                self._opened_at = self._clock()
                self._transition(OPEN)
            elif self._state == CLOSED and self._consecutive >= self.threshold:
                self._opened_at = self._clock()
                self._transition(OPEN)

    def record_ignored(self) -> None:
        """The request settled without evidence either way (it was shed
        after admission, or the grammar failed to compile); releases a
        half-open probe slot without moving the state."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes = max(0, self._probes - 1)

    def __repr__(self):
        return "CircuitBreaker(%s %s, %d/%d failures)" % (
            self.name, self.state, self._consecutive, self.threshold)
