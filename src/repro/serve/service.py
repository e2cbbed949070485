"""The fault-tolerant parse service behind ``llstar serve``.

:class:`ParseService` is transport-agnostic: HTTP and stdio both feed
requests into :meth:`ParseService.handle` and render the returned
:class:`Response`.  The service composes every robustness layer the repo
has grown:

* multi-grammar :class:`~repro.serve.registry.GrammarRegistry` with
  single-flight lazy compiles through the artifact cache;
* per-request deadline propagation — the client timeout (clamped by a
  server ceiling) becomes one absolute deadline on the service clock,
  stamped at admission and enforced through queue wait, lex, parse, and
  recovery via :meth:`~repro.runtime.budget.ParserBudget.with_deadline_at`;
* :class:`~repro.serve.admission.AdmissionController` load shedding
  (429 + ``Retry-After`` under saturation, 503 while draining);
* a per-grammar :class:`~repro.serve.breaker.CircuitBreaker` that opens
  after consecutive worker crashes / budget blowouts and recovers
  through half-open probes;
* graceful degradation: when the worker pool
  (:class:`~repro.pool.WorkerPool`) keeps dying, the service falls back
  to inline parsing at reduced concurrency, emits a
  :class:`~repro.runtime.telemetry.DegradationEvent`, and periodically
  probes whether a fresh pool survives;
* live Prometheus ``/metrics``, ``/healthz`` + ``/readyz``, and a
  graceful drain used by the SIGTERM handler.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from typing import Dict, List, Optional

from repro.exceptions import BudgetExceededError
from repro.pool import DEATH, DEGRADED, WorkerPool
from repro.runtime.budget import ParserBudget
from repro.runtime.telemetry import LATENCY_BUCKETS, DegradationEvent, ParseTelemetry
from repro.serve.admission import AdmissionController
from repro.serve.breaker import STATE_CODES, CircuitBreaker
from repro.serve.errors import (
    BadRequestError,
    DrainingError,
    RequestTooLargeError,
    ServeError,
)
from repro.serve.registry import GrammarRegistry
from repro.serve.worker import ParseTask

#: error_type values that charge the circuit breaker (resource events);
#: recognition errors are properties of the *input* and never count.
RESOURCE_FAILURES = frozenset(
    ["BudgetExceededError", "WorkerCrashError", "RecursionError"])


class ServiceConfig:
    """Tunables for one service instance (all have serving defaults)."""

    def __init__(self,
                 jobs: int = 0,
                 max_concurrency: int = 8,
                 queue_limit: int = 32,
                 deadline_ceiling: float = 30.0,
                 default_deadline: float = 10.0,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 5.0,
                 half_open_probes: int = 1,
                 max_body_bytes: int = 1 << 20,
                 drain_deadline: float = 10.0,
                 retry_after: float = 1.0,
                 recover_default: bool = True,
                 budget: Optional[ParserBudget] = None,
                 cache_dir: Optional[str] = None,
                 max_hosts: Optional[int] = None):
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = inline execution)")
        if deadline_ceiling <= 0 or default_deadline <= 0:
            raise ValueError("deadlines must be > 0")
        self.jobs = jobs
        self.max_concurrency = max_concurrency
        self.queue_limit = queue_limit
        self.deadline_ceiling = deadline_ceiling
        self.default_deadline = default_deadline
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.half_open_probes = half_open_probes
        self.max_body_bytes = max_body_bytes
        self.drain_deadline = drain_deadline
        self.retry_after = retry_after
        self.recover_default = recover_default
        # Base resource limits applied to every request; the per-request
        # absolute deadline is clamped in on top of these.
        self.budget = budget if budget is not None else ParserBudget.defensive(
            deadline_seconds=None)
        self.cache_dir = cache_dir
        self.max_hosts = max_hosts


class ParseRequest:
    """Validated body of ``POST /parse``."""

    __slots__ = ("grammar", "text", "rule", "recover", "timeout", "tree")

    def __init__(self, grammar: str, text: str, rule: Optional[str] = None,
                 recover: bool = True, timeout: Optional[float] = None,
                 tree: bool = False):
        self.grammar = grammar
        self.text = text
        self.rule = rule
        self.recover = recover
        self.timeout = timeout
        self.tree = tree

    @classmethod
    def from_body(cls, body: bytes, config: ServiceConfig) -> "ParseRequest":
        """Parse + validate; every malformation is a typed 400."""
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as e:
            raise BadRequestError("request body is not valid JSON: %s" % e)
        if not isinstance(doc, dict):
            raise BadRequestError("request body must be a JSON object")
        grammar = doc.get("grammar")
        text = doc.get("text")
        if not isinstance(grammar, str) or not grammar:
            raise BadRequestError("'grammar' must be a non-empty string")
        if not isinstance(text, str):
            raise BadRequestError("'text' must be a string")
        rule = doc.get("rule")
        if rule is not None and not isinstance(rule, str):
            raise BadRequestError("'rule' must be a string when present")
        recover = doc.get("recover", config.recover_default)
        if not isinstance(recover, bool):
            raise BadRequestError("'recover' must be a boolean")
        tree = doc.get("tree", False)
        if not isinstance(tree, bool):
            raise BadRequestError("'tree' must be a boolean")
        timeout = doc.get("timeout")
        if timeout is not None:
            if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) \
                    or timeout <= 0:
                raise BadRequestError("'timeout' must be a positive number "
                                      "of seconds")
        unknown = set(doc) - {"grammar", "text", "rule", "recover",
                              "timeout", "tree"}
        if unknown:
            raise BadRequestError("unknown field(s): %s"
                                  % ", ".join(sorted(unknown)))
        return cls(grammar, text, rule, recover,
                   float(timeout) if timeout is not None else None, tree)


class Response:
    """Transport-agnostic response: JSON dict or pre-rendered text."""

    __slots__ = ("status", "body", "content_type", "retry_after")

    def __init__(self, status: int, body, content_type: str = "application/json",
                 retry_after: Optional[float] = None):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.retry_after = retry_after

    def body_bytes(self) -> bytes:
        if isinstance(self.body, (bytes, bytearray)):
            return bytes(self.body)
        if isinstance(self.body, str):
            return self.body.encode("utf-8")
        return (json.dumps(self.body, sort_keys=True) + "\n").encode("utf-8")


class ParseService:
    """One long-lived parse service instance (one event loop)."""

    def __init__(self, registry: Optional[GrammarRegistry] = None,
                 config: Optional[ServiceConfig] = None,
                 telemetry: Optional[ParseTelemetry] = None,
                 chaos=None, clock=time.monotonic):
        self.config = config or ServiceConfig()
        self.telemetry = telemetry or ParseTelemetry(capture_events=False)
        self.metrics = self.telemetry.metrics
        self.registry = registry or GrammarRegistry(
            cache_dir=self.config.cache_dir, max_hosts=self.config.max_hosts,
            telemetry=self.telemetry)
        if self.registry.telemetry is None:
            self.registry.telemetry = self.telemetry
        self.chaos = chaos
        self._clock = clock
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            queue_limit=self.config.queue_limit,
            retry_after=self.config.retry_after, clock=clock)
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.draining = False
        self.started_at = time.monotonic()
        self._request_ids = itertools.count(1)
        #: DegradationEvents emitted by the service layer, newest last.
        self.events: List[DegradationEvent] = []
        m = self.metrics
        self._req_seconds = m.histogram(
            "llstar_serve_request_seconds", "parse request latency",
            buckets=LATENCY_BUCKETS)
        self._tokens_total = m.counter(
            "llstar_serve_parse_tokens_total", "tokens lexed by the service")
        self._degraded_gauge = m.gauge(
            "llstar_serve_degraded",
            "1 while pool execution is degraded to inline")
        self._queue_peak = m.gauge(
            "llstar_serve_queue_peak", "high-water mark of the request queue")
        # One pool for the life of the service.  Inline parses (jobs=0,
        # or while degraded) feed the shared, thread-safe telemetry
        # directly; pooled parses report through their outcome dicts.
        self._pool = WorkerPool(
            self.config.jobs, self.registry.cache_dir,
            threads=self.config.max_concurrency, telemetry=self.telemetry,
            listener=self._on_pool_event, clock=clock)

    @property
    def degraded(self) -> bool:
        """True while pool execution is degraded to inline parsing."""
        return self._pool.degraded

    @property
    def pool_rebuilds(self) -> int:
        """Worker-pool deaths since the pool last recovered."""
        return self._pool.deaths

    def close(self) -> None:
        """Synchronous teardown of the worker pool (idempotent)."""
        self._pool.close()

    def _on_pool_event(self, kind: str, reason: str) -> None:
        if kind == DEATH:
            self.metrics.counter("llstar_serve_pool_rebuilds_total",
                                 "worker pools torn down after death").inc()
            return
        # Degradation episodes go to the service's own events and gauge,
        # not to llstar_degradations_total, which counts DFA rebuilds.
        self._degraded_gauge.set(1 if kind == DEGRADED else 0)
        self.events.append(DegradationEvent(-1, "<serve>", reason))

    # -- breaker plumbing -------------------------------------------------------

    def breaker(self, grammar: str) -> CircuitBreaker:
        breaker = self.breakers.get(grammar)
        if breaker is None:
            breaker = self.breakers[grammar] = CircuitBreaker(
                name=grammar, threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown,
                half_open_probes=self.config.half_open_probes,
                clock=self._clock, on_transition=self._on_breaker_transition)
        return breaker

    def _on_breaker_transition(self, name: str, frm: str, to: str) -> None:
        self.metrics.counter(
            "llstar_serve_breaker_transitions_total",
            "circuit state changes", labels={"to": to}).inc()
        self.metrics.gauge(
            "llstar_serve_breaker_state",
            "0 closed / 1 open / 2 half-open", labels={"grammar": name}
        ).set(STATE_CODES[to])

    # -- request execution ------------------------------------------------------

    async def _handle_parse(self, body: bytes) -> Response:
        started = time.perf_counter()
        if len(body) > self.config.max_body_bytes:
            raise RequestTooLargeError(
                "request body %d bytes exceeds limit %d"
                % (len(body), self.config.max_body_bytes))
        request = ParseRequest.from_body(body, self.config)
        if self.draining:
            raise DrainingError("service is draining; try another replica",
                                retry_after=self.config.retry_after)
        # One absolute deadline for the request's whole life: queue wait,
        # lex, parse, and recovery all race the same clamped instant.  It
        # lives on the service clock, like admission and the breakers.
        timeout = min(request.timeout or self.config.default_deadline,
                      self.config.deadline_ceiling)
        deadline_at = self._clock() + timeout
        grammar = self.registry.grammar(request.grammar)  # 404 early
        breaker = self.breaker(request.grammar)
        breaker.admit()  # CircuitOpenError -> 503 + Retry-After
        settled = False
        try:
            try:
                await self.admission.acquire(deadline_at)
            except (ServeError, BudgetExceededError):
                breaker.record_ignored()  # shed, not evidence of health
                settled = True
                raise
            try:
                # The parent always holds the host (single-flight compile):
                # inline parses run on it, and the pool republishes the
                # image workers boot from with it.
                host = await self.registry.host(request.grammar)
                request_id = "req-%d" % next(self._request_ids)
                # The parser checks time.monotonic(): hand it the time
                # left on the service clock as a deadline on that clock.
                parse_deadline = time.monotonic() + (deadline_at - self._clock())
                task = ParseTask(
                    request_id, request.text, rule_name=request.rule,
                    recover=request.recover,
                    budget=self.config.budget.with_deadline_at(parse_deadline),
                    want_tree=request.tree, chaos=self.chaos)
                outcome = await self._pool.run(grammar, host, task)
            finally:
                self.admission.release()
        except ServeError:
            if not settled:
                # GrammarLoadError etc.: deterministic grammar fault, not
                # evidence the infrastructure is sick.
                breaker.record_ignored()
                settled = True
            raise
        except BudgetExceededError:
            if not settled:
                breaker.record_failure()
                settled = True
            raise
        # Settle the breaker on the outcome: resource failures count,
        # recognition outcomes (the input's fault) do not.
        if outcome["error_type"] in RESOURCE_FAILURES:
            breaker.record_failure()
        else:
            breaker.record_success()
        self._queue_peak.track_max(self.admission.peak_queued)
        elapsed = time.perf_counter() - started
        self._req_seconds.observe(elapsed)
        self._tokens_total.inc(outcome["tokens"])
        return self._outcome_response(request, outcome, elapsed)

    def _outcome_response(self, request: ParseRequest, outcome: dict,
                          elapsed: float) -> Response:
        self.metrics.counter(
            "llstar_serve_parse_outcomes_total", "parse results by kind",
            labels={"outcome": self._outcome_kind(outcome)}).inc()
        body = {"ok": outcome["ok"], "grammar": request.grammar,
                "tokens": outcome["tokens"],
                "elapsed": round(outcome["elapsed"], 6),
                "service_elapsed": round(elapsed, 6),
                "worker_pid": outcome["worker_pid"],
                "degraded": self.degraded}
        if outcome["error_type"] == "BudgetExceededError":
            body.update(error_type=outcome["error_type"],
                        error=outcome["error"])
            return Response(504, body)
        if outcome["error_type"] in ("WorkerCrashError", "RecursionError"):
            body.update(error_type=outcome["error_type"],
                        error=outcome["error"])
            return Response(503, body,
                            retry_after=self.config.retry_after)
        if outcome["error_type"] is not None:  # recognition/lex failure
            body.update(error_type=outcome["error_type"],
                        error=outcome["error"])
            return Response(200, body)
        if outcome["syntax_errors"]:
            body.update(error_type="RecognitionError",
                        syntax_errors=outcome["syntax_errors"])
            return Response(200, body)
        if outcome["tree"] is not None:
            body["tree"] = outcome["tree"]
        return Response(200, body)

    @staticmethod
    def _outcome_kind(outcome: dict) -> str:
        if outcome["ok"]:
            return "ok"
        if outcome["error_type"] in ("BudgetExceededError",):
            return "budget"
        if outcome["error_type"] in ("WorkerCrashError", "RecursionError"):
            return "crash"
        return "syntax-error"

    # -- auxiliary endpoints ----------------------------------------------------

    def _handle_health(self) -> Response:
        # Liveness must stay cheap and unconditional: it is routed ahead
        # of admission control so saturation can never fail it.
        return Response(200, {
            "status": "ok",
            "uptime": round(time.monotonic() - self.started_at, 3),
            "draining": self.draining,
            "degraded": self.degraded,
        })

    def _handle_ready(self) -> Response:
        if self.draining:
            return Response(503, {"status": "draining"},
                            retry_after=self.config.retry_after)
        return Response(200, {
            "status": "ready",
            "degraded": self.degraded,
            "grammars": self.registry.names(),
        })

    def _handle_metrics(self) -> Response:
        # Refresh sampled gauges at scrape time.
        self.metrics.gauge("llstar_serve_queue_depth",
                           "requests waiting for an execution slot"
                           ).set(self.admission.queued)
        self.metrics.gauge("llstar_serve_inflight",
                           "requests executing").set(self.admission.executing)
        self.metrics.counter("llstar_serve_shed_total",
                             "requests shed by admission control"
                             ).value = self.admission.shed_total
        for name, breaker in self.breakers.items():
            self.metrics.gauge(
                "llstar_serve_breaker_state",
                "0 closed / 1 open / 2 half-open",
                labels={"grammar": name}).set(STATE_CODES[breaker.state])
        return Response(200, self.metrics.to_prometheus(),
                        content_type="text/plain; version=0.0.4")

    # -- dispatch ---------------------------------------------------------------

    async def handle(self, method: str, path: str, body: bytes = b"") -> Response:
        """Transport-agnostic dispatch.  Never raises: every failure is
        rendered as a typed JSON response."""
        route = "%s %s" % (method, path)
        try:
            if method == "GET" and path == "/healthz":
                response = self._handle_health()
            elif method == "GET" and path == "/readyz":
                response = self._handle_ready()
            elif method == "GET" and path == "/metrics":
                response = self._handle_metrics()
            elif method == "GET" and path == "/grammars":
                response = Response(200, self.registry.status())
            elif method == "POST" and path == "/parse":
                response = await self._handle_parse(body)
                route = "POST /parse"
            else:
                # One label value for every unknown route: a client's
                # paths must not each add a series to /metrics.
                route = "unmatched"
                response = Response(404, {
                    "ok": False, "error_type": "NotFound",
                    "error": "no route %s %s" % (method, path)})
        except ServeError as e:
            response = Response(e.status, e.to_body(), retry_after=e.retry_after)
        except BudgetExceededError as e:
            response = Response(504, {
                "ok": False, "error_type": "BudgetExceededError",
                "error": str(e)})
        except asyncio.CancelledError:
            raise
        except Exception as e:  # last-resort guard: typed, never raw
            response = Response(500, {
                "ok": False, "error_type": "InternalError",
                "error": "%s: %s" % (type(e).__name__, e)})
            self.metrics.counter("llstar_serve_internal_errors_total",
                                 "unexpected handler exceptions").inc()
        self.metrics.counter(
            "llstar_serve_requests_total", "requests by route and status",
            labels={"route": route, "status": str(response.status)}).inc()
        return response

    # -- drain ------------------------------------------------------------------

    async def drain(self, deadline: Optional[float] = None) -> bool:
        """Stop accepting parses, wait (bounded) for in-flight work.

        Returns True when everything finished inside the drain deadline;
        False when work was still running at the cutoff.  Idempotent.
        """
        self.draining = True
        cutoff = time.monotonic() + (deadline if deadline is not None
                                     else self.config.drain_deadline)
        while self.admission.executing > 0 or self.admission.queued > 0:
            if time.monotonic() >= cutoff:
                self.close()
                return False
            await asyncio.sleep(0.01)
        self.close()
        return True
