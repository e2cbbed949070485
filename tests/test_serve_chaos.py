"""Service-layer chaos: the serve stack under injected faults.

The robustness contract under test (ISSUE 7):

* the service never hangs — every request settles inside a bound;
* malformed input of any shape yields a typed 4xx, never a 500;
* worker kills surface as typed crashes, trip the per-grammar breaker,
  and the breaker recovers through half-open probes once faults clear;
* repeated pool death degrades to inline parsing (service stays up) and
  un-degrades when a recovery probe finds a healthy pool.

All faults come from :class:`~repro.runtime.chaos.ServiceChaos`, whose
per-request-id hashing makes every scenario replayable.
"""

import asyncio
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.chaos import KILL, MALFORM, SLOW, ServiceChaos
from repro.serve import CLOSED, OPEN, ParseService, ServiceConfig

EXPR = """
grammar Expr;
s : e ;
e : e '+' t | t ;
t : '(' e ')' | NUM ;
NUM : [0-9]+ ;
WS : ' ' -> skip ;
"""

#: Upper bound on any single request in these tests; hitting it means
#: the service hung, which is itself a contract violation.
NEVER_HANG = 30.0


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


#: Fake-clock start values on both sides of the real monotonic clock:
#: the service must never compare an instant from one clock with the
#: other (a deadline stamped on the real clock looks long expired to a
#: fake clock running ahead of it, and never expires to one behind it).
CLOCK_STARTS = pytest.mark.parametrize(
    "clock_start", [time.monotonic() + 1e6, 0.0], ids=["ahead", "behind"])


def service_for(chaos=None, clock=None, **kwargs):
    kwargs.setdefault("jobs", 0)
    kwargs.setdefault("default_deadline", 5.0)
    extra = {"chaos": chaos}
    if clock is not None:
        extra["clock"] = clock
    svc = ParseService(config=ServiceConfig(**kwargs), **extra)
    svc.registry.register("expr", EXPR)
    return svc


async def parse(svc, doc):
    return await asyncio.wait_for(
        svc.handle("POST", "/parse", json.dumps(doc).encode()), NEVER_HANG)


# -- fault policy determinism --------------------------------------------------------


class TestServiceChaosPolicy:
    def test_assignment_is_per_id_deterministic(self):
        a = ServiceChaos(seed=7, kill_rate=0.2, slow_rate=0.2,
                         malform_rate=0.2)
        b = ServiceChaos(seed=7, kill_rate=0.2, slow_rate=0.2,
                         malform_rate=0.2)
        ids = ["req-%d" % i for i in range(200)]
        assert [a.fault_for(i) for i in ids] == [b.fault_for(i) for i in ids]
        kinds = {a.fault_for(i) for i in ids}
        assert {KILL, SLOW, MALFORM, None} <= kinds | {None}
        assert len(kinds - {None}) >= 2  # rates actually partition

    def test_seed_changes_the_assignment(self):
        ids = ["req-%d" % i for i in range(200)]
        a = [ServiceChaos(seed=1, kill_rate=0.3).fault_for(i) for i in ids]
        b = [ServiceChaos(seed=2, kill_rate=0.3).fault_for(i) for i in ids]
        assert a != b

    def test_kill_ids_force_kills_and_disarm_clears(self):
        chaos = ServiceChaos(kill_ids={"req-3"})
        assert chaos.fault_for("req-3") == KILL
        assert chaos.fault_for("req-4") is None
        chaos.armed = False
        assert chaos.fault_for("req-3") is None

    @given(st.binary(min_size=0, max_size=200), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_corrupt_body_is_deterministic_bytes(self, body, request_id):
        chaos = ServiceChaos(seed=5)
        one = chaos.corrupt_body(body, request_id)
        two = chaos.corrupt_body(body, request_id)
        assert one == two
        assert isinstance(one, bytes) and one


# -- malformed input: typed 4xx, never 500, never a hang -----------------------------


@pytest.mark.chaos
def test_corrupted_requests_never_500_and_never_hang():
    async def scenario():
        chaos = ServiceChaos(seed=11)
        svc = service_for()
        good = json.dumps({"grammar": "expr", "text": "1+2"}).encode()
        for i in range(60):
            body = chaos.corrupt_body(good, "req-%d" % i)
            response = await asyncio.wait_for(
                svc.handle("POST", "/parse", body), NEVER_HANG)
            # Damaged bytes may stay parseable JSON (bit flip inside a
            # string) -> 200/404 are legitimate; 5xx never is.
            assert response.status in (200, 400, 404, 413, 422), \
                (i, response.status, response.body)
            assert response.body["error_type"] != "InternalError"
        # The service is still healthy afterwards.
        ok = await parse(svc, {"grammar": "expr", "text": "1+2"})
        assert ok.status == 200 and ok.body["ok"] is True
        svc.close()

    asyncio.run(scenario())


# -- worker kills, the breaker, and recovery -----------------------------------------


@pytest.mark.chaos
@CLOCK_STARTS
def test_kills_trip_breaker_then_recover_after_faults_clear(clock_start):
    async def scenario():
        clock = FakeClock(clock_start)
        chaos = ServiceChaos(kill_rate=1.0)  # every parse draws KILL
        svc = service_for(chaos=chaos, clock=clock,
                          breaker_threshold=3, breaker_cooldown=5.0)
        # Inline kills surface as typed 503 crashes, not process death.
        for i in range(3):
            r = await parse(svc, {"grammar": "expr", "text": "1"})
            assert r.status == 503, (i, r.body)
            assert r.body["error_type"] == "WorkerCrashError"
        assert svc.breaker("expr").state == OPEN
        # Fast-fail while open: typed CircuitOpenError with Retry-After.
        r = await parse(svc, {"grammar": "expr", "text": "1"})
        assert r.status == 503
        assert r.body["error_type"] == "CircuitOpenError"
        assert r.retry_after is not None
        # Faults clear; cooldown elapses; the half-open probe succeeds.
        chaos.armed = False
        clock.advance(5.0)
        r = await parse(svc, {"grammar": "expr", "text": "1+2"})
        assert r.status == 200 and r.body["ok"] is True
        assert svc.breaker("expr").state == CLOSED
        svc.close()

    asyncio.run(scenario())


@pytest.mark.chaos
@CLOCK_STARTS
def test_persistent_faults_reopen_from_half_open(clock_start):
    async def scenario():
        clock = FakeClock(clock_start)
        chaos = ServiceChaos(kill_rate=1.0)
        svc = service_for(chaos=chaos, clock=clock,
                          breaker_threshold=2, breaker_cooldown=3.0)
        for _ in range(2):
            await parse(svc, {"grammar": "expr", "text": "1"})
        assert svc.breaker("expr").state == OPEN
        clock.advance(3.0)  # half-open; the probe still meets the fault
        r = await parse(svc, {"grammar": "expr", "text": "1"})
        assert r.body["error_type"] == "WorkerCrashError"
        assert svc.breaker("expr").state == OPEN  # slammed shut again
        svc.close()

    asyncio.run(scenario())


def test_targeted_kill_is_typed_and_non_fatal_inline():
    async def scenario():
        # Request ids are sequential (req-1, req-2, ...): kill only the
        # first and prove the blast radius is that one request.
        svc = service_for(chaos=ServiceChaos(kill_ids={"req-1"}))
        r = await parse(svc, {"grammar": "expr", "text": "1+2"})
        assert r.status == 503
        assert r.body["error_type"] == "WorkerCrashError"
        r = await parse(svc, {"grammar": "expr", "text": "1+2"})
        assert r.status == 200 and r.body["ok"] is True
        svc.close()

    asyncio.run(scenario())


# -- slow parses against the deadline ------------------------------------------------


@pytest.mark.chaos
def test_slow_parse_exceeds_deadline_as_504():
    async def scenario():
        chaos = ServiceChaos(slow_rate=1.0, slow_seconds=0.15)
        svc = service_for(chaos=chaos)
        r = await parse(svc, {"grammar": "expr", "text": "1+2+3",
                              "timeout": 0.05})
        assert r.status == 504
        assert r.body["error_type"] == "BudgetExceededError"
        # Deadline faults count as resource failures on the breaker.
        assert svc.breaker("expr")._consecutive == 1
        # A generous deadline absorbs the same slowness.
        r = await parse(svc, {"grammar": "expr", "text": "1+2+3",
                              "timeout": 10.0})
        assert r.status == 200 and r.body["ok"] is True
        svc.close()

    asyncio.run(scenario())


# -- load shedding -------------------------------------------------------------------


@pytest.mark.chaos
def test_saturation_sheds_429_and_keeps_breaker_neutral():
    async def scenario():
        svc = service_for(max_concurrency=1, queue_limit=0)
        await svc.admission.acquire()  # wedge the only slot
        try:
            for _ in range(5):
                r = await parse(svc, {"grammar": "expr", "text": "1"})
                assert r.status == 429
                assert r.body["error_type"] == "SheddingError"
                assert r.body["retry_after"] >= 1.0
        finally:
            svc.admission.release()
        assert svc.admission.shed_total == 5
        # Shedding is not the grammar's fault: circuit stays closed.
        assert svc.breaker("expr").state == CLOSED
        r = await parse(svc, {"grammar": "expr", "text": "1"})
        assert r.status == 200
        # Health stayed answerable throughout (routed before admission).
        assert (await svc.handle("GET", "/healthz")).status == 200
        svc.close()

    asyncio.run(scenario())


# -- drain under load ----------------------------------------------------------------


@pytest.mark.chaos
def test_drain_finishes_inflight_then_rejects():
    async def scenario():
        chaos = ServiceChaos(slow_rate=1.0, slow_seconds=0.2)
        svc = service_for(chaos=chaos)
        inflight = asyncio.ensure_future(
            parse(svc, {"grammar": "expr", "text": "1+2"}))
        await asyncio.sleep(0.05)  # it is now parsing (slowly)
        drained = await asyncio.wait_for(svc.drain(5.0), NEVER_HANG)
        assert drained is True
        r = await inflight  # the in-flight request completed normally
        assert r.status == 200 and r.body["ok"] is True
        # New work is refused after the drain began.
        r = await parse(svc, {"grammar": "expr", "text": "1"})
        assert r.status == 503 and r.body["error_type"] == "DrainingError"

    asyncio.run(scenario())


# -- pool death: rebuild once, then degrade, then recover ----------------------------


@pytest.mark.chaos
@CLOCK_STARTS
def test_pool_kills_degrade_to_inline_and_recover(clock_start):
    async def scenario():
        clock = FakeClock(clock_start)
        chaos = ServiceChaos(kill_rate=1.0)
        svc = service_for(chaos=chaos, clock=clock, jobs=1,
                          pool_rebuild_limit=1, pool_retry_cooldown=30.0)
        # Request 1: pool worker dies, the rebuilt pool's retry dies too
        # (same request id -> same fault), service degrades and serves
        # the request inline as a typed crash.
        r = await parse(svc, {"grammar": "expr", "text": "1+2"})
        assert r.status == 503
        assert r.body["error_type"] == "WorkerCrashError"
        assert svc.degraded is True
        assert svc.pool_rebuilds >= 2
        reasons = [e.reason for e in svc.events]
        assert any("worker pool died" in reason for reason in reasons)
        # Degraded-but-alive: with faults cleared, inline parsing works.
        chaos.armed = False
        r = await parse(svc, {"grammar": "expr", "text": "1+2"})
        assert r.status == 200 and r.body["ok"] is True
        assert r.body["degraded"] is True
        assert svc.metrics.value("llstar_serve_degraded") == 1
        # Cooldown elapses; the next request probes a fresh pool, which
        # survives, and the service un-degrades.
        clock.advance(30.0)
        r = await parse(svc, {"grammar": "expr", "text": "1+2+3"})
        assert r.status == 200 and r.body["ok"] is True
        assert svc.degraded is False
        assert any("recovered" in e.reason for e in svc.events)
        assert svc.metrics.value("llstar_serve_degraded") == 0
        svc.close()

    asyncio.run(scenario())
