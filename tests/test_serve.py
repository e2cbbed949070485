"""The serve layer: breaker, admission, registry, service, transports.

Everything here is deterministic: circuit-breaker cooldowns run on a
fake clock, admission tests drive the event loop directly with
``asyncio.run``, and the HTTP round-trips bind an ephemeral port.
"""

import asyncio
import json

import pytest

from repro.exceptions import BudgetExceededError
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    CircuitBreaker,
    CircuitOpenError,
    GrammarLoadError,
    GrammarRegistry,
    ParseRequest,
    ParseService,
    ServiceConfig,
    SheddingError,
    UnknownGrammarError,
    handle_line,
    serve_http,
)
from repro.serve.service import RECOVER_DEFAULT, Response

EXPR = """
grammar Expr;
s : e ;
e : e '+' t | t ;
t : '(' e ')' | NUM ;
NUM : [0-9]+ ;
WS : ' ' -> skip ;
"""

AB = "grammar Ab; s : A B ; A : 'a' ; B : 'b' ; WS : ' ' -> skip ;"


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def service_for(**kwargs):
    kwargs.setdefault("jobs", 0)
    kwargs.setdefault("default_deadline", 5.0)
    svc = ParseService(config=ServiceConfig(**kwargs))
    svc.registry.register("expr", EXPR)
    return svc


async def parse(svc, doc):
    return await svc.handle("POST", "/parse", json.dumps(doc).encode())


# -- circuit breaker -----------------------------------------------------------------


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        b = CircuitBreaker(threshold=3, clock=FakeClock())
        for _ in range(2):
            b.admit()
            b.record_failure()
        assert b.state == CLOSED
        b.admit()  # still admitting

    def test_success_resets_the_streak(self):
        b = CircuitBreaker(threshold=3, clock=FakeClock())
        for _ in range(5):
            b.record_failure()
            b.record_failure()
            b.record_success()
        assert b.state == CLOSED

    def test_opens_at_threshold_and_rejects(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, cooldown=5.0, clock=clock)
        for _ in range(3):
            b.record_failure()
        assert b.state == OPEN
        with pytest.raises(CircuitOpenError) as ei:
            b.admit()
        assert ei.value.status == 503
        assert 0 < ei.value.retry_after <= 5.0

    def test_cooldown_moves_to_half_open_with_bounded_probes(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        b.record_failure()
        clock.advance(5.0)
        assert b.state == HALF_OPEN
        b.admit()  # the probe slot
        with pytest.raises(CircuitOpenError):
            b.admit()  # second concurrent request: still rejected

    def test_probe_success_closes(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        b.record_failure()
        clock.advance(5.0)
        b.admit()
        b.record_success()
        assert b.state == CLOSED
        assert (HALF_OPEN, CLOSED) in b.transitions

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        b.record_failure()
        clock.advance(5.0)
        b.admit()
        b.record_failure()
        assert b.state == OPEN
        clock.advance(4.9)
        assert b.state == OPEN  # full cooldown again, not the remainder
        clock.advance(0.2)
        assert b.state == HALF_OPEN

    def test_record_ignored_frees_probe_slot_without_closing(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        b.record_failure()
        clock.advance(1.0)
        b.admit()
        b.record_ignored()
        assert b.state == HALF_OPEN  # no verdict -> stay probing
        b.admit()  # the slot is free again

    def test_transition_hook_fires(self):
        seen = []
        b = CircuitBreaker(name="g", threshold=1, clock=FakeClock(),
                           on_transition=lambda n, f, t: seen.append((n, f, t)))
        b.record_failure()
        assert seen == [("g", CLOSED, OPEN)]


# -- admission control ---------------------------------------------------------------


class TestAdmission:
    def test_sheds_when_queue_full(self):
        async def scenario():
            a = AdmissionController(max_concurrency=1, queue_limit=0)
            await a.acquire()
            with pytest.raises(SheddingError) as ei:
                await a.acquire()
            assert ei.value.status == 429
            assert ei.value.retry_after >= 1.0
            assert a.shed_total == 1
            a.release()
            await a.acquire()  # slot free again

        asyncio.run(scenario())

    def test_queued_request_runs_when_slot_frees(self):
        async def scenario():
            a = AdmissionController(max_concurrency=1, queue_limit=4)
            await a.acquire()
            waiter = asyncio.ensure_future(a.acquire())
            await asyncio.sleep(0)
            assert a.queued == 1 and a.executing == 1
            a.release()
            await waiter
            assert a.queued == 0 and a.executing == 1

        asyncio.run(scenario())

    def test_deadline_expires_while_queued(self):
        async def scenario():
            a = AdmissionController(max_concurrency=1, queue_limit=4)
            await a.acquire()
            with pytest.raises(BudgetExceededError) as ei:
                await a.acquire(deadline_at=a._clock() + 0.02)
            assert ei.value.resource == "deadline"
            assert a.queued == 0  # the dead waiter left the room

        asyncio.run(scenario())

    def test_already_expired_deadline_never_waits(self):
        async def scenario():
            a = AdmissionController(max_concurrency=1, queue_limit=4)
            await a.acquire()
            with pytest.raises(BudgetExceededError):
                await a.acquire(deadline_at=a._clock() - 1.0)

        asyncio.run(scenario())


# -- grammar registry ----------------------------------------------------------------


class TestRegistry:
    def test_unknown_grammar_is_typed(self):
        reg = GrammarRegistry()
        with pytest.raises(UnknownGrammarError) as ei:
            reg.source("nope")
        assert ei.value.status == 404

    def test_lazy_compile_then_cached(self):
        async def scenario():
            reg = GrammarRegistry()
            reg.register("expr", EXPR)
            assert reg.status()["grammars"]["expr"] == "lazy"
            host = await reg.host("expr")
            assert host is await reg.host("expr")
            assert reg.compiles == 1
            assert reg.status()["grammars"]["expr"] == "ready"

        asyncio.run(scenario())

    def test_single_flight_coalesces_a_stampede(self):
        async def scenario():
            reg = GrammarRegistry()
            reg.register("expr", EXPR)
            hosts = await asyncio.gather(*[reg.host("expr")
                                           for _ in range(8)])
            assert len({id(h) for h in hosts}) == 1
            assert reg.compiles == 1
            assert reg.coalesced == 7

        asyncio.run(scenario())

    def test_compile_survives_first_caller_cancellation(self):
        async def scenario():
            reg = GrammarRegistry()
            reg.register("expr", EXPR)
            first = asyncio.ensure_future(reg.host("expr"))
            await asyncio.sleep(0)  # let it start the compile
            second = asyncio.ensure_future(reg.host("expr"))
            await asyncio.sleep(0)
            first.cancel()
            host = await second  # must NOT hang or be cancelled
            assert host is not None

        asyncio.run(scenario())

    def test_failed_compile_is_negatively_cached(self):
        async def scenario():
            reg = GrammarRegistry()
            reg.register("bad", "s : missing ;")
            for _ in range(2):
                with pytest.raises(GrammarLoadError) as ei:
                    await reg.host("bad")
                assert ei.value.status == 422
            assert reg.compiles == 1  # failed once, replayed after
            kinds = [d.kind for d in reg.diagnostics]
            assert kinds == ["load-failed"]

        asyncio.run(scenario())

    def test_corrupt_artifact_is_422_but_not_negatively_cached(self, monkeypatch):
        """An ArtifactFormatError is a cache fault: it surfaces as 422
        with a ``corrupt`` diagnostic, but the failure is NOT cached —
        the store evicted the damaged entry, so the next request must
        recompile cleanly instead of replaying the error."""
        import repro.api
        from repro.exceptions import ArtifactFormatError

        calls = {"n": 0}
        real = repro.api.compile_grammar

        def flaky(source, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ArtifactFormatError("checksum mismatch")
            return real(source, **kwargs)

        monkeypatch.setattr(repro.api, "compile_grammar", flaky)

        async def scenario():
            reg = GrammarRegistry()
            reg.register("expr", EXPR)
            with pytest.raises(GrammarLoadError) as ei:
                await reg.host("expr")
            assert ei.value.status == 422
            assert [d.kind for d in reg.diagnostics] == ["corrupt"]
            host = await reg.host("expr")  # recompiles, no cached failure
            assert host is not None
            assert reg.compiles == 2

        asyncio.run(scenario())

    def test_status_counts_mmap_backed_hosts(self, tmp_path):
        async def scenario():
            cache = str(tmp_path / "cache")
            warm_reg = GrammarRegistry(cache_dir=cache)
            warm_reg.register("expr", EXPR)
            await warm_reg.host("expr")  # cold: publishes the sidecar
            reg = GrammarRegistry(cache_dir=cache)
            reg.register("expr", EXPR)
            host = await reg.host("expr")
            assert host.mapped_artifact is not None
            assert reg.status()["mmap_backed_hosts"] == 1

        asyncio.run(scenario())

    def test_reregister_clears_failure_and_host(self):
        async def scenario():
            reg = GrammarRegistry()
            reg.register("g", "s : missing ;")
            with pytest.raises(GrammarLoadError):
                await reg.host("g")
            reg.register("g", AB)  # fixed version
            host = await reg.host("g")
            assert host is not None

        asyncio.run(scenario())

    def test_lru_eviction_emits_diagnostics(self):
        async def scenario():
            from repro.runtime.telemetry import ParseTelemetry

            telemetry = ParseTelemetry()
            reg = GrammarRegistry(max_hosts=1, telemetry=telemetry)
            reg.register("a", AB)
            reg.register("b", EXPR)
            await reg.host("a")
            await reg.host("b")  # evicts "a"
            assert reg.status()["resident_hosts"] == 1
            assert [d.kind for d in reg.diagnostics] == ["evicted"]
            assert telemetry.metrics.value(
                "llstar_serve_registry_events_total",
                {"event": "evicted"}) == 1
            # "a" still parses: it recompiles on next use.
            await reg.host("a")
            assert reg.compiles == 3

        asyncio.run(scenario())


# -- request validation --------------------------------------------------------------


class TestParseRequest:
    CONFIG = ServiceConfig()

    def good(self, **over):
        doc = {"grammar": "g", "text": "x"}
        doc.update(over)
        return json.dumps(doc).encode()

    def test_accepts_minimal(self):
        req = ParseRequest.from_body(self.good(), self.CONFIG)
        assert (req.grammar, req.text) == ("g", "x")
        assert req.recover is RECOVER_DEFAULT

    @pytest.mark.parametrize("body", [
        b"", b"not json", b"[1,2]", b'"str"',
        b'{"text": "x"}',                       # missing grammar
        b'{"grammar": "", "text": "x"}',        # empty grammar
        b'{"grammar": "g"}',                    # missing text
        b'{"grammar": "g", "text": 7}',
        b'{"grammar": "g", "text": "x", "timeout": 0}',
        b'{"grammar": "g", "text": "x", "timeout": -2}',
        b'{"grammar": "g", "text": "x", "timeout": true}',
        b'{"grammar": "g", "text": "x", "recover": "yes"}',
        b'{"grammar": "g", "text": "x", "rule": 3}',
        b'{"grammar": "g", "text": "x", "surprise": 1}',
    ])
    def test_malformations_are_typed_400s(self, body):
        from repro.serve import BadRequestError

        with pytest.raises(BadRequestError) as ei:
            ParseRequest.from_body(body, self.CONFIG)
        assert ei.value.status == 400


# -- the service ---------------------------------------------------------------------


class TestServiceRoutes:
    def test_health_and_ready(self):
        async def scenario():
            svc = service_for()
            health = await svc.handle("GET", "/healthz")
            assert health.status == 200 and health.body["status"] == "ok"
            ready = await svc.handle("GET", "/readyz")
            assert ready.status == 200
            assert ready.body["grammars"] == ["expr"]
            svc.close()

        asyncio.run(scenario())

    def test_parse_round_trip_with_tree(self):
        async def scenario():
            svc = service_for()
            r = await parse(svc, {"grammar": "expr", "text": "1+(2+3)",
                                  "tree": True})
            assert r.status == 200 and r.body["ok"] is True
            assert r.body["tree"].startswith("(s")
            assert r.body["tokens"] == 7
            svc.close()

        asyncio.run(scenario())

    def test_syntax_errors_are_200_not_5xx(self):
        async def scenario():
            svc = service_for()
            r = await parse(svc, {"grammar": "expr", "text": "1+)("})
            assert r.status == 200 and r.body["ok"] is False
            assert r.body["error_type"] == "RecognitionError"
            assert r.body["syntax_errors"]
            svc.close()

        asyncio.run(scenario())

    def test_lexer_start_rule_answers_like_an_unknown_rule(self):
        """Regression: ``"rule": "NUM"`` (a lexer rule) was a 500
        InternalError; it gets the status and body of an unknown rule."""
        async def scenario():
            svc = service_for()
            unknown = await parse(svc, {"grammar": "expr", "text": "1+2",
                                        "rule": "nonexistent"})
            lexer = await parse(svc, {"grammar": "expr", "text": "1+2",
                                      "rule": "NUM"})
            assert unknown.status == lexer.status == 200
            assert sorted(lexer.body) == sorted(unknown.body)
            assert lexer.body["ok"] is False
            assert lexer.body["error_type"] == "GrammarError"
            assert "NUM is a lexer rule" in lexer.body["error"]
            svc.close()

        asyncio.run(scenario())

    def test_unknown_grammar_404(self):
        async def scenario():
            svc = service_for()
            r = await parse(svc, {"grammar": "nope", "text": "x"})
            assert r.status == 404
            assert r.body["error_type"] == "UnknownGrammarError"
            svc.close()

        asyncio.run(scenario())

    def test_bad_body_400_and_unknown_route_404(self):
        async def scenario():
            svc = service_for()
            r = await svc.handle("POST", "/parse", b"{oops")
            assert r.status == 400
            r = await svc.handle("GET", "/bogus")
            assert r.status == 404
            svc.close()

        asyncio.run(scenario())

    def test_unknown_routes_share_one_metrics_series(self):
        """A scanner's distinct paths must not each add a
        ``llstar_serve_requests_total`` series: every unknown route
        counts under one label, and the 404 body still names it."""
        async def scenario():
            svc = service_for()
            for i in range(1000):
                r = await svc.handle("GET", "/scan/%d" % i)
                assert r.status == 404
            r = await svc.handle("BREW", "/healthz")
            assert r.status == 404
            assert "BREW /healthz" in r.body["error"]
            samples = svc.metrics.to_json()[
                "llstar_serve_requests_total"]["samples"]
            not_found = [s for s in samples if s["labels"]["status"] == "404"]
            assert not_found == [{"labels": {"route": "unmatched",
                                             "status": "404"},
                                  "value": 1001}]
            svc.close()

        asyncio.run(scenario())

    def test_oversized_body_413(self):
        async def scenario():
            svc = service_for(max_body_bytes=64)
            r = await svc.handle("POST", "/parse", b"x" * 65)
            assert r.status == 413
            svc.close()

        asyncio.run(scenario())

    def test_grammar_load_failure_is_422_and_breaker_neutral(self):
        async def scenario():
            svc = service_for()
            svc.registry.register("bad", "s : missing ;")
            for _ in range(svc.config.breaker_threshold + 2):
                r = await parse(svc, {"grammar": "bad", "text": "x"})
                assert r.status == 422
            # Deterministic grammar faults never open the circuit.
            assert svc.breaker("bad").state == CLOSED
            svc.close()

        asyncio.run(scenario())

    def test_deadline_clamped_by_ceiling_and_enforced(self):
        async def scenario():
            svc = service_for(deadline_ceiling=30.0)
            big = "1+" * 4000 + "1"
            r = await parse(svc, {"grammar": "expr", "text": big,
                                  "timeout": 0.0001})
            assert r.status == 504
            assert r.body["error_type"] == "BudgetExceededError"
            svc.close()

        asyncio.run(scenario())

    def test_draining_rejects_parses_but_not_health(self):
        async def scenario():
            svc = service_for()
            svc.draining = True
            r = await parse(svc, {"grammar": "expr", "text": "1"})
            assert r.status == 503
            assert r.body["error_type"] == "DrainingError"
            assert (await svc.handle("GET", "/healthz")).status == 200
            assert (await svc.handle("GET", "/readyz")).status == 503
            svc.close()

        asyncio.run(scenario())

    def test_metrics_exposition(self):
        async def scenario():
            svc = service_for()
            await parse(svc, {"grammar": "expr", "text": "1+2"})
            r = await svc.handle("GET", "/metrics")
            assert r.status == 200
            assert r.content_type.startswith("text/plain")
            text = r.body
            assert "llstar_serve_requests_total" in text
            assert "llstar_serve_request_seconds_bucket" in text
            assert 'outcome="ok"' in text
            svc.close()

        asyncio.run(scenario())

    def test_grammars_endpoint_reports_states(self):
        async def scenario():
            svc = service_for()
            await parse(svc, {"grammar": "expr", "text": "1"})
            r = await svc.handle("GET", "/grammars")
            assert r.body["grammars"]["expr"] == "ready"
            svc.close()

        asyncio.run(scenario())

    def test_response_body_bytes_forms(self):
        assert Response(200, {"a": 1}).body_bytes() == b'{"a": 1}\n'
        assert Response(200, "raw").body_bytes() == b"raw"
        assert Response(200, b"oct").body_bytes() == b"oct"


# -- HTTP transport ------------------------------------------------------------------


class TestHttpTransport:
    def test_keep_alive_round_trips_and_shutdown(self):
        async def scenario():
            svc = service_for()
            server, task = await serve_http(svc)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)

            async def roundtrip(doc):
                body = json.dumps(doc).encode()
                writer.write(b"POST /parse HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body) + body)
                await writer.drain()
                status_line = await reader.readline()
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    k, v = line.decode().split(":", 1)
                    headers[k.strip().lower()] = v.strip()
                payload = await reader.readexactly(
                    int(headers["content-length"]))
                return int(status_line.split()[1]), json.loads(payload)

            status, doc = await roundtrip({"grammar": "expr", "text": "1+2"})
            assert (status, doc["ok"]) == (200, True)
            # Same connection, second request (keep-alive).
            status, doc = await roundtrip({"grammar": "nope", "text": "x"})
            assert status == 404
            writer.close()
            assert await server.shutdown(drain_deadline=2.0) is True
            task.cancel()
            svc.close()

        asyncio.run(scenario())

    def test_malformed_http_is_400_never_hang(self):
        async def scenario():
            svc = service_for()
            server, task = await serve_http(svc)
            for raw in (b"GARBAGE\r\n\r\n",
                        b"GET /healthz SPDY/9\r\n\r\n",
                        b"POST /parse HTTP/1.1\r\nContent-Length: nope"
                        b"\r\n\r\n"):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(raw)
                await writer.drain()
                status = await asyncio.wait_for(reader.readline(), 5.0)
                assert b"400" in status
                writer.close()
            # Declared-oversize body rejected before it is read.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"POST /parse HTTP/1.1\r\nContent-Length: "
                         b"99999999\r\n\r\n")
            await writer.drain()
            status = await asyncio.wait_for(reader.readline(), 5.0)
            assert b"413" in status
            writer.close()
            await server.shutdown(drain_deadline=1.0)
            task.cancel()
            svc.close()

        asyncio.run(scenario())

    def test_retry_after_header_on_shedding(self):
        async def scenario():
            svc = service_for(max_concurrency=1, queue_limit=0)
            # Occupy the only slot so the HTTP request gets shed.
            await svc.admission.acquire()
            server, task = await serve_http(svc)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            body = json.dumps({"grammar": "expr", "text": "1"}).encode()
            writer.write(b"POST /parse HTTP/1.1\r\nContent-Length: %d"
                         b"\r\n\r\n" % len(body) + body)
            await writer.drain()
            status = await asyncio.wait_for(reader.readline(), 5.0)
            assert b"429" in status
            headers = (await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), 5.0)).decode().lower()
            assert "retry-after:" in headers
            writer.close()
            svc.admission.release()
            await server.shutdown(drain_deadline=1.0)
            task.cancel()
            svc.close()

        asyncio.run(scenario())


# -- stdio transport -----------------------------------------------------------------


class TestStdioTransport:
    def test_parse_health_metrics_ops(self):
        async def scenario():
            svc = service_for()
            out = json.loads(await handle_line(svc, json.dumps(
                {"grammar": "expr", "text": "1+2"})))
            assert out["status"] == 200 and out["body"]["ok"] is True
            out = json.loads(await handle_line(svc, '{"op": "health"}'))
            assert out["body"]["status"] == "ok"
            out = json.loads(await handle_line(svc, '{"op": "metrics"}'))
            assert "llstar_serve_requests_total" in out["body"]["text"]
            svc.close()

        asyncio.run(scenario())

    def test_malformed_lines_are_400_envelopes(self):
        async def scenario():
            svc = service_for()
            for line in ("{oops", "[1]", '{"op": "launch-missiles"}'):
                out = json.loads(await handle_line(svc, line))
                assert out["status"] == 400
                assert out["body"]["error_type"] == "BadRequestError"
            assert await handle_line(svc, "   ") is None
            svc.close()

        asyncio.run(scenario())
