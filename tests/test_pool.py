"""The shared worker pool (:mod:`repro.pool`) behind batch and serve.

Both tiers boot workers from the artifact key, parse each input through
one function, and answer pool deaths with one supervisor.  These tests
pin what that buys: no worker ever runs static analysis, a deleted cache
image costs neither tier its pool, a pool death and its recovery are not
DFA rebuilds, and one corpus gets the same verdicts from every entry
point.
"""

import asyncio
import glob
import json
import multiprocessing
import os

import pytest

from repro import pool as pool_module
from repro.analysis.construction import AnalysisOptions, DecisionAnalyzer
from repro.api import compile_grammar
from repro.batch import BatchEngine
from repro.batch.worker import ChunkTask
from repro.exceptions import LLStarError
from repro.fuzz.generator import SentenceGenerator
from repro.grammars import load
from repro.pool import RETRY_COOLDOWN, PoolGrammar, WorkerPool
from repro.runtime.chaos import ServiceChaos
from repro.runtime.parser import ParserOptions
from repro.serve import GrammarRegistry, ParseService, ServiceConfig

CALC = r"""
grammar Calc;
s : stmt+ ;
stmt : ID '=' expr ';' ;
expr : term (('+'|'-') term)* ;
term : ID | INT | '(' expr ')' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""

SQL = load("sql").grammar_text
SQL_INPUTS = [load("sql").sample, "SELECT a FROM t ;", "SELECT FROM ;",
              "SELECT a , FROM t ;", ""]

#: Response fields that name the process or time the call.
VOLATILE = ("elapsed", "service_elapsed", "worker_pid")

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patches the parent before its pool workers fork")


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def service(jobs, grammars, cache_dir=None, registry=None, **kwargs):
    svc = ParseService(registry=registry, config=ServiceConfig(
        jobs=jobs, cache_dir=cache_dir, default_deadline=30.0), **kwargs)
    for name, text in grammars.items():
        svc.registry.register(name, text)
    return svc


def post_all(svc, docs):
    """POST every document to one service; returns ``(status, body)``
    pairs, then closes the service."""
    async def scenario():
        out = []
        for doc in docs:
            r = await asyncio.wait_for(svc.handle(
                "POST", "/parse", json.dumps(doc).encode()), 60)
            out.append((r.status, r.body))
        return out

    try:
        return asyncio.run(scenario())
    finally:
        svc.close()


def stable(body):
    return {k: v for k, v in body.items() if k not in VOLATILE}


def batch_rows(report):
    return [(r.input_id, r.ok, r.error_type, r.error, r.tokens)
            for r in report.results]


# -- no pool worker runs static analysis ---------------------------------------------


@needs_fork
class TestNoAnalysisInWorkers:
    """Every worker boots from the image the parent published; a
    ``create_dfa`` call outside the test's own process fails the test."""

    @pytest.fixture(autouse=True)
    def analysis_only_in_parent(self, monkeypatch):
        parent = os.getpid()
        create_dfa = DecisionAnalyzer.create_dfa

        def guarded(analyzer, *args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("static analysis ran in a pool worker")
            return create_dfa(analyzer, *args, **kwargs)

        monkeypatch.setattr(DecisionAnalyzer, "create_dfa", guarded)

    @pytest.mark.parametrize("cached", [False, True], ids=["private", "cache"])
    def test_batch(self, tmp_path, cached):
        cache = str(tmp_path / "cache") if cached else None
        corpus = [("in%d" % i, text) for i, text in enumerate(SQL_INPUTS)]
        inline = BatchEngine(SQL, name="sql", jobs=0, recover=True).run(corpus)
        pooled = BatchEngine(SQL, name="sql", jobs=1, recover=True,
                             cache_dir=cache).run(corpus)
        assert batch_rows(pooled) == batch_rows(inline)
        assert all(r.worker_pid != os.getpid() for r in pooled.results)
        if cached:
            assert len(glob.glob(os.path.join(cache, "*.llt"))) == 1

    @pytest.mark.parametrize("setup", ["private", "cache", "registry-options"])
    def test_serve(self, tmp_path, setup):
        cache = str(tmp_path / "cache")
        options = AnalysisOptions(max_recursion_depth=2)

        def build(jobs):
            if setup == "private":
                return service(jobs, {"sql": SQL})
            if setup == "cache":
                return service(jobs, {"sql": SQL},
                               cache_dir=cache if jobs else None)
            registry = GrammarRegistry(cache_dir=cache if jobs else None,
                                       options=options)
            return service(jobs, {"sql": SQL}, registry=registry)

        docs = [{"grammar": "sql", "text": text, "tree": True}
                for text in SQL_INPUTS]
        inline = post_all(build(0), docs)
        pooled = post_all(build(1), docs)
        assert [(s, stable(b)) for s, b in pooled] == \
            [(s, stable(b)) for s, b in inline]
        assert all(s == 200 for s, _ in pooled), pooled
        assert all(b["worker_pid"] != os.getpid() for _, b in pooled)
        if setup != "private":
            assert len(glob.glob(os.path.join(cache, "*.llt"))) == 1


def test_inline_service_publishes_nothing(monkeypatch):
    """``jobs=0`` builds nothing for workers: no image, no directory."""
    def refuse(*args, **kwargs):
        raise AssertionError("jobs=0 built something for workers")

    monkeypatch.setattr(pool_module, "_publish", refuse)
    monkeypatch.setattr(pool_module.tempfile, "TemporaryDirectory", refuse)
    responses = post_all(service(0, {"calc": CALC}),
                         [{"grammar": "calc", "text": "x = 1;"}] * 3)
    assert [status for status, _ in responses] == [200] * 3


# -- a deleted image costs no pool ---------------------------------------------------


def test_batch_keeps_its_pool_when_the_image_is_deleted(tmp_path):
    cache = str(tmp_path / "cache")
    engine = BatchEngine(SQL, name="sql", jobs=2, cache_dir=cache)
    (image,) = glob.glob(os.path.join(cache, "*.llt"))
    os.unlink(image)
    report = engine.run([("in%d" % i, SQL_INPUTS[0]) for i in range(8)])
    assert report.ok_count == 8
    assert report.pool_rebuilds == 0 and not report.degraded_to_inline
    assert all(r.worker_pid != os.getpid() for r in report.results)
    assert os.path.exists(image)  # republished from the parent's host


def test_serve_republishes_an_image_deleted_while_it_runs(tmp_path):
    cache = str(tmp_path / "cache")
    grammars = {"sql": SQL, "calc": CALC}
    calc_doc = {"grammar": "calc", "text": "x = (1 + y);", "tree": True}
    svc = service(1, grammars, cache_dir=cache)

    async def scenario():
        for name in grammars:
            await svc.registry.host(name)  # warm: both images on disk
        sql_doc = {"grammar": "sql", "text": SQL_INPUTS[0]}
        first = await svc.handle("POST", "/parse", json.dumps(sql_doc).encode())
        assert first.status == 200 and first.body["ok"]
        for image in glob.glob(os.path.join(cache, "*.llt")):
            os.unlink(image)
        return await svc.handle("POST", "/parse", json.dumps(calc_doc).encode())

    try:
        second = asyncio.run(scenario())
    finally:
        svc.close()
    ((_, inline),) = post_all(service(0, grammars), [calc_doc])
    assert second.status == 200
    assert second.body["worker_pid"] != os.getpid()
    assert stable(second.body) == stable(inline)


class TestWorkerThatCannotBoot:
    """A worker whose image is missing never fails an input: the parent
    republishes the image and retries once, then runs the unit inline."""

    CORPUS = [("in%d" % i, "x = %d + y;" % i) for i in range(4)]

    def run_with_publish(self, monkeypatch, tmp_path, lies):
        publish = pool_module._publish
        calls = []

        def flaky_publish(directory, grammar, host):
            calls.append(directory)
            if len(calls) <= lies:
                return True  # claims an image that is not on disk
            return publish(directory, grammar, host)

        monkeypatch.setattr(pool_module, "_publish", flaky_publish)
        host = compile_grammar(CALC)
        tasks = [ChunkTask([item], rule_name=None, budget=None, recover=False)
                 for item in self.CORPUS]
        pool = WorkerPool(1, str(tmp_path / "cache"))
        try:
            outcomes = pool.map(PoolGrammar(CALC), host, tasks)
        finally:
            pool.close(wait=True)
        assert pool.deaths == 0 and not pool.degraded
        return [row for rows, _, _ in outcomes for row in rows]

    def test_retry_after_republishing(self, monkeypatch, tmp_path):
        rows = self.run_with_publish(monkeypatch, tmp_path, lies=1)
        assert all(r.ok for r in rows)
        assert all(r.worker_pid != os.getpid() for r in rows)

    def test_second_failure_runs_inline(self, monkeypatch, tmp_path):
        rows = self.run_with_publish(monkeypatch, tmp_path,
                                     lies=2 * len(self.CORPUS))
        assert all(r.ok for r in rows)
        assert all(r.worker_pid == os.getpid() for r in rows)


# -- a pool episode is not a DFA rebuild ---------------------------------------------


@pytest.mark.chaos
def test_pool_death_and_recovery_are_not_dfa_rebuilds():
    async def scenario():
        clock = FakeClock()
        chaos = ServiceChaos(kill_rate=1.0)
        svc = service(1, {"calc": CALC}, chaos=chaos, clock=clock)
        doc = json.dumps({"grammar": "calc", "text": "x = 1;"}).encode()
        try:
            r = await svc.handle("POST", "/parse", doc)  # two deaths
            assert r.status == 503 and svc.degraded
            chaos.armed = False
            clock.advance(RETRY_COOLDOWN)
            r = await svc.handle("POST", "/parse", doc)  # the probe
            assert r.status == 200 and not svc.degraded
        finally:
            svc.close()
        reasons = [e.reason for e in svc.events]
        assert any("worker pool died" in reason for reason in reasons)
        assert any("recovered" in reason for reason in reasons)
        assert svc.metrics.value("llstar_degradations_total") == 0
        assert svc.metrics.value("llstar_serve_pool_rebuilds_total") == 2

    asyncio.run(scenario())


@pytest.mark.chaos
def test_concurrent_requests_count_each_pool_death_once():
    """Every request in flight on a pool that dies sees the death; it
    counts once per pool, so the pool degrades only when its rebuilt
    successor dies too (on the killed request's retry)."""
    async def scenario():
        svc = service(1, {"calc": CALC}, chaos=ServiceChaos(kill_ids={"req-1"}))
        await svc.registry.host("calc")
        doc = json.dumps({"grammar": "calc", "text": "x = 1;"}).encode()
        try:
            responses = await asyncio.wait_for(asyncio.gather(
                *[svc.handle("POST", "/parse", doc) for _ in range(4)]), 60)
        finally:
            svc.close()
        return svc, responses

    svc, responses = asyncio.run(scenario())
    assert sorted(r.status for r in responses) == [200, 200, 200, 503]
    assert svc.metrics.value("llstar_serve_pool_rebuilds_total") == 2
    assert svc.degraded


@pytest.mark.chaos
def test_a_failed_probe_leaves_room_for_the_next():
    """A recovery probe that dies restarts the cooldown; the probe after
    it gets a fresh pool, not the dead one."""
    async def scenario():
        clock = FakeClock()
        chaos = ServiceChaos(kill_rate=1.0)
        svc = service(1, {"calc": CALC}, chaos=chaos, clock=clock)
        doc = json.dumps({"grammar": "calc", "text": "x = 1;"}).encode()
        try:
            await svc.handle("POST", "/parse", doc)  # degrades
            clock.advance(RETRY_COOLDOWN)
            r = await svc.handle("POST", "/parse", doc)  # the probe dies
            assert r.status == 503 and svc.degraded
            chaos.armed = False
            clock.advance(RETRY_COOLDOWN)
            r = await svc.handle("POST", "/parse", doc)  # a fresh probe
            assert r.status == 200 and r.body["worker_pid"] != os.getpid()
            assert not svc.degraded
        finally:
            svc.close()
        reasons = [e.reason for e in svc.events]
        assert any("probe failed" in reason for reason in reasons)
        assert reasons[-1] == "worker pool recovered"

    asyncio.run(scenario())


# -- one corpus, every entry point ---------------------------------------------------


def corpus(host):
    """15 generated sentences, one mutation of each, an empty text and
    a lexer error."""
    gen = SentenceGenerator(host, seed=7)
    sentences = gen.generate(15)
    texts = [s.text for s in sentences] + [gen.mutate(s).text for s in sentences]
    items = [("s%d" % i, text) for i, text in enumerate(texts)
             if text is not None]
    return items + [("empty", ""), ("lexer-error", "Δ")]


def inline_verdict(host, text, recover, rule):
    tokens = 0
    try:
        stream = host.tokenize(text)
        tokens = len(stream.tokens()) - 1  # minus EOF
        parser = host.parser(stream, options=ParserOptions(recover=recover))
        parser.parse(rule)
    except LLStarError as e:
        return (False, type(e).__name__, tokens)
    return (False, "RecognitionError", tokens) if parser.errors \
        else (True, None, tokens)


def test_one_corpus_through_every_entry_point(tmp_path):
    grammars = {"sql": SQL, "calc": CALC}
    hosts = {name: compile_grammar(text, name=name)
             for name, text in grammars.items()}
    # Per (grammar, recover, rule): the inputs and each entry point's
    # rows.  ``rule`` None is the start rule; a lexer rule as the start
    # rule fails every input typed.
    cases = {}
    for name, host in hosts.items():
        items = corpus(host)
        assert len(items) >= 20
        for recover in (False, True):
            cases[name, recover, None] = items
            cases[name, recover, "ID"] = items[:1]
    verdicts = {case: {} for case in cases}
    batch_errors = {case: {} for case in cases}
    serve_details = {case: {} for case in cases}

    for case, items in cases.items():
        name, recover, rule = case
        verdicts[case]["inline"] = [
            inline_verdict(hosts[name], text, recover, rule)
            for _, text in items]

    cache = str(tmp_path / "cache")
    for label, jobs, cache_dir in (("batch-0", 0, None),
                                   ("batch-1", 1, None),
                                   ("batch-1-cache", 1, cache)):
        for case, items in cases.items():
            name, recover, rule = case
            report = BatchEngine(grammars[name], name=name, jobs=jobs,
                                 recover=recover, rule_name=rule,
                                 cache_dir=cache_dir).run(items)
            verdicts[case][label] = [(r.ok, r.error_type, r.tokens)
                                     for r in report.results]
            batch_errors[case][label] = [r.error for r in report.results]
            if jobs:
                assert all(r.worker_pid != os.getpid()
                           for r in report.results)

    for label, jobs, cache_dir in (("serve-0", 0, None),
                                   ("serve-1", 1, None),
                                   ("serve-1-cache", 1, cache)):
        docs, owners = [], []
        for case, items in cases.items():
            name, recover, rule = case
            for _, text in items:
                doc = {"grammar": name, "text": text, "recover": recover,
                       "tree": True}
                if rule is not None:
                    doc["rule"] = rule
                docs.append(doc)
                owners.append(case)
        responses = post_all(service(jobs, grammars, cache_dir=cache_dir),
                             docs)
        for case in cases:
            verdicts[case][label] = []
            serve_details[case][label] = []
        for case, (status, body) in zip(owners, responses):
            assert status == 200, body
            if jobs:
                assert body["worker_pid"] != os.getpid()
            verdicts[case][label].append(
                (body["ok"], body.get("error_type"), body["tokens"]))
            serve_details[case][label].append(
                (body.get("error"), body.get("syntax_errors"),
                 body.get("tree")))

    for case in cases:
        for table in (verdicts, batch_errors, serve_details):
            expected = next(iter(table[case].values()))
            for label, got in table[case].items():
                assert got == expected, (case, label)
    # The corpus reaches every outcome the entry points shape.
    kinds = {v[1] for by_label in verdicts.values()
             for v in by_label["inline"]}
    assert {None, "RecognitionError", "LexerError", "GrammarError"} <= kinds
