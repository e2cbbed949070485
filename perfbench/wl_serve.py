"""``serve``: ``llstar serve --jobs 1`` under a closed-loop HTTP client.

A subprocess runs ``llstar serve --suite --warm --cache DIR --jobs 1
--max-hosts 5``: one pool worker beside the event loop, and a host cap
below six grammars makes the registry evict and warm-boot again when a
request asks for the rarely used sixth grammar (3% of requests boot
one; see ``inputs.SERVE_BLOCK``).  The client is this process with two
keep-alive connections, one thread each; each thread sends its next
request only after the previous reply arrived.  Requests go out in
the generator's order, and one that warm-boots a grammar goes out
alone (3 of every 100), so the grammars the cap evicts, and so the
boot share, are the same in every run.  This process pins
itself to one CPU before it starts the server, so the server, its pool
worker and the client share that CPU: every hand-off between them is a
wake-up on the same CPU, and the calibration loop, run on that CPU,
measures the speed all three ran at.  Load runs in phases of
``PHASE_S``; between phases both connections are idle while the
calibration loop runs, so calibration never overlaps server work.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Optional

import cachebuild
import harness
import inputs
import reference

SETUP_REPEATS = 3
CONNECTIONS = 2
PHASE_S = 0.25
#: Calibration loops per sample between phases.
CALIB_LOOPS = 3
SPAWN_TIMEOUT_S = 120


class Server:
    """One ``llstar serve`` subprocess."""

    def __init__(self, cache_dir: str, trace_file: Optional[str] = None):
        env = dict(os.environ, PYTHONPATH=harness.SRC)
        args = ["serve", "--suite", "--warm", "--cache", cache_dir,
                "--jobs", "1", "--max-hosts", str(inputs.SERVE_MAX_HOSTS),
                "--port", "0"]
        if trace_file is None:
            cmd = [sys.executable, "-m", "repro.tools.cli"] + args
        else:
            cmd = [sys.executable, os.path.join(harness.ROOT, "perfbench",
                                                "serve_traced.py"),
                   trace_file] + args
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=harness.ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        self.port = None
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1].split()[0]
                                .rsplit(":", 1)[1])
                break
        self.startup_s = time.perf_counter() - t0
        if self.port is None:
            self.stop()
            raise RuntimeError("llstar serve did not start")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def registry_compiles(self) -> int:
        """Grammar boots the registry has run (``/grammars``)."""
        return json.loads(self.get("/grammars")[1])["compiles"]

    def stop(self, worker_pid: Optional[int] = None) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if worker_pid is not None:
            _reap(worker_pid)


def _reap(pid: int) -> None:
    """Make sure a pool worker outlived by its server is gone."""
    for _ in range(100):
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _post(conn, spec):
    body = json.dumps({"grammar": spec["grammar"], "text": spec["text"],
                       "tree": spec["tree"], "recover": True})
    t0 = time.perf_counter()
    conn.request("POST", "/parse", body,
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    data = resp.read()
    return time.perf_counter() - t0, resp.status, data


def run(seed: int, seconds: float, tracer=None) -> harness.Result:
    res = harness.Result("serve")
    specs = inputs.serve_requests(seed)
    ref = reference.load("serve", seed, inputs_digest=reference.digest_inputs(
        [(s["id"], s["text"] + str(s["tree"])) for s in specs]))
    cache_dir = cachebuild.ensure()
    harness.pin_to_one_cpu()

    trace_file = None
    if tracer is not None:
        trace_file = os.path.join(cachebuild.scratch_dir(), "serve-trace.json")
    servers, raw_setup, scaled_setup = harness.timed_setup(
        lambda: [lambda: Server(cache_dir, trace_file)], SETUP_REPEATS,
        teardown=lambda servers: servers[0].stop())
    server = servers[0]
    res.put("setup_s", harness.statistics.median(raw_setup),
            harness.statistics.median(scaled_setup))
    worker_pid = None
    try:
        # Untimed warm-up: the pool worker boots every grammar once, the
        # least requested first, so that it is the one the cap evicts.
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        for g in sorted(inputs.GRAMMARS, key=inputs.SERVE_BLOCK.count):
            spec = next(s for s in specs if s["grammar"] == g and s["valid"])
            _, status, data = _post(conn, spec)
            worker_pid = json.loads(data)["worker_pid"]
        conn.close()
        boots_before = server.registry_compiles()
        samples, wall = _load(server, specs, seconds, res)
        boots = server.registry_compiles() - boots_before
        res.extra["boot_share"] = boots / len(samples)
        res.notes.append("%d registry warm boots during load (%.1f%% of "
                         "requests)" % (boots, 100.0 * boots / len(samples)))
        res.put("peak_rss_mb", harness.peak_rss_mb(server.proc.pid)
                + (harness.peak_rss_mb(worker_pid)
                   if worker_pid != server.proc.pid else 0.0))
        if tracer is not None:
            tracer.count("registry_boots", boots)
            server.get("/metrics")
    finally:
        server.stop(worker_pid)
    _check(samples, specs, ref, res)
    if tracer is not None:
        tracer.serve_samples(samples, wall, trace_file)
    return res


def _load(server, specs, seconds, res):
    """Closed-loop phases; returns one dict per request."""
    samples = []
    turn = threading.Condition()
    # cursor: next request index; started: requests sent so far;
    # in_flight: requests sent and not answered; booting: whether a
    # request that boots a grammar is in flight.
    state = {"cursor": 0, "started": 0, "in_flight": 0, "booting": False}
    conns = [http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
             for _ in range(CONNECTIONS)]
    clock = harness.Clock(CALIB_LOOPS)   # one operation per phase

    def client(conn, phase, until):
        while time.perf_counter() < until:
            with turn:
                k = state["cursor"]
                state["cursor"] += 1
                spec = specs[k % len(specs)]
                # Requests go out in index order, and one that boots a
                # grammar goes out alone, so the registry admits the
                # booted grammar before it sees the next request and
                # the cap evicts the grammar the generator planned for.
                turn.wait_for(lambda: state["started"] == k
                              and not state["booting"]
                              and not (spec["boot"] and state["in_flight"]))
                state["started"] += 1
                state["in_flight"] += 1
                state["booting"] = spec["boot"]
                turn.notify_all()
            t0 = time.perf_counter()
            try:
                latency, status, data = _post(conn, spec)
            except (OSError, http.client.HTTPException):
                # A failed exchange counts as a failed request (no
                # status); the connection reopens for the next one.
                conn.close()
                latency, status, data = time.perf_counter() - t0, None, b""
            with turn:
                state["in_flight"] -= 1
                if spec["boot"]:
                    state["booting"] = False
                turn.notify_all()
                samples.append({"k": k, "phase": phase, "latency": latency,
                                "status": status, "body": data})

    measured = 0.0
    phase = 0
    try:
        while harness.keep_going(measured, seconds, len(samples)):
            t0 = time.perf_counter()
            until = t0 + min(PHASE_S, max(seconds - measured, PHASE_S / 5))
            threads = [threading.Thread(target=client, args=(c, phase, until))
                       for c in conns]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            took = time.perf_counter() - t0
            measured += took
            clock.op_done(took)
            phase += 1
    finally:
        for c in conns:
            c.close()

    raw = [s["latency"] for s in samples]
    scaled = [s["latency"] / clock.factor(s["phase"]) for s in samples]
    wall_raw = sum(clock.raw)
    wall_scaled = sum(clock.finish())
    tokens = 0
    for s in samples:
        try:
            s["doc"] = json.loads(s["body"])
            tokens += s["doc"].get("tokens", 0)
        except ValueError:
            s["doc"] = None
    res.calib_s = clock.calib_median
    res.put_rates(tokens, len(raw), wall_raw, wall_scaled)
    res.put_latencies(raw, scaled)
    res.notes.append("%d requests over %d connections in %d phases, "
                     "%d tokens; peak_rss_mb is server plus pool worker"
                     % (len(raw), CONNECTIONS, phase, tokens))
    return samples, wall_raw


def _check(samples, specs, ref, res) -> None:
    if ref is None:
        res.notes.append("seed has no stored digests; checked labels only")
    for s in samples:
        index = s["k"] % len(specs)
        spec = specs[index]
        res.attempted += 1
        doc = s["doc"]
        if s["status"] != 200 or doc is None:
            res.fail("%s: HTTP %s" % (spec["id"], s["status"]))
            continue
        if doc.get("ok") is not spec["valid"]:
            res.fail("%s: ok=%s but input is %s" % (
                spec["id"], doc.get("ok"),
                "valid" if spec["valid"] else "invalid"))
            continue
        if spec["valid"] and spec["tree"] and not doc.get("tree"):
            res.fail("%s: tree requested but missing" % spec["id"])
            continue
        if ref is None:
            continue
        want = ref["tokens"][index]
        if doc.get("tokens") != want:
            res.fail("%s: %s tokens, reference %d"
                     % (spec["id"], doc.get("tokens"), want))
        elif (spec["valid"] and spec["tree"]
              and reference.text_digest(doc["tree"]) != ref["trees"][index]):
            res.fail("%s: tree digest differs from reference" % spec["id"])
