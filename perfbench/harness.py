"""Shared measurement core: calibration, scaling, percentiles, results.

Machine speed on a small shared VM drifts by about +-20% within seconds,
so every timing is reported twice: raw, and scaled to a reference
machine speed.  A fixed pure-Python calibration loop (a toy lexer and
recursive-descent parser, so its working set resembles the program's)
is timed *between* operations, never during them.  An operation's
scaled duration is its raw duration times ``REF_CALIB_S`` divided by
the mean of the calibration samples taken just before and just after
it; a load phase that spans several concurrent operations (serve) uses
the samples around the phase.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: A typical calibration-loop time on the 2-vCPU VM this was built on
#: (CPython 3.11).  Scaled timings read as if the run had that speed.
REF_CALIB_S = 0.0020

#: A run measures at least this many operations, extending past
#: ``--seconds`` if needed (up to ``MAX_STRETCH`` times it, and at least
#: ``MIN_STRETCH_S``), so that ten samples lie beyond p99.
MIN_SAMPLES = 1010
MAX_STRETCH = 3.0
MIN_STRETCH_S = 60.0


def keep_going(elapsed: float, seconds: float, samples: int) -> bool:
    """Whether a measured loop that has run ``elapsed`` seconds and
    ``samples`` operations continues."""
    return elapsed < seconds or (
        samples < MIN_SAMPLES
        and elapsed < max(MAX_STRETCH * seconds, MIN_STRETCH_S))


def require_program() -> None:
    """Exit non-zero (before any output) when the program's sources are
    missing, e.g. in a directory that holds only the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program sources at %s\n" % SRC)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- calibration ---------------------------------------------------------------

class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


class _Node:
    __slots__ = ("op", "kids")

    def __init__(self, op, kids):
        self.op = op
        self.kids = kids


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}
_CALIB_TEXT = " ; ".join(
    "f%d(a%d + %d * (b%d - c%d) / %d, g(h%d %% %d), k%d)"
    % (i, i, i + 1, i, i, i % 7 + 1, i, i % 5 + 2, i) for i in range(24))


def _calib_lex(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == " ":
            i += 1
        elif c.isalpha():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            out.append(_Tok("id", text[i:j], i))
            i = j
        elif c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Tok("int", text[i:j], i))
            i = j
        else:
            out.append(_Tok(c, c, i))
            i += 1
    out.append(_Tok("eof", "", n))
    return out


class _CalibParser:
    def __init__(self, toks):
        self.toks = toks
        self.p = 0

    def la(self):
        return self.toks[self.p].kind

    def take(self):
        t = self.toks[self.p]
        self.p += 1
        return t

    def stmts(self):
        kids = [self.expr(0)]
        while self.la() == ";":
            self.take()
            kids.append(self.expr(0))
        return _Node("stmts", kids)

    def expr(self, min_prec):
        left = self.atom()
        while True:
            op = self.la()
            prec = _PREC.get(op)
            if prec is None or prec <= min_prec:
                return left
            self.take()
            left = _Node(op, [left, self.expr(prec)])

    def atom(self):
        t = self.take()
        if t.kind == "(":
            e = self.expr(0)
            self.take()
            return e
        if t.kind == "id" and self.la() == "(":
            self.take()
            args = [self.expr(0)]
            while self.la() == ",":
                self.take()
                args.append(self.expr(0))
            self.take()
            return _Node("call:" + t.text, args)
        return _Node(t.kind, [t.text])


def _calib_walk(node):
    total, stack = 0, [node]
    while stack:
        n = stack.pop()
        total += len(n.op)
        for k in n.kids:
            if type(k) is _Node:
                stack.append(k)
            else:
                total += len(k)
    return total


def calibration_loop() -> int:
    """The fixed calibration workload (about 1 ms)."""
    checksum = 0
    for _ in range(3):
        checksum += _calib_walk(_CalibParser(_calib_lex(_CALIB_TEXT)).stmts())
    return checksum


def calibrate() -> float:
    """One calibration sample: seconds for :func:`calibration_loop`.

    The cyclic GC is paused for the sample only, so that a collection
    the workload's garbage is due for lands in the workload's timing,
    not in the speed reference."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts from here on, on
    one CPU (the last).

    The CPUs of a small VM often run at different speeds at once, so a
    workload that the scheduler moves between them may be timed on one
    CPU and calibrated on the other; and a wake-up of a process waiting
    on another, idle CPU costs a scheduling delay that no calibration
    loop measures.  Pinned, an operation and the calibration samples
    around it share a CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Clock:
    """Operation timer with a calibration sample after every operation.

    ``op_done(raw)`` records one operation's raw duration and takes the
    next calibration sample; ``finish()`` returns the scaled durations.
    Operation ``i`` lies between samples ``i`` and ``i + 1`` and is
    scaled by their mean: the speed of a small VM flips within a second,
    so only adjacent samples track it.  A sample is the mean of
    ``loops`` calibration loops.
    """

    def __init__(self, loops: int = 1):
        self.loops = loops
        self.calib: List[float] = [self._sample()]
        self.raw: List[float] = []

    def _sample(self) -> float:
        return sum(calibrate() for _ in range(self.loops)) / self.loops

    def op_done(self, raw: float) -> None:
        self.raw.append(raw)
        self.calib.append(self._sample())

    def factor(self, i: int) -> float:
        """Speed factor for op ``i``: bracket calibration / reference."""
        return (self.calib[i] + self.calib[i + 1]) / 2.0 / REF_CALIB_S

    def finish(self) -> List[float]:
        return [r / self.factor(i) for i, r in enumerate(self.raw)]

    @property
    def calib_median(self) -> float:
        return statistics.median(self.calib)


def timed_setup(steps, repeats: int, teardown=None):
    """Run the set-up ``repeats`` times and time it.

    ``steps()`` returns the set-up as a list of callables, whose results
    make up the set-up's result list; each step is scaled like a
    :class:`Clock` operation, so a long set-up is split at natural
    boundaries (one grammar's compile) to keep calibration close.  The
    previous result is torn down (``teardown``) and garbage collected
    first, outside the timing.  Returns ``(last result, raw seconds
    list, scaled seconds list)``.
    """
    raw, scaled, result = [], [], None
    for _ in range(repeats):
        if result is not None and teardown is not None:
            teardown(result)
        result = None
        gc.collect()
        clock = Clock()
        result = []
        for step in steps():
            t0 = time.perf_counter()
            result.append(step())
            clock.op_done(time.perf_counter() - t0)
        raw.append(sum(clock.raw))
        scaled.append(sum(clock.finish()))
    return result, raw, scaled


# -- statistics ----------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile.

    Refuses (``ValueError``) when fewer than ten samples lie beyond the
    percentile, because such a tail value is one or two outliers rather
    than a measurement.
    """
    n = len(values)
    if n == 0 or not 0 < q < 100:
        raise ValueError("percentile needs samples and 0 < q < 100")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        raise ValueError(
            "p%g needs at least 10 samples beyond it; %d samples leave %d"
            % (q, n, n - rank))
    return sorted(values)[rank - 1]


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    path = "/proc/%s/status" % (pid if pid is not None else "self")
    with open(path) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in %s" % path)


# -- result --------------------------------------------------------------------

UNITS = {
    "setup_s": "s", "tokens_per_s": "1/s", "requests_per_s": "1/s",
    "p50_ms": "ms", "p99_ms": "ms", "peak_rss_mb": "MiB",
}


class Result:
    """End-to-end figures of one run, raw and scaled."""

    def __init__(self, workload: str):
        self.workload = workload
        self.raw: Dict[str, float] = {}
        self.scaled: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.calib_s = 0.0
        self.notes: List[str] = []
        #: Workload-specific figures printed with the raw metrics.
        self.extra: Dict[str, float] = {}

    def put(self, name: str, raw: float, scaled: Optional[float] = None):
        self.raw[name] = raw
        self.scaled[name] = raw if scaled is None else scaled

    def put_rates(self, tokens: int, ops: int, raw_s: float,
                  scaled_s: float) -> None:
        """``tokens_per_s`` and ``requests_per_s`` over the measured time."""
        self.put("tokens_per_s", tokens / raw_s, tokens / scaled_s)
        self.put("requests_per_s", ops / raw_s, ops / scaled_s)

    def put_latencies(self, raw: Sequence[float],
                      scaled: Sequence[float]) -> None:
        """``p50_ms`` and ``p99_ms`` of per-operation durations (s)."""
        for q in (50, 99):
            self.put("p%d_ms" % q, percentile(raw, q) * 1e3,
                     percentile(scaled, q) * 1e3)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def metrics(self) -> Dict[str, dict]:
        """The scaled end-to-end metrics, as the JSON result reports them."""
        return {name: {"value": self.scaled[name], "unit": UNITS[name]}
                for name in UNITS}

    def report_lines(self) -> List[str]:
        lines = ["workload %s: calibration median %.3f ms (reference %.3f ms, "
                 "speed factor %.3f); JSON reports scaled values"
                 % (self.workload, self.calib_s * 1e3, REF_CALIB_S * 1e3,
                    self.calib_s / REF_CALIB_S)]
        for name, unit in UNITS.items():
            lines.append("  %-14s %14.4f %-5s (raw %.4f)"
                         % (name, self.scaled[name], unit, self.raw[name]))
        lines.append("  %-14s %14.6f       (%d failed of %d attempted)"
                     % ("failed_share", self.failed_share, self.failed,
                        self.attempted))
        lines.extend("  note: " + n for n in self.notes)
        lines.extend("  FAILED: " + p for p in self.problems)
        lines.append("raw-metrics: " + json.dumps(
            dict(self.raw, calib_ms=self.calib_s * 1e3, **self.extra)))
        return lines
