"""Warm start from the ``.llt`` image vs a cold compile, per grammar.

Two measurements on the Table-1 suite:

1. **Start latency** — a warm ``compile_grammar`` maps the grammar's
   ``.llt`` image (no analysis, no structural validation; table rows are
   ``memoryview`` slices over the mapping) and must beat the cold
   compile that published the image, on every grammar.
2. **Worker footprint** — four forked batch workers booted from the
   artifact key alone (each maps the one published image) report their
   aggregate proportional set size.  This is a reported row, not a
   claim: no other worker boot mode is left to compare it with.

Results land in ``benchmarks/results/mmap_start.txt``.
"""

import multiprocessing
import os
import time

import pytest

from repro.api import compile_grammar
from repro.grammars import PAPER_ORDER, load
from repro.pool import PoolGrammar, worker_host

from conftest import emit_table

REPEATS = 5
WORKERS = 4
PSS_GRAMMAR = "java"  # largest suite grammar: most table bytes to share


def _best(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _self_pss_kb():
    with open("/proc/self/smaps_rollup") as f:
        for line in f:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    raise RuntimeError("no Pss in smaps_rollup")


def _measure_pool_pss_kb(cache_dir, grammar, sample):
    """Boot WORKERS real processes the way a pool worker boots (from the
    image in ``cache_dir`` and ``grammar``'s artifact key), parse the
    sample in each (faulting every hot table page in), and return their
    PSS readings."""
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()

    def boot(q):
        worker_host(cache_dir, grammar.boot).parse(sample)
        q.put(_self_pss_kb())

    procs = [ctx.Process(target=boot, args=(queue,)) for _ in range(WORKERS)]
    for p in procs:
        p.start()
    readings = [queue.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
    return readings


def _append(lines):
    with open(os.path.join(os.path.dirname(__file__), "results",
                           "mmap_start.txt"), "a") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))


def _aligned(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    return ["  ".join(str(c).ljust(widths[i]) for i, c in enumerate(r))
            for r in [header] + rows]


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="needs linux smaps accounting")
def test_mmap_start(tmp_path_factory, paper_names):
    cache_dir = str(tmp_path_factory.mktemp("llt-bench"))
    rows = []
    slower = []

    for name in PAPER_ORDER:
        text = load(name).grammar_text

        started = time.perf_counter()
        cold = compile_grammar(text, cache_dir=cache_dir)
        cold_s = time.perf_counter() - started
        assert not cold.from_cache

        def warm():
            host = compile_grammar(text, cache_dir=cache_dir)
            assert host.from_cache and host.mapped_artifact is not None
            return host

        warm_s = _best(warm)
        if warm_s >= cold_s:
            slower.append(name)
        rows.append((paper_names[name], cold.analysis.num_decisions,
                     "%.3fs" % cold_s, "%.1fms" % (warm_s * 1e3),
                     "%.0fx" % (cold_s / warm_s)))

    emit_table(
        "mmap_start",
        "Warm start from the .llt image vs cold compile "
        "(cold: one compile that also publishes the image; warm: best of %d)"
        % REPEATS,
        ("Grammar", "n", "Cold", "Warm", "Speedup"), rows)
    assert slower == [], "warm start must beat the cold compile"

    # --- 4-worker pool footprint on the largest grammar ---------------
    bench = load(PSS_GRAMMAR)
    pss = _measure_pool_pss_kb(cache_dir, PoolGrammar(bench.grammar_text),
                               bench.sample)
    _append(["", "%d-worker pool footprint (%s grammar, forked workers)"
             % (WORKERS, paper_names[PSS_GRAMMAR]), ""] + _aligned(
        ("Worker boot", "workers", "aggregate PSS", "per worker"),
        [("artifact key (mapped image)", WORKERS, "%d kB" % sum(pss),
          "%d kB" % (sum(pss) // WORKERS))]))


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="needs linux smaps accounting")
def test_lazy_classification_warm_start(tmp_path_factory, paper_names):
    """Deferred decision classification on the warm-start path.

    ``DecisionRecord.category``/``fixed_k`` derive lazily: classifying a
    zero-copy record walks its table arrays, i.e. faults mmap pages in
    and (for the shape sweep) allocates private memory — warm starts
    that never ask for Table-1 aggregates shouldn't pay either.  Timed
    as warm start alone vs warm start plus a full classification sweep,
    and as per-worker PSS with and without the sweep.
    """
    cache_dir = str(tmp_path_factory.mktemp("llt-lazy"))
    bench = load(PSS_GRAMMAR)
    text = bench.grammar_text
    compile_grammar(text, cache_dir=cache_dir)  # publish the sidecar

    def warm_lazy():
        host = compile_grammar(text, cache_dir=cache_dir)
        assert host.from_cache
        return host

    def warm_forced():
        host = warm_lazy()
        for record in host.analysis.records:
            record.category  # walks the table arrays
        return host

    lazy_s = _best(warm_lazy)
    forced_s = _best(warm_forced)
    assert all(r._category is None for r in warm_lazy().analysis.records)
    assert lazy_s <= forced_s, \
        "skipping the classification sweep cannot be slower than running it"

    # Per-worker private-memory cost of the sweep, measured before/after
    # inside the same forked worker (worker-to-worker PSS varies by MBs;
    # the in-process delta isolates what classification itself touches).
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()

    def boot(q):
        host = compile_grammar(text, cache_dir=cache_dir)
        before = _self_pss_kb()
        for record in host.analysis.records:
            record.category
        q.put((before, _self_pss_kb()))

    procs = [ctx.Process(target=boot, args=(queue,))
             for _ in range(WORKERS)]
    for p in procs:
        p.start()
    readings = [queue.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
    lazy_pss = sum(before for before, _ in readings)
    forced_pss = sum(after for _, after in readings)

    rows = [
        ("warm start, classification deferred", "%.1fms" % (lazy_s * 1e3),
         "%d kB" % (lazy_pss // WORKERS)),
        ("warm start + classify all decisions", "%.1fms" % (forced_s * 1e3),
         "%d kB" % (forced_pss // WORKERS)),
        ("delta per worker", "%.1fms" % ((forced_s - lazy_s) * 1e3),
         "%+d kB" % ((forced_pss - lazy_pss) // WORKERS)),
    ]
    header = ("Warm boot (%s grammar)" % paper_names[PSS_GRAMMAR],
              "best of %d" % REPEATS, "PSS/worker")
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(3)]
    lines = ["", "Lazy decision classification on the warm path", ""]
    for r in [header] + rows:
        lines.append("  ".join(str(c).ljust(widths[i])
                               for i, c in enumerate(r)))
    with open(os.path.join(os.path.dirname(__file__), "results",
                           "mmap_start.txt"), "a") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
