"""``batch``: cold-compiled ``BatchEngine(jobs=0)`` over a seeded corpus.

Set-up is the cold compile of the six suite grammars (no cache), which
``llstar batch`` without ``--cache`` pays on every run.  The measured
loop is closed: one process, one thread.  Each round hands every
grammar's files of that round to the grammar's engine in one
``BatchEngine.run``, as ``llstar batch --jobs 0`` does with a corpus:
the engine splits them into its own chunks and pays its per-chunk costs
(worker context, telemetry, profiler, merges) once per chunk.  Per-file
latency is the engine's own ``BatchResult.elapsed``; calibration runs
between ``run`` calls.  Files cycle through the seed's rounds, in whole
rounds, until the time is up.
"""

from __future__ import annotations

import time

import harness
import inputs
import reference

SETUP_REPEATS = 2
#: Calibration loops per sample between ``run`` calls (each call parses
#: a grammar's round of files, about 0.1-0.3 s).
CALIB_SAMPLES = 3


def compile_steps():
    """The cold compile, one step per grammar."""
    from repro.batch.engine import BatchEngine
    from repro.grammars import load

    return [lambda g=g: BatchEngine(load(g).grammar_text, name=g, jobs=0)
            for g in inputs.GRAMMARS]


def run(seed: int, seconds: float, tracer=None) -> harness.Result:
    res = harness.Result("batch")
    harness.pin_to_one_cpu()
    rounds = inputs.batch_rounds(seed)
    ref = reference.load("batch", seed, inputs_digest=reference.digest_inputs(
        [(i, t) for rnd in rounds for i, _g, t in rnd]))
    if tracer is not None:
        tracer.phase("setup")
    engines, raw_setup, scaled_setup = harness.timed_setup(
        compile_steps, SETUP_REPEATS)
    engines = dict(zip(inputs.GRAMMARS, engines))
    res.put("setup_s", harness.statistics.median(raw_setup),
            harness.statistics.median(scaled_setup))
    if tracer is not None:
        tracer.after_setup(engines)
        tracer.phase("run")

    clock = harness.Clock(CALIB_SAMPLES)
    per_file = []   # (BatchResult.elapsed, index of its run call)
    tokens = 0
    started = time.perf_counter()
    r = 0
    # Whole rounds only, so every run has the same mix of files.
    while harness.keep_going(time.perf_counter() - started, seconds,
                             len(per_file)):
        k = r % len(rounds)
        for g, files in corpora(rounds[k]):
            if tracer is not None:
                tracer.tag(g)
            t0 = time.perf_counter()
            report = engines[g].run([(i, text) for _j, i, text in files])
            clock.op_done(time.perf_counter() - t0)
            if tracer is not None:
                tracer.count_report(g, report)
            for (j, input_id, _text), row in zip(files, report.results):
                per_file.append((row.elapsed, len(clock.raw) - 1))
                tokens += row.tokens
                res.attempted += 1
                if not row.ok:
                    res.fail("%s: valid input rejected: %s"
                             % (input_id, row.error))
                elif ref is not None and ref["tokens"][k][j] != row.tokens:
                    res.fail("%s: %d tokens, reference %d" % (
                        input_id, row.tokens, ref["tokens"][k][j]))
        r += 1
    res.calib_s = clock.calib_median
    res.put_rates(tokens, len(per_file), sum(clock.raw), sum(clock.finish()))
    res.put_latencies([e for e, _c in per_file],
                      [e / clock.factor(c) for e, c in per_file])
    res.put("peak_rss_mb", harness.peak_rss_mb())
    res.notes.append("%d files in %d BatchEngine.run calls, %d tokens; "
                     "requests_per_s counts files, p50/p99 are per file"
                     % (len(per_file), len(clock.raw), tokens))
    if tracer is not None:
        tracer.phase("verify")
    _verify_trees(engines, rounds[0], ref, res)
    return res


def corpora(files):
    """A round's files grouped per grammar, ``(grammar, [(index in
    round, input_id, text), ...])``, in the round's seeded order."""
    groups = {}
    for j, (input_id, g, text) in enumerate(files):
        groups.setdefault(g, []).append((j, input_id, text))
    return list(groups.items())


def _verify_trees(engines, files, ref, res) -> None:
    """Untimed: the first round's trees against the stored digests (or,
    for other seeds, the constructed labels only)."""
    if ref is None:
        res.notes.append("seed has no stored digests; checked labels only")
        return
    for (input_id, g, text), want in zip(files, ref["trees"]):
        tree = engines[g].host.parse(text)
        if reference.tree_digest(tree) != want:
            res.fail("%s: tree digest differs from reference" % input_id)
