"""``edit``: a seeded typing script through ``EditSession``.

Set-up boots the six grammars from the artifact cache and opens the
generated documents (time to first tree).  The loop is closed: one
process, one thread, one keystroke applied after the previous one
returned, in whole script cycles; calibration runs after each burst
of keystrokes, not inside one.  Bursts jump between documents and
restore the document's text when they complete; each burst's tree is
compared with the document's reference digest, and at the end every
session's tree must equal a from-scratch parse of its final text (the
incremental = from-scratch oracle).  Both checks run outside the timing.
"""

from __future__ import annotations

import time

import cachebuild
import harness
import inputs
import reference

SETUP_REPEATS = 3


def open_sessions(cache_dir, docs):
    """Warm boot the grammars and open every document: one session per
    document, keyed like ``docs``."""
    from repro.api import compile_grammar
    from repro.grammars import load
    from repro.runtime.incremental import EditSession

    hosts = {g: compile_grammar(load(g).grammar_text, name=g,
                                cache_dir=cache_dir)
             for g in inputs.GRAMMARS}
    return {doc: EditSession(hosts[doc.split("/")[0]], text, recover=True)
            for doc, text in docs.items()}


def run(seed: int, seconds: float, tracer=None) -> harness.Result:
    res = harness.Result("edit")
    harness.pin_to_one_cpu()
    docs = inputs.edit_documents(seed)
    ref = reference.load("edit", seed,
                         inputs_digest=reference.digest_inputs(
                             sorted(docs.items())))
    cache_dir = cachebuild.ensure()
    if tracer is not None:
        tracer.phase("setup")
    sessions, raw_setup, scaled_setup = harness.timed_setup(
        lambda: [lambda: open_sessions(cache_dir, docs)], SETUP_REPEATS)
    sessions = sessions[0]
    res.put("setup_s", harness.statistics.median(raw_setup),
            harness.statistics.median(scaled_setup))
    if ref is None:
        res.notes.append("seed has no stored digests; bursts checked against "
                         "the opening parse")
        want = {doc: reference.tree_digest(s.tree)
                for doc, s in sessions.items()}
    else:
        want = ref["trees"]
    if tracer is not None:
        tracer.after_setup({g: sessions[g + "/0"] for g in inputs.GRAMMARS})
        tracer.phase("run")

    clock = harness.Clock()
    keystrokes = []   # (raw seconds, index of its burst)
    doc_tokens = 0
    cycles = inputs.edit_cycles(seed, docs)
    started = time.perf_counter()
    # Whole cycles only, so every run has the same keystrokes per grammar.
    while harness.keep_going(time.perf_counter() - started, seconds,
                             len(keystrokes)):
        for burst in next(cycles):
            doc = burst[0][0]
            session = sessions[doc]
            for _doc, start, end, text in burst:
                t0 = time.perf_counter()
                session.edit(start, end, text)
                keystrokes.append((time.perf_counter() - t0, len(clock.raw)))
                doc_tokens += session.stream.size
                res.attempted += 1
                if tracer is not None:
                    tracer.count_edit(session)
            clock.op_done(sum(t for t, b in keystrokes[-len(burst):]))
            if reference.tree_digest(session.tree) != want[doc]:
                res.fail("%s: tree after a completed burst differs from the "
                         "document's reference" % doc)
    res.calib_s = clock.calib_median
    res.put_rates(doc_tokens, len(keystrokes), sum(clock.raw),
                  sum(clock.finish()))
    res.put_latencies([t for t, _b in keystrokes],
                      [t / clock.factor(b) for t, b in keystrokes])
    res.put("peak_rss_mb", harness.peak_rss_mb())
    res.notes.append("%d keystrokes in %d bursts; tokens_per_s counts the "
                     "edited document's tokens per keystroke, requests_per_s "
                     "counts keystrokes" % (len(keystrokes), len(clock.raw)))
    if tracer is not None:
        tracer.phase("verify")
    _verify_final(sessions, res)
    return res


def _verify_final(sessions, res) -> None:
    from repro.runtime.parser import ParserOptions

    for g, session in sessions.items():
        fresh = session.host.parse(session.text,
                                   options=ParserOptions(recover=True))
        if session.to_spanned_sexpr() != fresh.to_spanned_sexpr():
            res.fail("%s: incremental tree differs from a from-scratch parse "
                     "of the final text" % g)
