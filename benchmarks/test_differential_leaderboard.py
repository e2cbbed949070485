"""Backend leaderboard over the shared differential fuzz corpus.

Every backend in the differential harness parses the *same* generated
corpus per suite grammar; the table records throughput (tokens/second)
and peak Python-heap allocation (tracemalloc) per backend, plus the
process-wide peak RSS for the whole run.  Each backend first parses the
corpus once untimed (warm-up), then once timed with tracemalloc off —
tracing every allocation would distort the speed of allocation-heavy
backends — and once more under tracemalloc for the peak.  The timed
pass runs with the cyclic garbage collector paused (as ``timeit``
does): a full collection of the whole suite's heap, triggered by
whichever pass happens to cross the threshold, costs more than most
timed passes themselves.  This is the scaling companion
to ``llstar fuzz``: correctness says the backends agree, the leaderboard
says what that agreement costs per strategy (the paper's Section 6
argument — LL(*) prediction at near-deterministic cost vs the general
CFG algorithms).
"""

import gc
import resource
import time
import tracemalloc

from repro.fuzz.differential import DifferentialRunner
from repro.fuzz.generator import SentenceGenerator
from repro.grammars import PAPER_ORDER

from conftest import emit_table

N = 20
SEED = 42
MAX_DEPTH = 12
MAX_TOKENS = 80


def _accepted(runner, backend, corpus) -> int:
    """Parse the whole corpus with one backend; count accepted sentences."""
    return sum(1 for sentence in corpus
               if runner.run_backend(backend, sentence.token_names).accepted)


def test_differential_leaderboard(suite, paper_names):
    rows = []
    for name in PAPER_ORDER:
        bench, host = suite[name]
        runner = DifferentialRunner(bench.grammar_text, name=name)
        generator = SentenceGenerator(host, seed=SEED, max_depth=MAX_DEPTH,
                                      max_tokens=MAX_TOKENS)
        corpus = generator.generate(N)
        total_tokens = sum(s.size for s in corpus)
        assert total_tokens > 0
        for backend in runner.backends:
            _accepted(runner, backend, corpus)  # warm-up: lazy tables, caches
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                accepted = _accepted(runner, backend, corpus)
                elapsed = time.perf_counter() - t0
            finally:
                gc.enable()
            tracemalloc.start()
            _accepted(runner, backend, corpus)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            # Generated sentences are valid; every backend but the PEG
            # (ordered choice) must accept the whole corpus.
            if backend != "packrat":
                assert accepted == N, (name, backend, accepted)
            rows.append((paper_names[name], backend, N, total_tokens,
                         "%.0f" % (total_tokens / max(elapsed, 1e-9)),
                         "%.1f" % (peak / 1024.0),
                         "%d/%d" % (accepted, N)))
        for backend, reason in sorted(runner.skipped.items()):
            rows.append((paper_names[name], backend, "-", "-", "-", "-",
                         "skipped (%s)" % reason.split(":")[-1].strip()))

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit_table(
        "differential_leaderboard",
        "Differential backend leaderboard (n=%d, seed=%d per grammar; "
        "process peak RSS %.1f MB)" % (N, SEED, peak_rss_kb / 1024.0),
        ("Grammar", "Backend", "Inputs", "Tokens", "Tokens/s",
         "Peak alloc (KiB)", "Accepted"),
        rows)
