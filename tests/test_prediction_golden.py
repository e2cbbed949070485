"""Golden prediction events: Tables 3-4's inputs, event for event.

Tables 3 and 4 aggregate the decision events a parse reports.  This
test pins what the parser reports on the Table 3 input of every suite
grammar (``generate_program(40, seed=42)``, as
``benchmarks/test_table3_runtime_lookahead.py`` parses it): the sha256
of each decision's profiler stats, and of the telemetry prediction,
fallback, synpred and rule-invocation counters.  A change to how the
parser walks rules, predicts, or speculates that shifts a single event
fails here, not only in a manually regenerated table.

The digests are interpreter-independent (checked under CPython 3.9,
3.11 and 3.12).  :func:`prediction_digests` needs no test framework,
so it can be called directly from any interpreter.
"""

import hashlib
import json

from repro.grammars import PAPER_ORDER, load
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry

UNITS = 40
SEED = 42

GOLDEN = {
    "java": {
        "profiler": "3ffd54709de3018d7e3281e98d5446bdd8ead4fc3a4051d408cafc52d9ec6641",
        "telemetry": "d1c8225132e1ca075e43e0c151497dcbc5bb4b67cca07741980d62fd98257950",
    },
    "rats_c": {
        "profiler": "033e3981027096afbb8b51fdb38fa7a5bfba98ec267df411f59e82632eb7628f",
        "telemetry": "9ebae122690e52bd3d2747abb38281bf222568a067cb4b2e39d382e20fd288a3",
    },
    "rats_java": {
        "profiler": "24bfcdb4eeb3db8c250d047e67f7625fd14ebbdeab693ced4aacb901b2742186",
        "telemetry": "6f18611317e5b21de3e31c9a3047543c78aa332a2b1153cc3739486833bcb683",
    },
    "vb": {
        "profiler": "223717b84b7f2e695dd5df078156028625ef2af821ba1ee494f5d0000c0d3bb6",
        "telemetry": "e451446f1089a2f6b02c3512c3160e74c6936ed6399ad08b915cd8f4a518d336",
    },
    "sql": {
        "profiler": "1eb53f0729e91866e66b3f2387a87bf9f8259f1461563632fd7ed4afa5e00c05",
        "telemetry": "b7dc09ec8b7d82383790672da4151f50f1606cd7c4d27d2d47d14d05ddb37433",
    },
    "csharp": {
        "profiler": "28e82c9f27e983391b2730c34d0c48d0f9ffa66a4572d4bb749d113d14022e4c",
        "telemetry": "326131071b8adeca352b19ccb174322392518b30dea483bcb2dcbfb0a605e7a5",
    },
}

#: Telemetry metrics that count prediction outcomes (span timings and
#: stream gauges are left out: they are not deterministic).
TELEMETRY_METRICS = (
    "llstar_atn_fallbacks_total",
    "llstar_backtrack_depth",
    "llstar_backtrack_events_total",
    "llstar_dfa_hits_total",
    "llstar_fallback_reasons_total",
    "llstar_predictions_total",
    "llstar_realized_k",
    "llstar_rule_invocations_total",
    "llstar_synpred_invocations_total",
    "llstar_synpred_outcomes_total",
)


def _sha(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def prediction_digests(name: str) -> dict:
    """``{"profiler": sha256, "telemetry": sha256}`` for suite grammar
    ``name`` parsing its Table 3 input."""
    bench = load(name)
    host = bench.compile()
    telemetry = ParseTelemetry()
    host.parse(bench.generate_program(UNITS, seed=SEED),
               options=ParserOptions(telemetry=telemetry))
    stats = [[d, s.events, s.sum_depth, s.max_depth, s.backtrack_events,
              s.sum_backtrack_depth, s.max_backtrack_depth]
             for d, s in sorted(telemetry.profiler.stats.items())]
    metrics = telemetry.metrics.to_json()
    counters = {m: metrics[m]["samples"] for m in TELEMETRY_METRICS
                if m in metrics}
    return {"profiler": _sha(stats), "telemetry": _sha(counters)}


def test_suite_prediction_digests():
    assert {name: prediction_digests(name) for name in PAPER_ORDER} == GOLDEN
