"""Golden traces: the ``llstar parse --trace`` transcript, line for line.

A :class:`~repro.runtime.telemetry.TraceTelemetry` is the one observer a
parser feeds event by event, because its transcript is an ordering:
rule entries and exits, each committed prediction, each speculation,
indented by nesting depth.  This test pins that transcript on every
suite grammar (``generate_program(2, seed=1)``) by its sha256, so a
change to the order, the nesting, or the text of any line fails here.
``test_trace_transcript_is_a_view_of_the_hooks`` in ``test_telemetry.py``
spells out the format on a three-rule grammar.
"""

import hashlib

import pytest

from repro.grammars import PAPER_ORDER, load
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import TraceTelemetry

UNITS = 2
SEED = 1

GOLDEN = {
    "java": "b882f914a36c18821bd5663c860b34d1b6af84f4229c56f319ee21571f5e1f4c",
    "rats_c": "70ece52548aa2363e77ab5a5a889f9ad3fea04d7e01645a4d7b103e3dc66fc86",
    "rats_java": "bca5b61fa3bb2834969bbebc5d04ed272c2165e24021d593e1eb49be9bdb8a58",
    "vb": "af294eb6fe21a60fc490b12b27e5fb259df2e44142be91fd355e4a9fb08c1c53",
    "sql": "c6b7ec713a50a51ec97cc93e16e6c7680e1a23a56a184131638a97d2ac33b21e",
    "csharp": "86cee02c384a8061ab98543ff5a8d8058dfdbbfac470ff563316aa61af4df85e",
}


def trace_digest(name: str) -> str:
    """sha256 of the trace of suite grammar ``name`` parsing its
    ``generate_program(UNITS, seed=SEED)``."""
    bench = load(name)
    trace = TraceTelemetry()
    bench.compile().parse(bench.generate_program(UNITS, seed=SEED),
                          options=ParserOptions(telemetry=trace))
    return hashlib.sha256(trace.transcript().encode()).hexdigest()


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_suite_trace_digest(name):
    assert trace_digest(name) == GOLDEN[name]
