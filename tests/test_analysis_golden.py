"""Golden analysis output: the suite grammars' analyses, byte for byte.

The table≡DFA sweep compares the analyzer only with itself, so a
change to Algorithms 8-11 that shifts the lookahead DFAs, gates, or
diagnostics would pass it.  This test pins
the sha256 of each suite grammar's serialized
:class:`~repro.analysis.decisions.AnalysisResult` (timing zeroed).  A
deliberate change to analysis output must update the digests here, and
say why in its change notes.

Each digest is computed in a fresh interpreter under two
``PYTHONHASHSEED`` values: set and dict iteration order over hashed
keys must never leak into what analysis emits.
"""

import json
import os
import subprocess
import sys

import pytest

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

GOLDEN = {
    "java": "66e6b37d2b18d5564518c595762d39a66b437683d2f48cd072d9ac8323f39f17",
    "rats_c": "1c4b8861507e75aadaccee7253814528cb79e1e6db294e6caad6d4d1702b9f44",
    "rats_java": "01c0df30cf60dfe85558666a4b7d5622e86198bda86e0d38c53f6b686e8ca3ab",
    "vb": "d15d7d37487aa9b677320646a231556fa94433f32508c168d79ea00978d0b030",
    "sql": "fdeac6a01a42dc14c39fd841fceb1ace55e0a9f1744921ce13753f4a28778d3b",
    "csharp": "f7b304dbfa14d272a4f96123033b3a9dd66be9edc2ca1ec35af77c07ae138396",
}

DIGEST_SCRIPT = """
import hashlib, json
from repro.api import compile_grammar
from repro.grammars import PAPER_ORDER, load

digests = {}
for name in PAPER_ORDER:
    data = compile_grammar(load(name).grammar_text).analysis.to_dict()
    data["elapsed_seconds"] = 0
    payload = json.dumps(data, sort_keys=True).encode()
    digests[name] = hashlib.sha256(payload).hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_suite_analysis_digests(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == GOLDEN
