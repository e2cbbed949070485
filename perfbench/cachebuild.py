"""Artifact cache built by the code under test, and only by it.

``artifact_key`` hashes the grammar text and analysis options but not
the analysis code, so a cache that another commit built would be served
to this one.  The cache directory is therefore named after a hash of
every file under ``src/``; a checkout builds its own cache once (in a
subprocess, untimed) and every later run of that checkout reuses it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys

import harness

CACHE_ROOT = os.path.join(harness.ROOT, ".perfbench_cache")


def source_hash() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(harness.SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, harness.SRC).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()[:20]


def scratch_dir() -> str:
    path = os.path.join(CACHE_ROOT, "scratch")
    os.makedirs(path, exist_ok=True)
    return path


def ensure() -> str:
    """The artifact cache directory for the current sources."""
    final = os.path.join(CACHE_ROOT, "artifacts-" + source_hash())
    if os.path.isdir(final):
        return final
    tmp = final + ".tmp%d" % os.getpid()
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    code = ("import sys; from repro.api import compile_grammar; "
            "from repro.grammars import PAPER_ORDER, load\n"
            "for g in PAPER_ORDER:\n"
            "    compile_grammar(load(g).grammar_text, name=g, "
            "cache_dir=sys.argv[1])\n")
    subprocess.run([sys.executable, "-c", code, tmp], check=True,
                   cwd=harness.ROOT, env=dict(os.environ, PYTHONPATH=harness.SRC),
                   stdout=subprocess.DEVNULL)
    os.rename(tmp, final)
    return final
