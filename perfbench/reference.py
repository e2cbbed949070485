"""Stored reference outputs for the default seeds.

A run must not take its references from the code it measures.  For the
default seeds (``DEFAULT_SEEDS``) the expected token counts and tree
digests live in ``perfbench/reference/<workload>.json``, in input order; they were
recorded once with this script and, while recording, every tree was
cross-checked against the parser that ``llstar codegen`` generates from
the same analysis (as ``repro.fuzz.differential`` does), so the stored
value is one two independent backends agree on.  Each stored seed also
keeps a digest of its inputs: if the input generators change, the
references no longer apply and the run fails rather than checking
against the wrong thing.

Record (slow, about a minute per seed)::

    python3 perfbench/reference.py                  # all default seeds
    python3 perfbench/reference.py 3 4              # selected seeds
    python3 perfbench/reference.py --only serve     # one workload
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import harness

DEFAULT_SEEDS = tuple(range(1, 11))
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class StaleReference(RuntimeError):
    """The stored inputs digest no longer matches the generated inputs."""


def text_digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


def tree_digest(tree) -> str:
    """Digest of the spanned s-expression: shape, tokens and spans."""
    return text_digest(tree.to_spanned_sexpr())


def digest_inputs(pairs) -> str:
    h = hashlib.sha1()
    for key, text in pairs:
        h.update(key.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()[:16]


def _path(workload: str) -> str:
    return os.path.join(REF_DIR, workload + ".json")


def load(workload: str, seed: int, inputs_digest: str):
    """The stored reference for ``seed``, or None when none is stored."""
    try:
        with open(_path(workload)) as f:
            entry = json.load(f)["seeds"].get(str(seed))
    except FileNotFoundError:
        return None
    if entry is None:
        return None
    if entry["inputs"] != inputs_digest:
        raise StaleReference(
            "%s seed %d: generated inputs differ from the recorded ones "
            "(inputs %s, recorded %s)" % (workload, seed, inputs_digest,
                                           entry["inputs"]))
    return entry


# -- recording -----------------------------------------------------------------

class _Backends:
    """Interpreter host plus the generated-code parser of one grammar."""

    def __init__(self, name: str):
        from repro.api import compile_grammar
        from repro.codegen import generate_python
        from repro.codegen.support import GeneratedParser
        from repro.grammars import load as load_grammar

        self.host = compile_grammar(load_grammar(name).grammar_text, name=name)
        namespace = {}
        exec(compile(generate_python(self.host.analysis), "<generated>",
                     "exec"), namespace)
        self.generated = [v for v in namespace.values()
                          if isinstance(v, type)
                          and issubclass(v, GeneratedParser)
                          and v is not GeneratedParser][0]

    def tokens(self, text: str) -> int:
        return len(self.host.tokenize(text).tokens()) - 1

    def tree(self, text: str):
        """Interpreter tree, after checking the generated parser agrees."""
        tree = self.host.parse(text)
        other = self.generated(self.host.tokenize(text)).parse()
        if tree_digest(tree) != tree_digest(other):
            raise AssertionError("interpreter and generated parser disagree "
                                 "on a %s input" % self.host.grammar.name)
        return tree

    def rejects(self, text: str) -> bool:
        from repro.exceptions import RecognitionError

        try:
            self.host.parse(text)
        except RecognitionError:
            return True
        return False


WORKLOADS = ("batch", "serve", "edit")


def record(seeds, workloads=WORKLOADS) -> None:
    import inputs

    backends = {g: _Backends(g) for g in inputs.GRAMMARS}
    tables = {}
    for workload in WORKLOADS:
        try:
            with open(_path(workload)) as f:
                tables[workload] = json.load(f)
        except FileNotFoundError:
            tables[workload] = {"seeds": {}}
    for seed in seeds:
        if "batch" in workloads:
            _record_batch(tables["batch"], seed, backends)
        if "serve" in workloads:
            _record_serve(tables["serve"], seed, backends)
        if "edit" in workloads:
            _record_edit(tables["edit"], seed, backends)
        print("recorded seed %d" % seed, flush=True)
    os.makedirs(REF_DIR, exist_ok=True)
    for workload in workloads:
        with open(_path(workload), "w") as f:
            json.dump(tables[workload], f, sort_keys=True,
                      separators=(",", ":"))
            f.write("\n")


def _record_batch(table, seed, backends) -> None:
    import inputs

    rounds = inputs.batch_rounds(seed)
    table["seeds"][str(seed)] = {
        "inputs": digest_inputs([(i, t) for rnd in rounds
                                 for i, _g, t in rnd]),
        "tokens": [[backends[g].tokens(t) for _i, g, t in rnd]
                   for rnd in rounds],
        "trees": [tree_digest(backends[g].tree(t))
                  for _i, g, t in rounds[0]],
    }


def _record_serve(table, seed, backends) -> None:
    import inputs

    specs = inputs.serve_requests(seed)
    tokens, trees = [], []
    for s in specs:
        b = backends[s["grammar"]]
        digest = None
        if s["valid"]:
            tree = b.tree(s["text"])
            digest = text_digest(tree.to_sexpr()) if s["tree"] else None
        elif not b.rejects(s["text"]):
            raise AssertionError("%s: invalid input parsed" % s["id"])
        tokens.append(b.tokens(s["text"]))
        trees.append(digest)
    table["seeds"][str(seed)] = {
        "inputs": digest_inputs([(s["id"], s["text"] + str(s["tree"]))
                                 for s in specs]),
        "tokens": tokens,
        "trees": trees,
    }


def _record_edit(table, seed, backends) -> None:
    import inputs

    docs = inputs.edit_documents(seed)
    table["seeds"][str(seed)] = {
        "inputs": digest_inputs(sorted(docs.items())),
        "trees": {doc: tree_digest(backends[doc.split("/")[0]].tree(t))
                  for doc, t in docs.items()},
    }


if __name__ == "__main__":
    harness.require_program()
    args = sys.argv[1:]
    only = WORKLOADS
    if args[:1] == ["--only"]:
        only, args = tuple(args[1].split(",")), args[2:]
    record([int(a) for a in args] or DEFAULT_SEEDS, only)
