"""Compiled-grammar artifact cache: pay for static analysis once.

The paper's headline cost is static analysis time (Table 1: seconds per
real grammar), and a service recompiling a grammar per process pays it on
every start.  This package persists everything
:func:`repro.api.compile_grammar` computes — lookahead DFAs, decision
classifications, hoisted semantic contexts, diagnostics, and the lexer
DFA — into a versioned on-disk store, keyed by grammar content hash and
analysis options, so a warm start skips
:class:`~repro.analysis.construction.DecisionAnalyzer` entirely:

>>> host = repro.compile_grammar(text, cache_dir=".llstar-cache")  # cold: analyzes + saves
>>> host = repro.compile_grammar(text, cache_dir=".llstar-cache")  # warm: loads DFAs

Cached parsers are behaviorally identical to cold-compiled ones (the
round-trip suite in ``tests/test_cache_roundtrip.py`` proves parse trees
and profiler events match on every bundled grammar); any stale or
corrupt entry is evicted and recompiled, never fatal.

Each entry is one ``<key>.llt`` image (:mod:`repro.cache.binary`): the
payload and the grammar source as one checksummed flat buffer whose
int32 table sections are ``mmap``-ed and sliced zero-copy into the
execution index, so N processes warm-starting the same grammar share a
single page-cache copy of the tables.
"""

from repro.cache.binary import (
    LLT_FORMAT_VERSION,
    MappedArtifact,
    encode_artifact,
)
from repro.cache.serialize import (
    SCHEMA_VERSION,
    analysis_from_artifact,
    artifact_to_dict,
    grammar_fingerprint,
    lexer_from_artifact,
)
from repro.cache.store import ArtifactStore, CacheDiagnostic, artifact_key

__all__ = [
    "LLT_FORMAT_VERSION",
    "SCHEMA_VERSION",
    "ArtifactStore",
    "CacheDiagnostic",
    "MappedArtifact",
    "analysis_from_artifact",
    "artifact_key",
    "encode_artifact",
    "artifact_to_dict",
    "grammar_fingerprint",
    "lexer_from_artifact",
]
