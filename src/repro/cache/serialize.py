"""Serialization of compiled-grammar artifacts.

The expensive part of :func:`repro.api.compile_grammar` is the per-decision
LL(*) subset construction (Table 1 of the paper: seconds per real
grammar).  Everything that construction produces — lookahead DFAs,
decision classifications, hoisted semantic contexts, diagnostics, and the
lexer DFA — is pure data over token types, rule names, and predicate
strings, so it round-trips losslessly through a JSON-safe dict.

The stored form *is* the flat execution core (:mod:`repro.tables`):
decision tables plus the shared semantic-context pool, and the lexer DFA
as a flat :class:`~repro.tables.lexer.LexerTable` — the only form either
automaton has after analysis.  The store writes the dict
:func:`artifact_to_dict` builds as a checksummed ``.llt`` image
(:mod:`repro.cache.binary`), and a warm start grafts the image's arrays
straight into the tables the parser, tokenizer and tools read.

What is *not* stored: the grammar object and the ATN.  Both are cheap to
re-derive from the grammar text the image carries (parse + transforms +
Figure 7 construction) and hold live Python objects; a warm start re-runs
that front half via :meth:`GrammarAnalyzer.prepare_atn` and grafts the
stored records back on, skipping :class:`DecisionAnalyzer` entirely.

``SCHEMA_VERSION`` gates compatibility: any change to the dict layout of
any participating ``to_dict`` must bump it.  An image of another schema
is evicted as ``corrupt`` and recompiled — the cache is pure, so there is
no upgrade path.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.analysis.construction import AnalysisOptions
from repro.analysis.decisions import AnalysisResult, GrammarAnalyzer
from repro.exceptions import ArtifactFormatError
from repro.grammar.model import Grammar
from repro.lexgen.lexer import LexerSpec
from repro.tables.lexer import LexerTable

#: Bump whenever any participating ``to_dict`` layout changes.
#: 1 — object-graph DFA dicts; 2 — flat tables (repro.tables).
SCHEMA_VERSION = 2


def grammar_fingerprint(source: str, name: Optional[str] = None) -> str:
    """Content hash of the grammar text (plus the compile-time name
    override, which changes the default start rule resolution)."""
    h = hashlib.sha256()
    h.update(source.encode("utf-8"))
    h.update(b"\x00")
    h.update((name or "").encode("utf-8"))
    return h.hexdigest()


def artifact_to_dict(grammar: Grammar, analysis: AnalysisResult,
                     lexer_spec: Optional[LexerSpec],
                     grammar_hash: str) -> dict:
    """Assemble the full compiled artifact for one ``compile_grammar`` run."""
    return {
        "schema": SCHEMA_VERSION,
        "grammar_hash": grammar_hash,
        "grammar_name": grammar.name,
        # Integrity guard: token types are dense ints allocated during the
        # meta-parse; if a re-parse allocates differently the entry is stale.
        "vocabulary_max_type": grammar.vocabulary.max_type,
        "analysis": analysis.to_dict(),
        "lexer": (lexer_spec.table.to_dict()
                  if lexer_spec is not None else None),
    }


def analysis_from_artifact(grammar: Grammar, payload: dict,
                           options: Optional[AnalysisOptions] = None
                           ) -> AnalysisResult:
    """Warm-start the analysis half of a compile from a mapped payload.

    Runs the same grammar preparation as a cold compile (PEG mode,
    synpred erasure, ATN build — the grammar must end up mutated exactly
    as the cold pipeline leaves it, since the parser executes synpred
    rules from the grammar), then attaches the deserialized records.
    The payload comes from a checksummed image, so per-table structural
    validation is skipped and array fields stay zero-copy ``memoryview``
    rows.

    Raises on any inconsistency between payload and grammar; callers
    treat that as a corrupt/stale entry and fall back to a cold compile.
    Format-level faults (wrong schema, table version skew) raise the
    typed :class:`~repro.exceptions.ArtifactFormatError`;
    grammar-mismatch faults (the entry belongs to different text) raise
    plain ``ValueError`` — the cache layer maps the former to a
    ``corrupt`` diagnostic and the latter to ``stale``.
    """
    if payload.get("schema") != SCHEMA_VERSION:
        raise ArtifactFormatError("cache schema %r != %d"
                                  % (payload.get("schema"), SCHEMA_VERSION))
    if payload.get("grammar_name") != grammar.name:
        raise ValueError("cache entry is for grammar %r, not %r"
                         % (payload.get("grammar_name"), grammar.name))
    if payload.get("vocabulary_max_type") != grammar.vocabulary.max_type:
        raise ValueError("cache entry vocabulary does not match grammar")
    analyzer = GrammarAnalyzer(grammar, options)
    atn = analyzer.prepare_atn()
    return AnalysisResult.from_dict(grammar, atn, payload["analysis"],
                                    validate=False, options=analyzer.options)


def lexer_from_artifact(grammar: Grammar,
                        payload: dict) -> Optional[LexerSpec]:
    """Rebuild the lexer spec from a mapped payload (None for token-stream
    grammars); the vocabulary comes from the freshly parsed grammar."""
    if payload.get("lexer") is None:
        return None
    return LexerSpec(LexerTable.from_dict(payload["lexer"], validate=False),
                     grammar.vocabulary)
