"""High-level convenience API: grammar text in, parser out.

:func:`compile_grammar` runs the full pipeline — meta-parse, validate,
left-recursion rewrite, LL(*) analysis, lexer build — and returns a
:class:`ParserHost` that parses strings (through the generated lexer) or
pre-made token streams.

``cache_dir`` enables the compiled-artifact cache (:mod:`repro.cache`):
the first compile of a grammar serializes its DFAs and lexer tables, and
subsequent compiles warm-start from disk, skipping static analysis
entirely.  ``parallel`` spreads a cold compile's per-decision analysis
over N threads.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.construction import AnalysisOptions
from repro.analysis.decisions import AnalysisResult, analyze
from repro.exceptions import GrammarError
from repro.grammar.leftrec import eliminate_left_recursion
from repro.grammar.meta_parser import parse_grammar
from repro.grammar.model import Grammar
from repro.grammar.validation import validate_grammar
from repro.lexgen.builder import build_lexer
from repro.runtime.parser import LLStarParser, ParserOptions
from repro.runtime.token import Token
from repro.runtime.token_stream import ListTokenStream


class ParserHost:
    """A compiled grammar ready to parse input.

    Wraps the analysis result and (when the grammar has lexer rules) the
    generated tokenizer.  One host serves many parses; each ``parse``
    call creates a fresh :class:`LLStarParser`.
    """

    #: True when this host was warm-started from the compiled-artifact
    #: cache instead of running static analysis (see :mod:`repro.cache`).
    from_cache = False
    #: Cache-health events from the store that served this compile
    #: (:class:`~repro.cache.CacheDiagnostic`); empty for uncached compiles.
    cache_diagnostics = ()
    #: The live :class:`~repro.cache.binary.MappedArtifact` whose mmap
    #: backs this host's flat tables (zero-copy warm start), or None when
    #: the tables own their storage.  Held so the mapping outlives every
    #: memoryview row sliced from it.
    mapped_artifact = None

    def __init__(self, grammar: Grammar, analysis: AnalysisResult, lexer_spec=None):
        self.grammar = grammar
        self.analysis = analysis
        self.lexer_spec = lexer_spec

    @property
    def degraded_decisions(self) -> List[int]:
        """Decisions whose cached DFA was unusable; each will be rebuilt
        on first use by the parser (graceful degradation, not failure)."""
        return [r.decision for r in self.analysis.records
                if getattr(r, "degraded", False)]

    # -- input preparation -------------------------------------------------------

    def tokenize(self, text: str) -> ListTokenStream:
        if self.lexer_spec is None:
            raise GrammarError(
                "grammar %s has no lexer rules; pass tokens explicitly"
                % self.grammar.name)
        return ListTokenStream(self.lexer_spec.tokenizer(text), source=text)

    def token_stream_from_types(self, names: Sequence[str]) -> ListTokenStream:
        """Build a stream from token-name strings (testing convenience).

        Quoted names (``"'int'"``) resolve as literals, bare names as
        token types.  Any name the grammar's vocabulary does not define —
        including malformed literals like ``"'int"`` or non-string
        entries — raises :class:`GrammarError` naming the offender.
        """
        tokens: List[Token] = []
        for name in names:
            if not isinstance(name, str):
                raise GrammarError(
                    "token names must be strings, got %r (grammar %s)"
                    % (name, self.grammar.name))
            if name.startswith("'") and name.endswith("'") and len(name) >= 2:
                t = self.grammar.vocabulary.type_of_literal(name[1:-1])
            else:
                t = self.grammar.vocabulary.type_of(name)
            if t is None:
                raise GrammarError("unknown token %s in grammar %s"
                                   % (name, self.grammar.name))
            tokens.append(Token(t, name.strip("'")))
        return ListTokenStream(tokens)

    # -- parsing ---------------------------------------------------------------------

    def parser(self, source, options: Optional[ParserOptions] = None) -> LLStarParser:
        """Build a parser over ``source``: str, token stream, or token list."""
        if isinstance(source, str):
            stream = self.tokenize(source)
        elif isinstance(source, ListTokenStream):
            stream = source
        else:
            stream = ListTokenStream(source)
        return LLStarParser(self.analysis, stream, options)

    def parse(self, source, rule_name: Optional[str] = None,
              options: Optional[ParserOptions] = None, require_eof: bool = True):
        return self.parser(source, options).parse(rule_name, require_eof=require_eof)

    def recognize(self, source, rule_name: Optional[str] = None,
                  options: Optional[ParserOptions] = None) -> bool:
        return self.parser(source, options).recognize(rule_name)

    def __repr__(self):
        return "ParserHost(%s)" % self.grammar.name


def _prepare_grammar(source, name: Optional[str],
                     rewrite_left_recursion: bool, strict: bool):
    """Shared front half of cold and warm compiles: parse, rewrite,
    validate.  Returns ``(grammar, issues)``."""
    if isinstance(source, Grammar):
        grammar = source
    else:
        grammar = parse_grammar(source, name=name)
    if rewrite_left_recursion:
        eliminate_left_recursion(grammar)
    issues = validate_grammar(grammar)
    errors = [i for i in issues if i.is_error]
    if strict and errors:
        raise GrammarError("; ".join(str(e) for e in errors))
    return grammar, issues


def _wants_lexer(grammar: Grammar) -> bool:
    return bool(grammar.lexer_rules
                and (any(not r.is_fragment for r in grammar.lexer_rules)
                     or grammar.vocabulary.literals()))


def host_from_image(mapped, name: Optional[str] = None,
                    options: Optional[AnalysisOptions] = None,
                    rewrite_left_recursion: bool = True,
                    strict: bool = True, diagnostics=()) -> ParserHost:
    """Warm-start a :class:`ParserHost` from a mapped ``.llt`` image
    (:class:`~repro.cache.MappedArtifact`) — the one boot path every
    cached host takes.

    Re-derives the grammar and ATN from the source the image carries
    (meta-parse, rewrite, validate, :meth:`GrammarAnalyzer.prepare_atn`)
    and grafts the image's tables on zero-copy; static analysis never
    runs.  ``diagnostics`` (the store's :class:`~repro.cache.CacheDiagnostic`
    list) becomes ``host.cache_diagnostics``, and a decision whose stored
    record was unusable degrades with a warning instead of failing.

    Raises :class:`GrammarError` when the grammar itself is bad,
    :class:`~repro.exceptions.ArtifactFormatError` when the image's
    content is damaged (``corrupt``), and ``ValueError`` when it belongs
    to other grammar text (``stale``); the mapping is closed on every
    failure.
    """
    from repro.cache import analysis_from_artifact, grammar_fingerprint
    from repro.cache import lexer_from_artifact

    payload = mapped.payload
    source = mapped.grammar_source
    try:
        if payload.get("grammar_hash") != grammar_fingerprint(source, name):
            raise ValueError("cache entry was built from different grammar text")
        grammar, issues = _prepare_grammar(source, name,
                                           rewrite_left_recursion, strict)
        if _wants_lexer(grammar) != (payload.get("lexer") is not None):
            raise ValueError("cache entry lexer presence does not match grammar")
        analysis = analysis_from_artifact(grammar, payload, options)
        lexer_spec = lexer_from_artifact(grammar, payload)
    except BaseException:
        mapped.close()
        raise
    host = ParserHost(grammar, analysis, lexer_spec)
    host.validation_issues = issues
    host.from_cache = True
    host.mapped_artifact = mapped
    host.cache_diagnostics = diagnostics
    degraded = host.degraded_decisions
    if degraded:
        import warnings

        warnings.warn(
            "cache entry for grammar %s partially corrupt: "
            "decision(s) %s will be re-analyzed on first use"
            % (grammar.name, degraded))
    return host


def host_from_cache_key(cache_dir: str, key: str,
                        name: Optional[str] = None,
                        options: Optional[AnalysisOptions] = None,
                        rewrite_left_recursion: bool = True,
                        strict: bool = True,
                        telemetry=None) -> ParserHost:
    """Warm-start a :class:`ParserHost` from a cache key alone.

    The image for ``key`` carries the grammar text, so a process that
    knows only ``(cache_dir, key)`` — a pool worker
    (:func:`repro.pool.worker_host`) — boots without being shipped the
    source: it maps the file (sharing one
    page-cache copy with every sibling) and rebuilds its tables
    zero-copy through :func:`host_from_image`.

    Raises :class:`~repro.exceptions.ArtifactFormatError` when the image
    is missing or unusable (a damaged one is also evicted); callers with
    the grammar text fall back to :func:`compile_grammar`.
    """
    from repro.cache import ArtifactStore
    from repro.exceptions import ArtifactFormatError

    store = ArtifactStore(cache_dir, telemetry=telemetry,
                          sweep_orphans=False)
    mapped = store.load_mapped(key)
    if mapped is None:
        raise ArtifactFormatError("no usable artifact image for key %s"
                                  % key[:16])
    try:
        return host_from_image(mapped, name, options, rewrite_left_recursion,
                               strict, store.diagnostics)
    except (GrammarError, ArtifactFormatError, Warning):
        raise
    except Exception as e:
        raise ArtifactFormatError(
            "artifact image for key %s rejected: %s" % (key[:16], e))


def compile_grammar(source, name: Optional[str] = None,
                    options: Optional[AnalysisOptions] = None,
                    rewrite_left_recursion: bool = True,
                    strict: bool = True,
                    cache_dir: Optional[str] = None,
                    parallel: Optional[int] = None,
                    telemetry=None) -> ParserHost:
    """Full pipeline: text or Grammar -> ready-to-parse :class:`ParserHost`.

    ``strict`` raises on validation *errors* (left recursion that the
    rewrite could not remove, undefined rules, nullable loops); warnings
    are kept on ``host.analysis`` regardless.

    ``cache_dir`` names a compiled-artifact cache directory
    (:mod:`repro.cache`): a warm hit skips static analysis entirely and
    the returned host has ``from_cache = True``.  Only grammar *text* is
    cacheable — a pre-built :class:`Grammar` object has no stable content
    hash, so ``cache_dir`` is ignored for it.  ``parallel=N`` runs a cold
    compile's per-decision analysis on N threads.

    ``telemetry`` (a :class:`~repro.runtime.telemetry.ParseTelemetry`)
    observes the compile: a span per compile plus cache
    hit/miss/save/evict events when ``cache_dir`` is set.  The same
    object can then be attached to ``ParserOptions`` so compile-time and
    parse-time metrics land in one registry.
    """
    if telemetry is not None:
        with telemetry.span("compile:%s" % (name or "grammar")):
            return _compile_grammar_impl(source, name, options,
                                         rewrite_left_recursion, strict,
                                         cache_dir, parallel, telemetry)
    return _compile_grammar_impl(source, name, options,
                                 rewrite_left_recursion, strict,
                                 cache_dir, parallel, telemetry)


def _compile_grammar_impl(source, name, options, rewrite_left_recursion,
                          strict, cache_dir, parallel, telemetry) -> ParserHost:
    if cache_dir is not None and not isinstance(source, Grammar):
        from repro.cache import ArtifactStore, CacheDiagnostic, artifact_key
        from repro.cache import artifact_to_dict, grammar_fingerprint
        from repro.exceptions import ArtifactFormatError

        store = ArtifactStore(cache_dir, telemetry=telemetry)
        key = artifact_key(source, name, options, rewrite_left_recursion)
        mapped = store.load_mapped(key)
        if mapped is not None:
            try:
                if mapped.grammar_source != source:
                    mapped.close()
                    raise ValueError("cache entry holds different grammar text")
                return host_from_image(mapped, name, options,
                                       rewrite_left_recursion, strict,
                                       store.diagnostics)
            except (GrammarError, Warning):
                raise  # the grammar itself is bad; not a cache problem
            except Exception as e:
                kind = (CacheDiagnostic.CORRUPT
                        if isinstance(e, ArtifactFormatError)
                        else CacheDiagnostic.STALE)
                store.note(kind, key, "entry rejected (%s); evicted" % e)
                store.evict(key)  # recompile and republish below
        host = compile_grammar(source, name=name, options=options,
                               rewrite_left_recursion=rewrite_left_recursion,
                               strict=strict, parallel=parallel)
        store.save(key, artifact_to_dict(host.grammar, host.analysis,
                                         host.lexer_spec,
                                         grammar_fingerprint(source, name)),
                   source)
        host.cache_diagnostics = store.diagnostics
        return host

    grammar, issues = _prepare_grammar(source, name, rewrite_left_recursion, strict)
    analysis = analyze(grammar, options, parallel=parallel)
    lexer_spec = build_lexer(grammar) if _wants_lexer(grammar) else None
    host = ParserHost(grammar, analysis, lexer_spec)
    host.validation_issues = issues
    host.from_cache = False
    return host
