"""repro — a reproduction of "LL(*): The Foundation of the ANTLR Parser
Generator" (Parr & Fisher, PLDI 2011).

Public API tour
---------------

Front end (:mod:`repro.grammar`):
    ``parse_grammar(text)`` reads an ANTLR-style grammar;
    ``GrammarBuilder`` constructs grammars programmatically;
    ``validate_grammar`` reports left recursion and PEG hazards;
    ``eliminate_left_recursion`` applies the predicated
    precedence-climbing rewrite from Section 1.1.

Static analysis (:mod:`repro.analysis`):
    ``analyze(grammar)`` builds an ATN, runs the modified subset
    construction (Algorithms 8-11) per decision, and returns an
    :class:`~repro.analysis.decisions.AnalysisResult` with one lookahead
    DFA per decision plus its classification (fixed LL(k) / cyclic /
    backtracking).

Runtime (:mod:`repro.runtime`):
    ``LLStarParser`` interprets the analysed grammar over a token
    stream, predicting with the lookahead DFA and failing over to
    memoized speculation on synpred edges.  ``DecisionProfiler``
    collects the per-decision-event statistics behind the paper's
    Tables 2-4.  With ``ParserOptions(recover=True)`` the parser
    repairs errors ANTLR-style (single-token insertion/deletion,
    FOLLOW-set resync) and marks every repair with an ``ErrorNode``;
    ``ParserBudget`` bounds time and speculation with typed
    :class:`BudgetExceededError`; :mod:`repro.runtime.chaos` provides
    seeded fault injection for robustness testing.

Convenience:
    :func:`compile_grammar` wires the whole pipeline together and
    returns a ready-to-use :class:`ParserHost`.

Artifact cache (:mod:`repro.cache`):
    ``compile_grammar(text, cache_dir=...)`` persists the analysis
    output (lookahead DFAs, classifications, diagnostics, lexer tables)
    to a versioned on-disk store of checksummed ``.llt`` images; later
    compiles of the same grammar warm-start from disk and skip static
    analysis entirely.

Batch parsing (:mod:`repro.batch`):
    :class:`BatchEngine` parses a corpus across a process pool whose
    workers warm-start once from an artifact image, given only its key;
    each input is budget-isolated, and per-worker metrics/profiles fold
    into one :class:`BatchReport`.  :func:`parse_corpus` is the
    one-call form.

>>> import repro
>>> host = repro.compile_grammar(r'''
...     grammar Demo;
...     s : ID | ID '=' INT ;
...     ID : [a-z]+ ;
...     INT : [0-9]+ ;
...     WS : [ \t\r\n]+ -> skip ;
... ''')
>>> tree = host.parse("x = 42")
>>> tree.to_sexpr()
"(s x '=' 42)"
"""

from repro.exceptions import (
    LLStarError,
    GrammarError,
    GrammarSyntaxError,
    LeftRecursionError,
    AnalysisError,
    LikelyNonLLRegularError,
    RecognitionError,
    NoViableAltError,
    MismatchedTokenError,
    FailedPredicateError,
    LexerError,
    BudgetExceededError,
    TokenStreamError,
)
from repro.runtime.budget import ParserBudget
from repro.runtime.telemetry import MetricsRegistry, ParseTelemetry
from repro.grammar import (
    Grammar,
    GrammarBuilder,
    parse_grammar,
    validate_grammar,
    apply_peg_mode,
    erase_syntactic_predicates,
    eliminate_left_recursion,
)
from repro.api import compile_grammar, ParserHost
from repro.analysis import analyze, AnalysisOptions, AnalysisResult
from repro.batch import BatchEngine, BatchReport, BatchResult, parse_corpus
from repro import cache

__version__ = "1.0.0"

__all__ = [
    "LLStarError",
    "GrammarError",
    "GrammarSyntaxError",
    "LeftRecursionError",
    "AnalysisError",
    "LikelyNonLLRegularError",
    "RecognitionError",
    "NoViableAltError",
    "MismatchedTokenError",
    "FailedPredicateError",
    "LexerError",
    "BudgetExceededError",
    "ParserBudget",
    "Grammar",
    "GrammarBuilder",
    "parse_grammar",
    "validate_grammar",
    "apply_peg_mode",
    "erase_syntactic_predicates",
    "eliminate_left_recursion",
    "BatchEngine",
    "BatchReport",
    "BatchResult",
    "cache",
    "compile_grammar",
    "parse_corpus",
    "ParserHost",
    "analyze",
    "AnalysisOptions",
    "AnalysisResult",
    "__version__",
]
