"""Parse-time runtime: tokens, streams, the LL(*) parser, and telemetry.

The runtime is the half of the system that executes at parse time.  It is
deliberately independent of the static-analysis half
(:mod:`repro.analysis`): a generated or interpreted parser only needs the
lookahead DFA tables that analysis produced.
"""

from repro.runtime.token import Token, EOF, EPSILON_TYPE, INVALID_TYPE, TokenType, Vocabulary
from repro.runtime.char_stream import CharStream
from repro.runtime.token_stream import TokenStream, ListTokenStream
from repro.runtime.trees import ErrorNode, ParseTree, RuleNode, TokenNode, TreeVisitor
from repro.runtime.budget import ParserBudget
from repro.runtime.chaos import ChaosCharStream, ChaosTokenStream, CorruptionEvent
from repro.runtime.errors import (
    BailErrorStrategy,
    DefaultErrorStrategy,
    ErrorStrategy,
)
from repro.runtime.profiler import DecisionProfiler, DecisionStats, ProfileReport
from repro.runtime.streaming import StreamingTokenStream
from repro.runtime.telemetry import (
    DegradationEvent,
    MetricsRegistry,
    ParseTelemetry,
    TraceTelemetry,
)


def __getattr__(name):
    # LLStarParser/ParserOptions import the ATN package, which imports the
    # grammar model, which imports repro.runtime.token — loading them here
    # eagerly would close an import cycle.  Resolve lazily instead.
    if name in ("LLStarParser", "ParserOptions"):
        from repro.runtime import parser

        return getattr(parser, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "Token",
    "EOF",
    "EPSILON_TYPE",
    "INVALID_TYPE",
    "TokenType",
    "Vocabulary",
    "CharStream",
    "TokenStream",
    "ListTokenStream",
    "StreamingTokenStream",
    "ParseTree",
    "RuleNode",
    "TokenNode",
    "TreeVisitor",
    "ErrorNode",
    "LLStarParser",
    "ParserOptions",
    "ParserBudget",
    "ErrorStrategy",
    "BailErrorStrategy",
    "DefaultErrorStrategy",
    "ChaosTokenStream",
    "ChaosCharStream",
    "CorruptionEvent",
    "DecisionProfiler",
    "DecisionStats",
    "DegradationEvent",
    "ProfileReport",
    "ParseTelemetry",
    "MetricsRegistry",
    "TraceTelemetry",
]
