"""Flat-table execution core: one dense, versioned representation of
lookahead DFAs and lexer DFAs shared by the interpreter, the lexer, the
compiled-artifact cache, and the code generator.

The object models (:mod:`repro.analysis.dfa_model`,
:mod:`repro.lexgen.dfa`) are construction scratch: subset construction,
ambiguity resolution and lexer minimization build and edit object
graphs.  The single ``compile_*`` boundary here turns each finished
automaton, once, into parallel int arrays (CSR-style per-state ranges
over sorted keys), and the graph is dropped: one form per automaton.
Every later consumer reads the tables:

* :class:`~repro.runtime.predict.Predictor`, the one prediction
  routine of the interpreter and generated parsers, walks
  :class:`DecisionTable` arrays in ``_adaptive_predict`` — no attribute
  chases and no allocation in the inner loop;
* the tokenizer walks :class:`LexerTable` character-range arrays;
* :mod:`repro.cache` stores the same pool and table arrays in its
  ``.llt`` image, so an artifact holds exactly what the runtime executes;
* :mod:`repro.codegen` embeds the same ``TableSet`` dict in generated
  modules;
* decision classification (Tables 1-2) and the tools
  (``llstar analyze --dot``, ``llstar explain``) read the same arrays.

Semantic contexts (predicate gates) are interned once per grammar in a
:class:`SemCtxPool`; tables reference them by index, so identical
hoisted gates across decisions serialize once and evaluate through the
same live objects.

``TABLE_FORMAT_VERSION`` stamps every serialized ``TableSet``; readers
reject unknown versions, and :data:`repro.cache.SCHEMA_VERSION` bumps
alongside it.
"""

from repro.tables.lexer import LexerTable, compile_lexer_table
from repro.tables.lookahead import DecisionTable, compile_decision_table
from repro.tables.pool import SemCtxPool
from repro.tables.ranges import find_interval_index
from repro.tables.tableset import TABLE_FORMAT_VERSION, TableSet

__all__ = [
    "TABLE_FORMAT_VERSION",
    "DecisionTable",
    "LexerTable",
    "SemCtxPool",
    "TableSet",
    "compile_decision_table",
    "compile_lexer_table",
    "find_interval_index",
]
