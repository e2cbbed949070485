"""Static LL(*) grammar analysis (Section 5 of the paper).

``analyze(grammar)`` is the facade: it erases syntactic predicates,
builds the ATN, and runs the modified subset construction
(Algorithms 8-11) over every decision, producing one lookahead DFA per
decision — kept as its flat :class:`~repro.tables.lookahead.DecisionTable`
— plus a classification (fixed LL(k) / cyclic / backtracking) and any
ambiguity or recursion-overflow diagnostics.
"""

from repro.analysis.config import ATNConfig, stacks_equivalent
from repro.analysis.dfa_model import DFA, DFAState
from repro.analysis.construction import AnalysisOptions, DecisionAnalyzer
from repro.analysis.decisions import (
    AnalysisResult,
    DecisionRecord,
    GrammarAnalyzer,
    analyze,
    FIXED,
    CYCLIC,
    BACKTRACK,
)
from repro.analysis.diagnostics import AnalysisDiagnostic
from repro.analysis.sets import GrammarSets

__all__ = [
    "GrammarSets",
    "ATNConfig",
    "stacks_equivalent",
    "DFA",
    "DFAState",
    "AnalysisOptions",
    "DecisionAnalyzer",
    "AnalysisResult",
    "DecisionRecord",
    "GrammarAnalyzer",
    "analyze",
    "FIXED",
    "CYCLIC",
    "BACKTRACK",
    "AnalysisDiagnostic",
]
