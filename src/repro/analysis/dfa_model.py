"""Lookahead DFA (Definition 4): DFA over the token alphabet, augmented
with ordered predicate edges and accept states that name the predicted
production.

This object graph is construction scratch.  :class:`DecisionAnalyzer`
builds one per decision by subset construction, the analysis compiles
it once into a flat :class:`~repro.tables.lookahead.DecisionTable`
(:func:`~repro.tables.lookahead.compile_decision_table`) and drops it;
every later reader (classification, prediction, the cache, codegen,
``llstar analyze --dot``/``explain``) reads the table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.atn.transitions import Predicate


class DFAState:
    """One DFA state D: a set of ATN configurations + outgoing edges.

    ``edges`` maps token type -> DFAState.  ``predicate_edges`` is an
    ordered list of ``(semantic_context_or_None, alt, target)``; a
    ``None`` context is the default ("gated else") edge that fires when
    every earlier predicate failed — it implements ordered-choice
    fallback for the highest-numbered conflicting alternative.  Contexts
    are :class:`~repro.analysis.semctx.SemanticContext` trees (hoisted
    AND/OR combinations over predicates and synpreds).
    """

    __slots__ = ("id", "configs", "edges", "predicate_edges", "is_accept",
                 "predicted_alt", "busy", "recursive_alts", "overflowed")

    def __init__(self, state_id: int):
        self.id = state_id
        self.edges: Dict[int, "DFAState"] = {}
        self.predicate_edges: List[Tuple[Optional[Predicate], int, "DFAState"]] = []
        self.is_accept = False
        self.predicted_alt: Optional[int] = None
        # Construction-only bookkeeping (Algorithm 9): the state's ATN
        # configurations and the busy set of their keys.  The analyzer
        # sets both to None once the decision's DFA is finished.
        self.configs: Optional[List] = []
        self.busy: Optional[Set] = set()
        self.recursive_alts: Set[int] = set()
        self.overflowed = False

    def config_key(self) -> frozenset:
        """The state's identity during construction: the keys of its
        configurations.  Closure adds exactly one busy-set key per
        configuration, so until resolve() prunes ``configs`` the busy
        set *is* that key set."""
        return frozenset(self.busy)

    def __repr__(self):
        if self.is_accept:
            return "D%d=>%d" % (self.id, self.predicted_alt)
        return "D%d" % self.id


class DFA:
    """A lookahead DFA for one decision, plus analysis metadata."""

    def __init__(self, decision: int, rule_name: str, num_alternatives: int):
        self.decision = decision
        self.rule_name = rule_name
        self.num_alternatives = num_alternatives
        self.states: List[DFAState] = []
        self.start: Optional[DFAState] = None
        #: alternatives that analysis statically removed in favour of a
        #: lower-numbered conflicting alternative (ambiguity warnings).
        self.statically_resolved_alts: Set[int] = set()
        self.had_overflow = False
        self.fell_back_to_ll1 = False
        self.gave_up_reason: Optional[str] = None

    def new_state(self) -> DFAState:
        s = DFAState(len(self.states))
        self.states.append(s)
        return s

    def __repr__(self):
        return "DFA(decision %d in %s: %d states)" % (
            self.decision, self.rule_name, len(self.states))
