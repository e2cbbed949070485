"""Lookahead DFA (Definition 4): DFA over the token alphabet, augmented
with ordered predicate edges and accept states that name the predicted
production.
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

    @property
    def has_synpred_edge(self) -> bool:
        return any(ctx is not None and ctx.contains_synpred
                   for ctx, _, _ in self.predicate_edges)

    def to_dict(self) -> dict:
        """JSON-safe form; edge targets are state ids (diagnostics and tests).

        Construction-time bookkeeping (``configs``, ``busy``) is not
        serialized: it references live ATN state objects, the analyzer
        releases it when the decision is done, and nothing after
        analysis reads it — prediction, classification, and the shape
        queries above only need edges, predicate edges, and the
        accept/alt markers.
        """
        return {
            "id": self.id,
            "is_accept": self.is_accept,
            "predicted_alt": self.predicted_alt,
            "edges": sorted([t, target.id] for t, target in self.edges.items()),
            "predicate_edges": [
                [ctx.to_dict() if ctx is not None else None, alt, target.id]
                for ctx, alt, target in self.predicate_edges],
            "recursive_alts": sorted(self.recursive_alts),
            "overflowed": self.overflowed,
        }

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

    # -- shape queries (decision classification, Tables 1-2) ----------------------

    def is_cyclic(self) -> bool:
        """True when the token-edge graph contains a cycle (arbitrary k)."""
        color: Dict[int, int] = {}

        def dfs(s: DFAState) -> bool:
            color[s.id] = 1
            for nxt in s.edges.values():
                c = color.get(nxt.id, 0)
                if c == 1:
                    return True
                if c == 0 and dfs(nxt):
                    return True
            color[s.id] = 2
            return False

        return dfs(self.start) if self.start else False

    def uses_backtracking(self) -> bool:
        return any(s.has_synpred_edge for s in self.states)

    def has_predicate_edges(self) -> bool:
        return any(s.predicate_edges for s in self.states)

    def fixed_k(self) -> Optional[int]:
        """Max lookahead depth if acyclic (the k of LL(k)); None if cyclic.

        Depth counts token edges from the start state to the deepest
        state; an accept reached after consuming j tokens used j tokens
        of lookahead.  A pure predicate test at the start state is
        k = 0 in DFA terms but reported as 1 (the parser still peeks).
        """
        if self.start is None:
            return None
        if self.is_cyclic():
            return None
        depth: Dict[int, int] = {}
        order: List[DFAState] = []
        seen: Set[int] = set()

        def topo(s: DFAState) -> None:
            if s.id in seen:
                return
            seen.add(s.id)
            for nxt in s.edges.values():
                topo(nxt)
            order.append(s)

        topo(self.start)
        best = 0
        depth[self.start.id] = 0
        for s in reversed(order):
            d = depth.get(s.id, 0)
            for nxt in s.edges.values():
                if d + 1 > depth.get(nxt.id, 0):
                    depth[nxt.id] = d + 1
            if d > best:
                best = d
        return max(best, 1)

    def accept_states(self) -> Dict[int, List[DFAState]]:
        out: Dict[int, List[DFAState]] = {}
        for s in self.states:
            if s.is_accept:
                out.setdefault(s.predicted_alt, []).append(s)
        return out

    def reachable_alts(self) -> Set[int]:
        """Alternatives some accept state or predicate edge can predict."""
        alts: Set[int] = set()
        for s in self.states:
            if s.is_accept:
                alts.add(s.predicted_alt)
            for _, alt, _ in s.predicate_edges:
                alts.add(alt)
        return alts

    def unreachable_alts(self) -> Set[int]:
        """Dead productions: defined but never predicted (Section 1.1's
        static detection of dead productions)."""
        return set(range(1, self.num_alternatives + 1)) - self.reachable_alts()

    # -- comparable form (table equivalence, tests) -------------------------------

    def to_dict(self) -> dict:
        """Deterministic JSON-safe form: states in id order, sorted edges."""
        return {
            "decision": self.decision,
            "rule_name": self.rule_name,
            "num_alternatives": self.num_alternatives,
            "start": self.start.id if self.start is not None else None,
            "statically_resolved_alts": sorted(self.statically_resolved_alts),
            "had_overflow": self.had_overflow,
            "fell_back_to_ll1": self.fell_back_to_ll1,
            "gave_up_reason": self.gave_up_reason,
            "states": [s.to_dict() for s in self.states],
        }

    def __repr__(self):
        return "DFA(decision %d in %s: %d states%s)" % (
            self.decision, self.rule_name, len(self.states),
            ", backtracks" if self.uses_backtracking() else "")
