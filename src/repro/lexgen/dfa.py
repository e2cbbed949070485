"""Subset construction over character intervals for the lexer DFA.

Edges are keyed by disjoint character intervals rather than single
characters so the DFA stays tiny even with full-Unicode complements.
Each state keeps its edges as parallel ``los`` / ``his`` / ``targets``
int arrays sorted by ``lo`` — already the row layout of the flat
:class:`~repro.tables.lexer.LexerTable`.  The object graph is
construction scratch: :func:`~repro.lexgen.builder.build_lexer` builds
it here, minimizes it, compiles it into that table and drops it; the
tokenizer, the cache and every later reader use the table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lexgen.nfa import NFA, NFAState


class LexerDFAState:
    """DFA state: sorted disjoint interval edges + best accept rule.

    ``los``/``his``/``targets`` are parallel arrays: edge ``i`` matches
    codepoints in ``[los[i], his[i]]`` (inclusive) and goes to state id
    ``targets[i]``; ``los`` is sorted and intervals are disjoint.
    """

    __slots__ = ("id", "los", "his", "targets", "accept")

    def __init__(self, state_id: int):
        self.id = state_id
        self.los: List[int] = []
        self.his: List[int] = []
        self.targets: List[int] = []
        self.accept: Optional[Tuple[int, str, tuple]] = None

    def add_edge(self, lo: int, hi: int, target: int) -> None:
        """Append one interval edge (caller keeps them sorted/disjoint,
        or calls :meth:`sort_edges` once after building)."""
        self.los.append(lo)
        self.his.append(hi)
        self.targets.append(target)

    def sort_edges(self) -> None:
        order = sorted(range(len(self.los)), key=lambda k: self.los[k])
        self.los = [self.los[k] for k in order]
        self.his = [self.his[k] for k in order]
        self.targets = [self.targets[k] for k in order]

    def __repr__(self):
        acc = "!" + self.accept[1] if self.accept else ""
        return "L%d%s" % (self.id, acc)


class LexerDFA:
    def __init__(self):
        self.states: List[LexerDFAState] = []
        self.start_id = 0

    def __repr__(self):
        return "LexerDFA(%d states)" % len(self.states)


def build_lexer_dfa(nfa: NFA) -> LexerDFA:
    """Classic subset construction, with the alphabet partitioned per
    state set by the boundary points of its outgoing interval labels."""
    dfa = LexerDFA()
    by_ids = {s.id: s for s in nfa.states}
    start_set = nfa.epsilon_closure([nfa.start])
    state_map: Dict[frozenset, int] = {}

    def get_state(id_set: frozenset) -> int:
        existing = state_map.get(id_set)
        if existing is not None:
            return existing
        ds = LexerDFAState(len(dfa.states))
        dfa.states.append(ds)
        state_map[id_set] = ds.id
        best = None
        for sid in id_set:
            acc = by_ids[sid].accept_rule
            if acc is not None and (best is None or acc[0] < best[0]):
                best = acc
        ds.accept = best
        return ds.id

    work = [start_set]
    get_state(start_set)
    done = set()
    while work:
        id_set = work.pop()
        if id_set in done:
            continue
        done.add(id_set)
        ds = dfa.states[state_map[id_set]]

        # Partition the alphabet at every interval boundary of this set.
        points = set()
        labelled: List[Tuple[int, int, NFAState]] = []
        for sid in id_set:
            for label, target in by_ids[sid].edges:
                if label is None:
                    continue
                for lo, hi in label.intervals():
                    points.add(lo)
                    points.add(hi + 1)
                    labelled.append((lo, hi, target))
        boundaries = sorted(points)
        edges: List[Tuple[Tuple[int, int], frozenset]] = []
        for i in range(len(boundaries) - 1):
            seg_lo, seg_hi = boundaries[i], boundaries[i + 1] - 1
            targets = [t for lo, hi, t in labelled if lo <= seg_lo and seg_hi <= hi]
            if not targets:
                continue
            closure = nfa.epsilon_closure(targets)
            edges.append(((seg_lo, seg_hi), closure))

        # Merge adjacent segments with identical targets, emit edges.
        merged: List[Tuple[Tuple[int, int], frozenset]] = []
        for seg, closure in edges:
            if merged and merged[-1][1] == closure and merged[-1][0][1] + 1 == seg[0]:
                merged[-1] = ((merged[-1][0][0], seg[1]), closure)
            else:
                merged.append((seg, closure))
        for (lo, hi), closure in merged:
            target_id = get_state(closure)
            if closure not in done:
                work.append(closure)
            ds.add_edge(lo, hi, target_id)
        ds.sort_edges()  # bisect requires sorted intervals
    return dfa
