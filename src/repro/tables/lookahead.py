"""Dense flat-table form of one decision's lookahead DFA.

A :class:`DecisionTable` is the only form a decision's lookahead DFA
has once analysis is done: :class:`~repro.analysis.construction.DecisionAnalyzer`
builds an object-graph :class:`~repro.analysis.dfa_model.DFA`,
:func:`compile_decision_table` flattens it into parallel int tuples, and
the graph is dropped.  The flat arrays are the *stored* form — what
the artifact cache serializes and codegen embeds; at prediction time an
:meth:`~DecisionTable.execution_index` is derived from them once (a
one-probe fast map for fixed-k=1 decisions plus per-state transition
dicts), which is what the interpreter and generated parsers walk.  The
shape queries that classify a decision (Tables 1-2) and the tools
(``llstar analyze --dot``, ``llstar explain``) read the same arrays.

Encoding (states are ``0..n_states-1``, matching DFA state ids):

* ``edge_index[s] : edge_index[s+1]`` is state ``s``'s row in the two
  parallel arrays ``edge_keys`` (sorted token types) and
  ``edge_targets`` (target state per key) — CSR over the token alphabet;
* ``accept_alt[s]`` is the predicted 1-based alternative for an accept
  state, 0 otherwise (alternatives are never 0, so one array encodes
  both ``is_accept`` and ``predicted_alt``);
* ``pred_index[s] : pred_index[s+1]`` is the state's row in the ordered
  predicate-edge arrays: ``pred_ctx`` (index into the grammar's
  :class:`~repro.tables.pool.SemCtxPool`, or -1 for the default
  ordered-choice edge), ``pred_alt`` (alternative the edge predicts) and
  ``pred_target`` (target state id — prediction returns at the first
  passing gate, but the DOT rendering draws the edge to its accept
  state).

Analysis metadata the classifier and diagnostics read (overflow flags,
recursive alternatives, statically resolved alternatives, fallback
markers) rides along unflattened — it is sparse, cold, and never touched
during prediction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.dfa_model import DFA
from repro.exceptions import ArtifactFormatError
from repro.tables.pool import SemCtxPool


def _row(values) -> Tuple[int, ...]:
    """Freeze one stored array: lists (``to_dict`` output, generated
    ``TABLES`` literals) become tuples; ``memoryview`` rows (zero-copy mmap slices, already
    immutable and int-indexed) are kept as-is so loading never copies
    the mapped pages."""
    return values if isinstance(values, memoryview) else tuple(values)


class DecisionTable:
    """Flat form of one lookahead DFA; see the module docstring."""

    __slots__ = (
        "decision", "rule_name", "num_alternatives", "start", "n_states",
        "edge_index", "edge_keys", "edge_targets", "accept_alt",
        "pred_index", "pred_ctx", "pred_alt", "pred_target",
        "overflow_states", "recursive", "resolved_alts",
        "had_overflow", "fell_back_to_ll1", "gave_up_reason", "pool",
        "_exec",
    )

    def __init__(self, decision: int, rule_name: str, num_alternatives: int,
                 start: int, n_states: int,
                 edge_index: Tuple[int, ...], edge_keys: Tuple[int, ...],
                 edge_targets: Tuple[int, ...], accept_alt: Tuple[int, ...],
                 pred_index: Tuple[int, ...], pred_ctx: Tuple[int, ...],
                 pred_alt: Tuple[int, ...], pred_target: Tuple[int, ...],
                 overflow_states: Tuple[int, ...],
                 recursive: Tuple[Tuple[int, Tuple[int, ...]], ...],
                 resolved_alts: Tuple[int, ...],
                 had_overflow: bool, fell_back_to_ll1: bool,
                 gave_up_reason: Optional[str], pool: SemCtxPool):
        self.decision = decision
        self.rule_name = rule_name
        self.num_alternatives = num_alternatives
        self.start = start  # -1 when the DFA has no start state
        self.n_states = n_states
        self.edge_index = edge_index
        self.edge_keys = edge_keys
        self.edge_targets = edge_targets
        self.accept_alt = accept_alt
        self.pred_index = pred_index
        self.pred_ctx = pred_ctx
        self.pred_alt = pred_alt
        self.pred_target = pred_target
        self.overflow_states = overflow_states
        self.recursive = recursive
        self.resolved_alts = resolved_alts
        self.had_overflow = had_overflow
        self.fell_back_to_ll1 = fell_back_to_ll1
        self.gave_up_reason = gave_up_reason
        self.pool = pool
        self._exec = None  # lazily built execution index, never serialized

    def execution_index(self):
        """Derived dict form of the token edges for the interpreter's hot
        loop: ``(fast, rows)``.

        ``fast`` maps a lookahead token straight to the predicted
        alternative whenever one DFA step resolves the decision — the
        start state's edges whose target is an accept state, i.e. the
        fixed-``k``\\ =1 case the paper's Table 2 shows dominates real
        grammars.  A hit costs one dict probe.  ``rows[s]`` is state
        ``s``'s ``token -> target`` dict for the full walk (CPython dict
        probes beat a bisect over the CSR row).  Built once per table on
        first prediction; the flat arrays stay the stored form.
        """
        exec_index = self._exec
        if exec_index is None:
            edge_index = self.edge_index
            rows = [dict(zip(self.edge_keys[edge_index[s]:edge_index[s + 1]],
                             self.edge_targets[edge_index[s]:edge_index[s + 1]]))
                    for s in range(self.n_states)]
            fast = {}
            accept_alt = self.accept_alt
            if self.start >= 0 and accept_alt[self.start] == 0:
                for token, target in rows[self.start].items():
                    alt = accept_alt[target]
                    if alt > 0:
                        fast[token] = alt
            exec_index = self._exec = (fast, rows)
        return exec_index

    # -- shape queries (decision classification, Tables 1-2) ---------------------

    def is_cyclic(self) -> bool:
        """True when the token-edge graph reachable from start has a cycle."""
        if self.start < 0:
            return False
        color = [0] * self.n_states  # 0 white, 1 on stack, 2 done
        stack: List[Tuple[int, int]] = [(self.start, self.edge_index[self.start])]
        color[self.start] = 1
        edge_index, edge_targets = self.edge_index, self.edge_targets
        while stack:
            state, cursor = stack[-1]
            if cursor == edge_index[state + 1]:
                color[state] = 2
                stack.pop()
                continue
            stack[-1] = (state, cursor + 1)
            nxt = edge_targets[cursor]
            c = color[nxt]
            if c == 1:
                return True
            if c == 0:
                color[nxt] = 1
                stack.append((nxt, edge_index[nxt]))
        return False

    def fixed_k(self) -> Optional[int]:
        """Max lookahead depth if acyclic (the k of LL(k)); None if cyclic.

        Depth counts token edges from the start state to the deepest
        state; an accept reached after consuming j tokens used j tokens
        of lookahead.  A pure predicate test at the start state is
        k = 0 in DFA terms but reported as 1 (the parser still peeks).
        """
        if self.start < 0:
            return None
        if self.is_cyclic():
            return None
        edge_index, edge_targets = self.edge_index, self.edge_targets
        # Iterative post-order over the reachable subgraph, then longest
        # path by relaxing edges in reverse finish order.
        order: List[int] = []
        seen = [False] * self.n_states
        stack: List[Tuple[int, int]] = [(self.start, edge_index[self.start])]
        seen[self.start] = True
        while stack:
            state, cursor = stack[-1]
            if cursor == edge_index[state + 1]:
                order.append(state)
                stack.pop()
                continue
            stack[-1] = (state, cursor + 1)
            nxt = edge_targets[cursor]
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, edge_index[nxt]))
        depth = [0] * self.n_states
        best = 0
        for state in reversed(order):
            d = depth[state]
            for cursor in range(edge_index[state], edge_index[state + 1]):
                nxt = edge_targets[cursor]
                if d + 1 > depth[nxt]:
                    depth[nxt] = d + 1
            if d > best:
                best = d
        return max(best, 1)

    def uses_backtracking(self) -> bool:
        """True when some predicate edge's gate contains a synpred."""
        flags = self.pool.synpred_flags
        return any(c >= 0 and flags[c] for c in self.pred_ctx)

    def has_predicate_edges(self) -> bool:
        return len(self.pred_ctx) > 0

    def reachable_alts(self) -> set:
        """Alternatives some accept state or predicate edge can predict."""
        alts = {a for a in self.accept_alt if a > 0}
        alts.update(self.pred_alt)
        return alts

    def unreachable_alts(self) -> set:
        """Dead productions: defined but never predicted (Section 1.1's
        static detection of dead productions)."""
        return set(range(1, self.num_alternatives + 1)) - self.reachable_alts()

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form; context indexes refer to the enclosing
        :class:`~repro.tables.tableset.TableSet`'s pool."""
        return {
            "decision": self.decision,
            "rule": self.rule_name,
            "n_alts": self.num_alternatives,
            "start": self.start,
            "n_states": self.n_states,
            "edge_index": list(self.edge_index),
            "edge_keys": list(self.edge_keys),
            "edge_targets": list(self.edge_targets),
            "accept_alt": list(self.accept_alt),
            "pred_index": list(self.pred_index),
            "pred_ctx": list(self.pred_ctx),
            "pred_alt": list(self.pred_alt),
            "pred_target": list(self.pred_target),
            "overflow_states": list(self.overflow_states),
            "recursive": [[s, list(alts)] for s, alts in self.recursive],
            "resolved_alts": list(self.resolved_alts),
            "had_overflow": self.had_overflow,
            "fell_back_to_ll1": self.fell_back_to_ll1,
            "gave_up_reason": self.gave_up_reason,
        }

    @classmethod
    def from_dict(cls, data: dict, pool: SemCtxPool,
                  validate: bool = True) -> "DecisionTable":
        """Rebuild from the stored form.  ``validate=False`` skips the
        O(states + edges) structural sweep — for sources with their own
        integrity check only (the checksummed ``.llt`` image, whose CRC
        detects accidental damage) — but keeps the shape checks, which
        read no array element, so a warm boot touches no table page."""
        table = cls(
            data["decision"], data["rule"], data["n_alts"], data["start"],
            data["n_states"],
            _row(data["edge_index"]), _row(data["edge_keys"]),
            _row(data["edge_targets"]), _row(data["accept_alt"]),
            _row(data["pred_index"]), _row(data["pred_ctx"]),
            _row(data["pred_alt"]), _row(data["pred_target"]),
            tuple(data["overflow_states"]),
            tuple((s, tuple(alts)) for s, alts in data["recursive"]),
            tuple(data["resolved_alts"]),
            data["had_overflow"], data["fell_back_to_ll1"],
            data["gave_up_reason"], pool)
        if validate:
            table.validate()
        else:
            table._check_shape()
        return table

    def _check_shape(self) -> None:
        """The checks that read no array element: each per-state array
        has ``n_states`` entries (row pointers one more), parallel arrays
        agree in length, and the start state is in range."""
        n = self.n_states
        if len(self.accept_alt) != n:
            raise ArtifactFormatError("accept_alt length %d != %d states"
                                      % (len(self.accept_alt), n))
        for name, index in (("edge", self.edge_index),
                            ("pred", self.pred_index)):
            if len(index) != n + 1:
                raise ArtifactFormatError("bad %s_index row pointers" % name)
        if len(self.edge_targets) != len(self.edge_keys):
            raise ArtifactFormatError("edge arrays disagree in length")
        if (len(self.pred_alt) != len(self.pred_ctx)
                or len(self.pred_target) != len(self.pred_ctx)):
            raise ArtifactFormatError("predicate arrays disagree in length")
        if not (-1 <= self.start < n):
            raise ArtifactFormatError("start state out of range")

    def validate(self) -> None:
        """Structural integrity; raises
        :class:`~repro.exceptions.ArtifactFormatError` (a ``ValueError``
        subclass) on a damaged table."""
        self._check_shape()
        n = self.n_states
        for name, index, keys in (("edge", self.edge_index, self.edge_keys),
                                  ("pred", self.pred_index, self.pred_ctx)):
            if index[0] != 0 or index[-1] != len(keys):
                raise ArtifactFormatError("bad %s_index row pointers" % name)
            if any(index[i] > index[i + 1] for i in range(n)):
                raise ArtifactFormatError("non-monotone %s_index" % name)
        for s in range(n):
            row = self.edge_keys[self.edge_index[s]:self.edge_index[s + 1]]
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ArtifactFormatError("unsorted edge keys in state %d" % s)
        if any(not (0 <= t < n) for t in self.edge_targets):
            raise ArtifactFormatError("edge target out of range")
        if any(not (0 <= t < n) for t in self.pred_target):
            raise ArtifactFormatError("predicate target out of range")
        if any(c != -1 and not (0 <= c < len(self.pool)) for c in self.pred_ctx):
            raise ArtifactFormatError("context index out of pool range")

    def __repr__(self):
        return "DecisionTable(decision %d in %s: %d states, %d edges)" % (
            self.decision, self.rule_name, self.n_states, len(self.edge_keys))


def compile_decision_table(dfa: DFA, pool: SemCtxPool) -> DecisionTable:
    """The one object-model -> flat-table boundary for lookahead DFAs."""
    edge_index: List[int] = [0]
    edge_keys: List[int] = []
    edge_targets: List[int] = []
    pred_index: List[int] = [0]
    pred_ctx: List[int] = []
    pred_alt: List[int] = []
    pred_target: List[int] = []
    accept_alt: List[int] = []
    overflow_states: List[int] = []
    recursive: List[Tuple[int, Tuple[int, ...]]] = []
    for position, state in enumerate(dfa.states):
        if state.id != position:
            raise ValueError("non-contiguous DFA state ids (state %d at %d)"
                             % (state.id, position))
        if state.is_accept:
            if not state.predicted_alt:
                raise ValueError("accept state %d has no predicted alt" % state.id)
            accept_alt.append(state.predicted_alt)
        else:
            accept_alt.append(0)
        for token_type, target in sorted(state.edges.items()):
            edge_keys.append(token_type)
            edge_targets.append(target.id)
        edge_index.append(len(edge_keys))
        # Predicate edges keep their *evaluation order* — ordered choice.
        for ctx, alt, target in state.predicate_edges:
            pred_ctx.append(pool.add(ctx) if ctx is not None else -1)
            pred_alt.append(alt)
            pred_target.append(target.id)
        pred_index.append(len(pred_ctx))
        if state.overflowed:
            overflow_states.append(state.id)
        if state.recursive_alts:
            recursive.append((state.id, tuple(sorted(state.recursive_alts))))
    return DecisionTable(
        dfa.decision, dfa.rule_name, dfa.num_alternatives,
        dfa.start.id if dfa.start is not None else -1, len(dfa.states),
        tuple(edge_index), tuple(edge_keys), tuple(edge_targets),
        tuple(accept_alt), tuple(pred_index), tuple(pred_ctx),
        tuple(pred_alt), tuple(pred_target), tuple(overflow_states),
        tuple(recursive), tuple(sorted(dfa.statically_resolved_alts)),
        dfa.had_overflow, dfa.fell_back_to_ll1, dfa.gave_up_reason, pool)
