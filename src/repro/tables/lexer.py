"""Dense flat-table form of the lexer DFA.

Same CSR idiom as :class:`~repro.tables.lookahead.DecisionTable`, over
character intervals instead of token types:

* ``edge_index[s] : edge_index[s+1]`` is state ``s``'s row in the three
  parallel arrays ``edge_lo`` / ``edge_hi`` (sorted disjoint inclusive
  codepoint ranges) and ``edge_targets``;
* ``accept_idx[s]`` indexes the deduplicated ``accepts`` pool of
  ``(priority, rule_name, commands)`` labels, -1 for non-accept states.

The tokenizer's maximal-munch loop walks these arrays directly.  The
table is the lexer's only form after
:func:`~repro.lexgen.builder.build_lexer`: :func:`compile_lexer_table`
flattens the (minimized) subset-construction
:class:`~repro.lexgen.dfa.LexerDFA` once, and the object graph is
dropped.

For the ASCII range — which dominates real source corpora — the interval
bisect per character is replaced by alphabet compression:
:meth:`LexerTable.ascii_index` derives (lazily, mirroring
:meth:`~repro.tables.lookahead.DecisionTable.execution_index`) codepoint
*equivalence classes* from the union of all interval boundaries below
128.  Two ASCII codepoints land in the same class exactly when every
state moves them to the same target, so the tokenizer does two array
indexes per character (``class_of[cp]``, then the state's dense class
row) instead of a ``bisect_right``; codepoints >= 128 keep the interval
bisect.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.exceptions import ArtifactFormatError
from repro.tables.lookahead import _row
from repro.tables.ranges import find_interval_index

#: Exclusive upper bound of the alphabet-compressed fast path: dense
#: class tables cover codepoints < 128, everything above bisects ranges.
ASCII_LIMIT = 128


class LexerTable:
    """Flat form of a whole lexer DFA."""

    __slots__ = ("start", "n_states", "edge_index", "edge_lo", "edge_hi",
                 "edge_targets", "accept_idx", "accepts", "_ascii")

    def __init__(self, start: int, n_states: int,
                 edge_index: Tuple[int, ...], edge_lo: Tuple[int, ...],
                 edge_hi: Tuple[int, ...], edge_targets: Tuple[int, ...],
                 accept_idx: Tuple[int, ...],
                 accepts: Tuple[Tuple[int, str, Tuple[str, ...]], ...]):
        self.start = start
        self.n_states = n_states
        self.edge_index = edge_index
        self.edge_lo = edge_lo
        self.edge_hi = edge_hi
        self.edge_targets = edge_targets
        self.accept_idx = accept_idx
        self.accepts = accepts
        self._ascii = None  # lazily derived class index, never serialized

    def ascii_index(self):
        """Derived alphabet-compressed index for the ASCII fast path:
        ``(class_of, class_rows)``.

        ``class_of[cp]`` maps each codepoint < 128 to its equivalence
        class: the elementary intervals cut by every edge boundary in the
        table, so all codepoints of one class take the same transition in
        *every* state.  ``class_rows[s][c]`` is state ``s``'s target for
        class ``c`` (-1 when stuck).  Two array indexes replace the
        per-character interval bisect; built once per table on first
        tokenize, and the CSR arrays stay the stored form.
        """
        index = self._ascii
        if index is None:
            # Every lo (and hi+1) below the limit starts a new elementary
            # interval; 0 and the limit itself bound the class universe.
            marks = {0, ASCII_LIMIT}
            for lo, hi in zip(self.edge_lo, self.edge_hi):
                if lo < ASCII_LIMIT:
                    marks.add(lo)
                if hi < ASCII_LIMIT - 1:
                    marks.add(hi + 1)
            marks = sorted(marks)
            n_classes = len(marks) - 1
            class_of = []
            for c in range(n_classes):
                class_of.extend([c] * (marks[c + 1] - marks[c]))
            rows: List[Tuple[int, ...]] = []
            for s in range(self.n_states):
                row = [-1] * n_classes
                for e in range(self.edge_index[s], self.edge_index[s + 1]):
                    lo = self.edge_lo[e]
                    if lo >= ASCII_LIMIT:
                        break  # row intervals are sorted: the rest are non-ASCII
                    hi = min(self.edge_hi[e], ASCII_LIMIT - 1)
                    target = self.edge_targets[e]
                    # [lo, hi] is a union of elementary classes by construction.
                    c = bisect_left(marks, lo)
                    while marks[c] <= hi:
                        row[c] = target
                        c += 1
                rows.append(tuple(row))
            index = self._ascii = (tuple(class_of), tuple(rows))
        return index

    def next_state(self, state: int, codepoint: int) -> int:
        """Target state for one character, or -1 (stuck).  The tokenizer
        inlines this walk; the method exists for tests and tools."""
        i = find_interval_index(self.edge_lo, self.edge_hi, codepoint,
                                self.edge_index[state],
                                self.edge_index[state + 1])
        return self.edge_targets[i] if i >= 0 else -1

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "n_states": self.n_states,
            "edge_index": list(self.edge_index),
            "edge_lo": list(self.edge_lo),
            "edge_hi": list(self.edge_hi),
            "edge_targets": list(self.edge_targets),
            "accept_idx": list(self.accept_idx),
            "accepts": [[p, name, list(commands)]
                        for p, name, commands in self.accepts],
        }

    @classmethod
    def from_dict(cls, data: dict, validate: bool = True) -> "LexerTable":
        """Rebuild from the stored form; ``validate=False`` (checksummed
        ``.llt`` images only) skips the structural sweep but keeps the
        shape checks, mirroring
        :meth:`~repro.tables.lookahead.DecisionTable.from_dict`."""
        table = cls(
            data["start"], data["n_states"],
            _row(data["edge_index"]), _row(data["edge_lo"]),
            _row(data["edge_hi"]), _row(data["edge_targets"]),
            _row(data["accept_idx"]),
            tuple((p, name, tuple(commands))
                  for p, name, commands in data["accepts"]))
        if validate:
            table.validate()
        else:
            table._check_shape()
        return table

    def _check_shape(self) -> None:
        """The checks that read no array element (see
        :meth:`~repro.tables.lookahead.DecisionTable._check_shape`)."""
        n = self.n_states
        if len(self.accept_idx) != n:
            raise ArtifactFormatError("accept_idx length %d != %d states"
                                      % (len(self.accept_idx), n))
        if len(self.edge_index) != n + 1:
            raise ArtifactFormatError("bad edge_index row pointers")
        if (len(self.edge_hi) != len(self.edge_lo)
                or len(self.edge_targets) != len(self.edge_lo)):
            raise ArtifactFormatError("edge arrays disagree in length")
        if not (0 <= self.start < n) and n:
            raise ArtifactFormatError("start state out of range")

    def validate(self) -> None:
        self._check_shape()
        n = self.n_states
        if self.edge_index[0] != 0 or self.edge_index[-1] != len(self.edge_lo):
            raise ArtifactFormatError("bad edge_index row pointers")
        if any(self.edge_index[i] > self.edge_index[i + 1] for i in range(n)):
            raise ArtifactFormatError("non-monotone edge_index")
        for s in range(n):
            row_lo = self.edge_lo[self.edge_index[s]:self.edge_index[s + 1]]
            row_hi = self.edge_hi[self.edge_index[s]:self.edge_index[s + 1]]
            for i, (lo, hi) in enumerate(zip(row_lo, row_hi)):
                if lo > hi:
                    raise ArtifactFormatError("inverted interval in state %d" % s)
                if i and row_hi[i - 1] >= lo:
                    raise ArtifactFormatError(
                        "overlapping/unsorted intervals in state %d" % s)
        if any(not (0 <= t < n) for t in self.edge_targets):
            raise ArtifactFormatError("edge target out of range")
        if any(a != -1 and not (0 <= a < len(self.accepts))
               for a in self.accept_idx):
            raise ArtifactFormatError("accept index out of range")

    def __repr__(self):
        return "LexerTable(%d states, %d ranges)" % (
            self.n_states, len(self.edge_lo))


def compile_lexer_table(dfa) -> LexerTable:
    """The one object-model -> flat-table boundary for lexer DFAs."""
    edge_index: List[int] = [0]
    edge_lo: List[int] = []
    edge_hi: List[int] = []
    edge_targets: List[int] = []
    accept_idx: List[int] = []
    accepts: List[Tuple[int, str, Tuple[str, ...]]] = []
    accept_pool = {}
    for position, state in enumerate(dfa.states):
        if state.id != position:
            raise ValueError("non-contiguous lexer DFA state ids")
        edge_lo.extend(state.los)
        edge_hi.extend(state.his)
        edge_targets.extend(state.targets)
        edge_index.append(len(edge_lo))
        label: Optional[Tuple[int, str, Tuple[str, ...]]] = state.accept
        if label is None:
            accept_idx.append(-1)
        else:
            label = (label[0], label[1], tuple(label[2]))
            idx = accept_pool.get(label)
            if idx is None:
                idx = accept_pool[label] = len(accepts)
                accepts.append(label)
            accept_idx.append(idx)
    return LexerTable(dfa.start_id, len(dfa.states), tuple(edge_index),
                      tuple(edge_lo), tuple(edge_hi), tuple(edge_targets),
                      tuple(accept_idx), tuple(accepts))
