"""Unit tests for the flat-table execution core (repro.tables).

The equivalence sweep against the analyzer's DFAs lives in
``test_table_equivalence.py``; this file covers the encoding primitives
directly: sorted-range lookup (including boundary codepoints — the bug
class the shared bisect helper exists to kill), pool interning, table
validation, and version gating.
"""

import pytest

from repro.analysis.dfa_model import DFA
from repro.analysis.semctx import PredAnd, PredLeaf
from repro.atn.transitions import Predicate
from repro.lexgen.dfa import LexerDFA, LexerDFAState
from repro.tables import (
    TABLE_FORMAT_VERSION,
    DecisionTable,
    LexerTable,
    SemCtxPool,
    TableSet,
    compile_decision_table,
    compile_lexer_table,
    find_interval_index,
)

MAX_CODEPOINT = 0x10FFFF


class TestFindIntervalIndex:
    LOS = (48, 65, 97)
    HIS = (57, 90, 122)  # digits, uppercase, lowercase

    def _probe(self, point):
        return find_interval_index(self.LOS, self.HIS, point, 0, len(self.LOS))

    def test_interval_interiors(self):
        assert self._probe(50) == 0
        assert self._probe(70) == 1
        assert self._probe(110) == 2

    def test_boundary_codepoints(self):
        """Every lo/hi endpoint is inside; every endpoint±1 outside the
        neighbouring interval is a miss — the exact off-by-one class the
        old tuple-bisect encoding made easy to get wrong."""
        for idx, (lo, hi) in enumerate(zip(self.LOS, self.HIS)):
            assert self._probe(lo) == idx
            assert self._probe(hi) == idx
        for gap in (47, 58, 64, 91, 96, 123):
            assert self._probe(gap) == -1

    def test_extremes(self):
        assert self._probe(0) == -1
        assert self._probe(MAX_CODEPOINT) == -1
        full = ((0,), (MAX_CODEPOINT,))
        assert find_interval_index(full[0], full[1], 0, 0, 1) == 0
        assert find_interval_index(full[0], full[1], MAX_CODEPOINT, 0, 1) == 0

    def test_empty_row(self):
        assert find_interval_index(self.LOS, self.HIS, 50, 1, 1) == -1


class TestLexerStateBoundaries:
    """LexerTable.next_state shares the interval lookup; drive it
    through tables compiled from hand-built construction states."""

    def _table(self, *edges):
        s = LexerDFAState(0)
        for lo, hi, target in edges:
            s.add_edge(lo, hi, target)
        s.sort_edges()
        dfa = LexerDFA()
        dfa.states = [s, LexerDFAState(1), LexerDFAState(2)]
        return compile_lexer_table(dfa)

    def test_hits_and_misses_at_boundaries(self):
        t = self._table((48, 57, 1), (97, 122, 2))
        assert t.next_state(0, 48) == 1
        assert t.next_state(0, 57) == 1
        assert t.next_state(0, 97) == 2
        assert t.next_state(0, 122) == 2
        for miss in (0, 47, 58, 96, 123, MAX_CODEPOINT):
            assert t.next_state(0, miss) == -1

    def test_no_edges(self):
        assert self._table().next_state(0, 65) == -1

    def test_unsorted_insertion_is_fixed_by_sort(self):
        t = self._table((97, 122, 2), (48, 57, 1))
        assert t.next_state(0, 48) == 1
        assert t.next_state(0, 122) == 2


class TestSemCtxPool:
    def _leaf(self, code):
        return PredLeaf(Predicate(code=code))

    def test_interning_dedupes_equal_contexts(self):
        pool = SemCtxPool()
        a = pool.add(self._leaf("x > 0"))
        b = pool.add(self._leaf("x > 0"))
        c = pool.add(self._leaf("y > 0"))
        assert a == b
        assert c != a
        assert len(pool) == 2

    def test_synpred_flags_follow_contents(self):
        pool = SemCtxPool()
        plain = pool.add(self._leaf("x"))
        syn = pool.add(PredLeaf(Predicate(synpred="synpred1")))
        mixed = pool.add(PredAnd([self._leaf("x"),
                                  PredLeaf(Predicate(synpred="synpred2"))]))
        assert not pool.synpred_flags[plain]
        assert pool.synpred_flags[syn]
        assert pool.synpred_flags[mixed]

    def test_round_trip_preserves_order_and_flags(self):
        pool = SemCtxPool()
        pool.add(self._leaf("x"))
        pool.add(PredLeaf(Predicate(synpred="synpred1")))
        rebuilt = SemCtxPool.from_dict(pool.to_dict())
        assert rebuilt.to_dict() == pool.to_dict()
        assert rebuilt.synpred_flags == pool.synpred_flags

    def test_duplicate_entries_rejected_on_load(self):
        payload = {"contexts": [{"op": "pred",
                                 "pred": Predicate(code="x").to_dict()}] * 2}
        with pytest.raises(ValueError, match="duplicate"):
            SemCtxPool.from_dict(payload)


def _tiny_dfa():
    dfa = DFA(0, "r", 2)
    s0, s1, s2 = dfa.new_state(), dfa.new_state(), dfa.new_state()
    s0.edges[5] = s1
    s0.edges[9] = s2
    s1.is_accept = True
    s1.predicted_alt = 1
    s2.is_accept = True
    s2.predicted_alt = 2
    dfa.start = s0
    return dfa


class TestDecisionTableValidation:
    def _table_dict(self):
        return compile_decision_table(_tiny_dfa(), SemCtxPool()).to_dict()

    @pytest.mark.parametrize("mutation, message", [
        (lambda d: d.update(edge_index=[0, 1, 2]), "row pointers"),
        (lambda d: d.update(edge_keys=[9, 5]), "unsorted edge keys"),
        (lambda d: d.update(edge_targets=[1, 99]), "target out of range"),
        (lambda d: d.update(accept_alt=[0, 1]), "accept_alt length"),
        (lambda d: d.update(start=7), "start state out of range"),
        (lambda d: d.update(pred_ctx=[3], pred_alt=[1], pred_target=[0],
                            pred_index=[0, 1, 1, 1]), "pool range"),
    ])
    def test_damage_is_rejected(self, mutation, message):
        data = self._table_dict()
        mutation(data)
        with pytest.raises(ValueError, match=message):
            DecisionTable.from_dict(data, SemCtxPool())

    def test_clean_dict_loads(self):
        table = DecisionTable.from_dict(self._table_dict(), SemCtxPool())
        assert table.to_dict() == self._table_dict()

    def test_non_contiguous_state_ids_rejected_at_compile(self):
        dfa = _tiny_dfa()
        dfa.states[1].id = 7
        with pytest.raises(ValueError, match="non-contiguous"):
            compile_decision_table(dfa, SemCtxPool())


class TestLexerTableRoundTrip:
    def _dfa(self):
        dfa = LexerDFA()
        s0, s1 = LexerDFAState(0), LexerDFAState(1)
        s0.add_edge(48, 57, 1)
        s0.sort_edges()
        s1.add_edge(48, 57, 1)
        s1.sort_edges()
        s1.accept = (0, "INT", ())
        dfa.states = [s0, s1]
        return dfa

    def test_lossless(self):
        table = compile_lexer_table(self._dfa())
        rebuilt = LexerTable.from_dict(table.to_dict())
        assert rebuilt.to_dict() == table.to_dict()

    def test_next_state_matches_object_walk(self):
        """The table's bisect against a linear scan of the construction
        states' interval edges."""
        dfa = self._dfa()
        table = compile_lexer_table(dfa)
        for state in dfa.states:
            for cp in (0, 47, 48, 52, 57, 58, MAX_CODEPOINT):
                expected = next((target for lo, hi, target
                                 in zip(state.los, state.his, state.targets)
                                 if lo <= cp <= hi), -1)
                assert table.next_state(state.id, cp) == expected

    @pytest.mark.parametrize("mutation, message", [
        (lambda d: d.update(edge_lo=[58, 48]), "interval"),
        (lambda d: d.update(edge_targets=[9] * len(d["edge_targets"])),
         "target out of range"),
        (lambda d: d.update(accept_idx=[5, 5]), "accept index"),
    ])
    def test_damage_is_rejected(self, mutation, message):
        data = compile_lexer_table(self._dfa()).to_dict()
        mutation(data)
        with pytest.raises(ValueError, match=message):
            LexerTable.from_dict(data)


class TestTableSet:
    def test_round_trip(self):
        pool = SemCtxPool()
        table = compile_decision_table(_tiny_dfa(), pool)
        ts = TableSet(pool, [table])
        rebuilt = TableSet.from_dict(ts.to_dict())
        assert rebuilt.to_dict() == ts.to_dict()

    def test_unknown_version_rejected(self):
        pool = SemCtxPool()
        ts = TableSet(pool, [compile_decision_table(_tiny_dfa(), pool)])
        data = ts.to_dict()
        data["version"] = TABLE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="table format"):
            TableSet.from_dict(data)
