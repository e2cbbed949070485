"""Lookahead-DFA shape queries, on tables compiled from hand-built automata."""

from collections import Counter

from repro.analysis.dfa_model import DFA
from repro.analysis.semctx import PredLeaf
from repro.atn.transitions import Predicate
from repro.tables import SemCtxPool, compile_decision_table


def build(edges, accepts, start=0, n_alts=2):
    """edges: {(src, tok): dst}; accepts: {state: alt}."""
    dfa = DFA(0, "r", n_alts)
    n = 1 + max([s for s, _ in edges] + list(edges.values()) + list(accepts), default=0)
    for _ in range(n):
        dfa.new_state()
    for (src, tok), dst in edges.items():
        dfa.states[src].edges[tok] = dfa.states[dst]
    for state, alt in accepts.items():
        dfa.states[state].is_accept = True
        dfa.states[state].predicted_alt = alt
    dfa.start = dfa.states[start]
    return dfa


def table(dfa):
    return compile_decision_table(dfa, SemCtxPool())


def add_pred_edge(dfa, predicate, alt):
    """A predicate edge from the start state to a fresh accept for ``alt``."""
    acc = dfa.new_state()
    acc.is_accept = True
    acc.predicted_alt = alt
    dfa.states[0].predicate_edges.append((PredLeaf(predicate), alt, acc))


class TestShapeQueries:
    def test_acyclic_fixed_k_linear_chain(self):
        t = table(build({(0, 1): 1, (1, 2): 2}, {2: 1}))
        assert not t.is_cyclic()
        assert t.fixed_k() == 2

    def test_fixed_k_takes_longest_path(self):
        # diamond: short path accepts at depth 1, long at depth 3
        t = table(build({(0, 1): 1, (0, 2): 2, (2, 3): 3, (3, 4): 4},
                        {1: 1, 4: 2}))
        assert t.fixed_k() == 3

    def test_self_loop_is_cyclic(self):
        t = table(build({(0, 1): 0, (0, 2): 1}, {1: 1}))
        assert t.is_cyclic()
        assert t.fixed_k() is None

    def test_long_cycle_detected(self):
        t = table(build({(0, 1): 1, (1, 1): 2, (2, 1): 0, (0, 9): 3}, {3: 1}))
        assert t.is_cyclic()

    def test_min_k_is_one_even_for_pred_only(self):
        dfa = build({}, {})
        d0 = dfa.new_state()
        dfa.start = d0
        assert table(dfa).fixed_k() == 1

    def test_accept_states_grouping(self):
        t = table(build({(0, 1): 1, (0, 2): 2, (0, 3): 3}, {1: 1, 2: 1, 3: 2}))
        groups = Counter(alt for alt in t.accept_alt if alt)
        assert groups[1] == 2
        assert groups[2] == 1

    def test_unreachable_alts(self):
        t = table(build({(0, 1): 1}, {1: 1}, n_alts=3))
        assert t.unreachable_alts() == {2, 3}

    def test_pred_edges_count_for_reachability(self):
        dfa = build({(0, 1): 1}, {1: 1}, n_alts=2)
        add_pred_edge(dfa, Predicate(code="x"), 2)
        assert table(dfa).unreachable_alts() == set()

    def test_backtracking_detection(self):
        dfa = build({(0, 1): 1}, {1: 1})
        add_pred_edge(dfa, Predicate(synpred="synpred1"), 2)
        t = table(dfa)
        assert t.uses_backtracking()
        assert t.has_predicate_edges()

    def test_user_preds_not_backtracking(self):
        dfa = build({(0, 1): 1}, {1: 1})
        add_pred_edge(dfa, Predicate(code="p"), 2)
        t = table(dfa)
        assert not t.uses_backtracking()
        assert t.has_predicate_edges()

    def test_state_repr(self):
        dfa = build({}, {0: 1})
        assert "=>1" in repr(dfa.states[0])
