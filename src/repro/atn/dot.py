"""Graphviz DOT export for ATNs and lookahead DFAs.

Used by the CLI (``llstar analyze --dot``) and by the paper-figure
examples to render diagrams comparable to Figures 1, 2, and 6.
"""

from __future__ import annotations

from typing import Optional


def _esc(text: str) -> str:
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def atn_to_dot(atn, rule_name: Optional[str] = None, vocabulary=None) -> str:
    """Render the ATN (or one rule's submachine) as DOT text."""
    from repro.atn.states import RuleStartState, RuleStopState
    from repro.atn.transitions import (
        ActionTransition, AtomTransition, EpsilonTransition,
        PredicateTransition, RuleTransition, SetTransition)

    lines = ["digraph ATN {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    states = atn.states
    if rule_name is not None:
        reach = set()
        work = [atn.rule_start[rule_name]]
        while work:
            s = work.pop()
            if s.id in reach:
                continue
            reach.add(s.id)
            for t in s.transitions:
                if isinstance(t, RuleTransition):
                    work.append(t.follow_state)
                else:
                    work.append(t.target)
        states = [s for s in states if s.id in reach]

    for s in states:
        shape = "circle"
        label = "s%d" % s.id
        if isinstance(s, RuleStartState):
            label = "p_%s" % s.rule_name
            shape = "box"
        elif isinstance(s, RuleStopState):
            label = "p'_%s" % s.rule_name
            shape = "doublecircle"
        elif s.is_decision:
            label = "d%d" % s.decision
            shape = "diamond"
        lines.append('  s%d [label="%s", shape=%s];' % (s.id, _esc(label), shape))

    for s in states:
        for t in s.transitions:
            if isinstance(t, AtomTransition):
                name = vocabulary.name_of(t.token_type) if vocabulary else str(t.token_type)
                lines.append('  s%d -> s%d [label="%s"];' % (s.id, t.target.id, _esc(name)))
            elif isinstance(t, SetTransition):
                lines.append('  s%d -> s%d [label="%s"];' % (s.id, t.target.id, _esc(repr(t.token_set))))
            elif isinstance(t, RuleTransition):
                lines.append('  s%d -> s%d [label="%s", style=dashed];'
                             % (s.id, t.follow_state.id, _esc(t.rule_name)))
            elif isinstance(t, PredicateTransition):
                lines.append('  s%d -> s%d [label="%s", color=blue];'
                             % (s.id, t.target.id, _esc(repr(t.predicate))))
            elif isinstance(t, ActionTransition):
                lines.append('  s%d -> s%d [label="%s", color=gray];'
                             % (s.id, t.target.id, _esc(repr(t.action))))
            elif isinstance(t, EpsilonTransition):
                lines.append('  s%d -> s%d [label="ε"];' % (s.id, t.target.id))
    lines.append("}")
    return "\n".join(lines)


def dfa_to_dot(table, vocabulary=None) -> str:
    """Render a decision's lookahead DFA, given as its
    :class:`~repro.tables.lookahead.DecisionTable`, in the style of the
    paper's Figure 1: token edges in sorted order, then predicate edges
    in evaluation order."""
    lines = ["digraph DFA {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    for s in range(table.n_states):
        alt = table.accept_alt[s]
        if alt:
            lines.append('  D%d [label="D%d=>%d", shape=doublecircle];' % (s, s, alt))
        else:
            lines.append('  D%d [label="D%d"];' % (s, s))
    contexts = table.pool.contexts
    for s in range(table.n_states):
        for i in range(table.edge_index[s], table.edge_index[s + 1]):
            token_type = table.edge_keys[i]
            name = vocabulary.name_of(token_type) if vocabulary else str(token_type)
            lines.append('  D%d -> D%d [label="%s"];'
                         % (s, table.edge_targets[i], _esc(name)))
        for i in range(table.pred_index[s], table.pred_index[s + 1]):
            ctx = table.pred_ctx[i]
            label = (repr(contexts[ctx]) if ctx >= 0
                     else "default=>%d" % table.pred_alt[i])
            lines.append('  D%d -> D%d [label="%s", color=blue];'
                         % (s, table.pred_target[i], _esc(label)))
    lines.append("}")
    return "\n".join(lines)
