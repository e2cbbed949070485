"""Rule programs: each parser rule's ATN submachine lowered to flat code.

Section 4 of the paper describes LL(*) parsers as ANTLR emits them:
every rule is a straight line of token matches and rule calls, with one
prediction switch per decision.  The ATN (Section 5.1) is the form
static analysis needs, and a third or more of its states are epsilon
hops that a parser executes as no-ops.  Lowering contracts them away.
Each rule becomes a :class:`RuleProgram`: one op per *executable* state
reachable from the rule's start, in a list indexed by program counter.

An op is a 4-tuple whose first item is a small-int opcode:

* ``(PREDICT, decision, targets, at_rule_start)`` — run the decision's
  lookahead DFA and jump to ``targets[alt - 1]``; ``at_rule_start``
  marks the rule-level decision whose alternative the tree records.
* ``(MATCH, token_type, transition, next)`` — match one token type.
* ``(MATCH_SET, token_set, transition, next)`` — match a ``~``/wildcard
  set.
* ``(CALL, callee, transition, next)`` — invoke the callee's program
  (linked when the programs are built); ``next`` follows the return.
* ``(PREDICATE, predicate, transition, next)`` — a user predicate that
  must hold.
* ``(ACTION, action, transition, next)`` — an embedded action.

Targets are resolved through epsilon edges and syntactic-predicate
markers (a synpred only directs prediction; once an alternative is
chosen it has done its job).  A target that reaches the rule's stop
state is :data:`STOP`, so a rule that derives only ε has no ops.  Every
op but PREDICT keeps its ATN transition: error recovery reads follow
states, continuation sets and expected token types from it.

Programs are built once per ATN, on first use
(:func:`rule_programs`), not by :func:`~repro.atn.builder.build_atn`:
a host that is booted only to publish its artifact never pays for them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.atn.transitions import (
    ActionTransition,
    AtomTransition,
    EpsilonTransition,
    PredicateTransition,
    RuleTransition,
    SetTransition,
)
from repro.exceptions import GrammarError

PREDICT = 0
MATCH = 1
MATCH_SET = 2
CALL = 3
PREDICATE = 4
ACTION = 5

#: Program counter of a rule's return (its ATN stop state).
STOP = -1


class RuleProgram:
    """One parser rule's lowered submachine: ``code`` is its op list,
    run from ``entry`` (0, or :data:`STOP` when ``code`` is empty);
    ``params`` are the rule's parameter names."""

    __slots__ = ("name", "params", "entry", "code")

    def __init__(self, name: str, params: Sequence[str]):
        self.name = name
        self.params = tuple(params)
        self.entry = STOP
        self.code: List[tuple] = []

    def __repr__(self):
        return "RuleProgram(%s: %d ops)" % (self.name, len(self.code))


def rule_programs(atn, grammar) -> Dict[str, RuleProgram]:
    """Rule name -> :class:`RuleProgram` for every parser rule of ``atn``,
    lowered on the first call and shared by every later one.

    Parsers on different threads may race to the first call: each then
    lowers its own complete table, and the table is published (one
    attribute store) only once complete, so no parser ever sees a
    partial one.
    """
    programs = getattr(atn, "_rule_programs", None)
    if programs is None:
        programs = lower_atn(atn, grammar)
        atn._rule_programs = programs
    return programs


def lower_atn(atn, grammar) -> Dict[str, RuleProgram]:
    """Lower every rule submachine of ``atn`` (built from ``grammar``)."""
    programs = {name: RuleProgram(name, grammar.rule(name).params)
                for name in atn.rule_start}
    for program in programs.values():
        _lower_rule(program, atn, programs)
    return programs


def _lower_rule(program: RuleProgram, atn, programs) -> None:
    start = atn.rule_start[program.name]
    stop = atn.rule_stop[program.name]
    states: List = []  # states[pc] is the ATN state op pc executes
    pcs: Dict[object, int] = {}

    def resolve(state) -> int:
        """The pc of the first executable state at or after ``state``."""
        while state is not stop and not state.is_decision:
            t = state.transitions[0]
            if not (type(t) is EpsilonTransition
                    or (type(t) is PredicateTransition and t.predicate.is_synpred)):
                break
            state = t.target
        if state is stop:
            return STOP
        pc = pcs.get(state)
        if pc is None:
            pc = pcs[state] = len(states)
            states.append(state)
        return pc

    program.entry = resolve(start)
    code = program.code
    # ``states`` grows as ops resolve their targets; lower in that order.
    while len(code) < len(states):
        state = states[len(code)]
        code.append(_lower_state(state, state is start, resolve, programs,
                                 program.name))


def _lower_state(state, at_rule_start: bool, resolve, programs,
                 rule_name: str) -> tuple:
    if state.is_decision:
        return (PREDICT, state.decision,
                tuple(resolve(t.target) for t in state.transitions),
                at_rule_start)
    t = state.transitions[0]
    kind = type(t)
    if kind is AtomTransition:
        return (MATCH, t.token_type, t, resolve(t.target))
    if kind is RuleTransition:
        return (CALL, programs[t.rule_name], t, resolve(t.follow_state))
    if kind is SetTransition:
        return (MATCH_SET, t.token_set, t, resolve(t.target))
    if kind is PredicateTransition:
        return (PREDICATE, t.predicate, t, resolve(t.target))
    if kind is ActionTransition:
        return (ACTION, t.action, t, resolve(t.target))
    raise GrammarError("cannot lower transition %r in rule %s" % (t, rule_name))
