"""Rule programs: the lowered form the interpreter executes.

Every program is checked against the ATN it was lowered from, by an
independent walk: the ops are exactly the executable states reachable
from the rule start (one op each), no op is an epsilon edge or a
synpred marker, each PREDICT op has one target per alternative, each
CALL op links its callee's program, and every successor is the first
executable state along the contracted epsilon chain.  The suite
grammars exercise decisions, matches, calls and synpreds; the small
grammars from the runtime tests add user predicates, actions,
parameterised (left-recursion-rewritten) rules, ``~`` sets, wildcards
and ε-only rules.
"""

import sys
import threading

import pytest

import repro
from repro.analysis.construction import AnalysisOptions
from repro.atn import build_atn
from repro.atn.program import (
    ACTION,
    CALL,
    MATCH,
    MATCH_SET,
    PREDICATE,
    PREDICT,
    STOP,
    lower_atn,
    rule_programs,
)
from repro.atn.transitions import (
    ActionTransition,
    AtomTransition,
    EpsilonTransition,
    PredicateTransition,
    RuleTransition,
    SetTransition,
    Transition,
)
from repro.exceptions import GrammarError
from repro.grammars import PAPER_ORDER, load

#: Grammars from the runtime tests, one per op kind the suite lacks.
SMALL = {
    "leftrec_params": ("grammar Expr; s : e ; e : e '+' t | t ; t : '(' e ')' | NUM ;"
                       " NUM : [0-9]+ ; WS : ' ' -> skip ;", None),
    "args": ("grammar Param2; s : outer[5] ; outer[n] : inner[n + 1] ;"
             " inner[m] : {m == 6}? A | B ; A : 'a' ; B : 'b' ;", None),
    "predicates": ("grammar P2; s : A {state['ok']}? B | {state['allow_a']}? A ;"
                   " A : 'a' ; B : 'b' ;", None),
    "actions": ("grammar Act; s : (ID {state['names'].append(LT(-1).text)})+ ;"
                " ID : [a-z]+ ; WS : [ ]+ -> skip ;", None),
    "always_exec_synpred": (
        "grammar Spec2; options { backtrack=true; } s : x A | x B ;"
        " x : '(' x ')' | ID {{state['probes'] += 1}} ; A : '!' ; B : '?' ;"
        " ID : [a-z]+ ; WS : [ ]+ -> skip ;",
        AnalysisOptions(max_recursion_depth=1)),
    "wildcard": ("grammar W; s : A X | . Y ; A:'a'; B:'b'; X:'x'; Y:'y';", None),
    "not_set": ("grammar N; s : ~A | A ; A:'a'; B:'b'; C:'c';", None),
    "epsilon_rules": ("grammar E; s : a b X ; a : ; b : B | ; B:'b'; X:'x';", None),
}


def small_host(name):
    text, options = SMALL[name]
    return repro.compile_grammar(text, options=options)


@pytest.fixture(scope="module", params=list(PAPER_ORDER) + list(SMALL))
def host(request):
    if request.param in SMALL:
        return small_host(request.param)
    return load(request.param).compile()


# -- the independent reference walk --------------------------------------------------


def executable(state):
    if state.is_decision:
        return True
    t = state.transitions[0]
    return not (isinstance(t, EpsilonTransition)
                or (isinstance(t, PredicateTransition) and t.predicate.is_synpred))


def first_executable(state, stop):
    while state is not stop and not executable(state):
        state = state.transitions[0].target
    return state


def reachable_executable(atn, rule):
    start, stop = atn.rule_start[rule], atn.rule_stop[rule]
    seen, todo, found = set(), [start], set()
    while todo:
        state = todo.pop()
        if state is stop or state in seen:
            continue
        seen.add(state)
        if executable(state):
            found.add(state)
        for t in state.transitions:
            todo.append(t.follow_state if isinstance(t, RuleTransition) else t.target)
    return found


#: Transition type -> (opcode, transition attribute the operand holds).
EXPECTED_OP = {
    AtomTransition: (MATCH, "token_type"),
    SetTransition: (MATCH_SET, "token_set"),
    RuleTransition: (CALL, None),
    PredicateTransition: (PREDICATE, "predicate"),
    ActionTransition: (ACTION, "action"),
}


def check_program(program, atn, programs):
    start, stop = atn.rule_start[program.name], atn.rule_stop[program.name]
    # The state each op executes: its decision's, or its transition's owner.
    owner = {s.transitions[0]: s for s in atn.states
             if s.transitions and not s.is_decision}
    states = [atn.decision_state(op[1]) if op[0] == PREDICT else owner[op[2]]
              for op in program.code]
    assert len(states) == len(set(states))
    assert set(states) == reachable_executable(atn, program.name)

    def pc_of(state):
        state = first_executable(state, stop)
        return STOP if state is stop else states.index(state)

    assert program.entry == pc_of(start)
    for state, op in zip(states, program.code):
        opcode, operand, arg, nxt = op
        if state.is_decision:
            assert opcode == PREDICT and operand == state.decision
            assert len(arg) == len(state.transitions) \
                == atn.decisions[state.decision].num_alternatives
            assert list(arg) == [pc_of(t.target) for t in state.transitions]
            assert nxt is (state is start)
            continue
        (t,) = state.transitions
        assert not isinstance(t, EpsilonTransition)
        assert not (isinstance(t, PredicateTransition) and t.predicate.is_synpred)
        expected_opcode, attribute = EXPECTED_OP[type(t)]
        assert opcode == expected_opcode
        if opcode == CALL:
            assert operand is programs[t.rule_name]
            assert nxt == pc_of(t.follow_state)
        else:
            assert operand == getattr(t, attribute)
            assert nxt == pc_of(t.target)


# -- invariants ----------------------------------------------------------------------


def test_every_program_matches_its_submachine(host):
    atn = host.analysis.atn
    programs = rule_programs(atn, host.grammar)
    assert set(programs) == {r.name for r in host.grammar.parser_rules}
    for program in programs.values():
        assert program.params == tuple(host.grammar.rule(program.name).params)
        check_program(program, atn, programs)


def test_suite_grammars_use_only_decisions_matches_and_calls():
    for name in PAPER_ORDER:
        host = load(name).compile()
        atn = host.analysis.atn
        programs = rule_programs(atn, host.grammar)
        opcodes = {op[0] for p in programs.values() for op in p.code}
        assert opcodes == {PREDICT, MATCH, CALL}, name
        # Contraction drops about half the states (Java1.5*: 1250 -> 563 ops).
        assert sum(len(p.code) for p in programs.values()) < 0.6 * len(atn.states)


def test_small_grammars_cover_every_opcode():
    opcodes = set()
    params = False
    for name in SMALL:
        host = small_host(name)
        programs = rule_programs(host.analysis.atn, host.grammar)
        opcodes |= {op[0] for p in programs.values() for op in p.code}
        params |= any(p.params for p in programs.values())
    assert opcodes == {PREDICT, MATCH, MATCH_SET, CALL, PREDICATE, ACTION}
    assert params


def test_epsilon_only_rule_has_no_ops():
    host = small_host("epsilon_rules")
    programs = rule_programs(host.analysis.atn, host.grammar)
    assert programs["a"].code == [] and programs["a"].entry == STOP
    assert [op[0] for op in programs["b"].code] == [PREDICT, MATCH]
    assert programs["b"].code[0][2] == (1, STOP)
    assert host.parse("x").to_sexpr() == "(s (a) (b) x)"
    assert host.parse("bx").to_sexpr() == "(s (a) (b b) x)"


def test_unexpected_transition_fails_when_lowering():
    class Odd(Transition):
        __slots__ = ()

    host = small_host("not_set")
    atn = build_atn(host.grammar)
    state = next(s for s in atn.states if s.rule_name == "s"
                 and s.transitions and isinstance(s.transitions[0], AtomTransition))
    state.transitions[0] = Odd(state.transitions[0].target)
    with pytest.raises(GrammarError, match="cannot lower transition"):
        lower_atn(atn, host.grammar)


def test_programs_are_built_on_first_parse_and_shared():
    host = small_host("leftrec_params")
    atn = host.analysis.atn
    assert getattr(atn, "_rule_programs", None) is None  # not in build_atn
    assert host.parse("1+(2+3)").to_sexpr() == \
        host.parse("1+(2+3)").to_sexpr()
    assert rule_programs(atn, host.grammar) is atn._rule_programs


# -- concurrent first use ----------------------------------------------------------


def race_first_parse(host, text, n_threads):
    """``n_threads`` threads parse ``text`` as ``host``'s first use, with
    the GIL switching as often as it can; returns their spanned trees,
    the errors they raised, and whether any is still running."""
    # Lex up front so the threads reach their first parser together.
    streams = [host.tokenize(text) for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads)
    trees = [None] * n_threads
    errors = []

    def first_use(i):
        try:
            barrier.wait(timeout=30)
            trees[i] = host.parse(streams[i]).to_spanned_sexpr()
        except BaseException as e:  # noqa: B902 - reported by the caller
            errors.append(e)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_use, args=(i,), daemon=True)
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    return trees, errors, any(t.is_alive() for t in threads)


def test_concurrent_first_use_sees_only_complete_programs(tmp_path):
    """Serve ``--jobs 0`` parses in threads over shared hosts, so the
    lazily built table is shared state: threads that race to a fresh
    host's first parse must each run a complete table.  One race
    catches a table published early about half the time, so run a few,
    each on a freshly booted host."""
    bench = load("rats_c")
    text = bench.generate_program(3, seed=42)
    expected = bench.compile().parse(text).to_spanned_sexpr()
    n_threads = 8  # more threads than cores
    for _trial in range(5):
        # A warm boot from the image builds a fresh ATN: no programs yet.
        host = repro.compile_grammar(bench.grammar_text, cache_dir=str(tmp_path))
        assert getattr(host.analysis.atn, "_rule_programs", None) is None
        trees, errors, alive = race_first_parse(host, text, n_threads)
        assert not alive
        assert errors == []
        assert trees == [expected] * n_threads
