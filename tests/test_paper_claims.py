"""Section 1 claims, asserted end-to-end.

Each test corresponds to one sentence of the paper's introduction /
conclusion, exercised through the public API.
"""

import pytest

import repro
from repro.analysis import AnalysisOptions
from repro.analysis.diagnostics import AnalysisDiagnostic
from repro.baselines.glr import GLRParser, LR0Automaton
from repro.baselines.earley import desugar_to_cfg
from repro.baselines.packrat import PackratParser
from repro.runtime.parser import ParserOptions


class TestIntroductionClaims:
    def test_peg_hazard_a_or_ab(self):
        """"Input ab never matches the second alternative" under PEG —
        but LL(*) chooses correctly, and the validator warns statically."""
        host = repro.compile_grammar("grammar H; s : A | A B ; A:'a'; B:'b';")
        assert host.recognize("a") and host.recognize("ab")
        peg = PackratParser(host.grammar)
        assert peg.recognize(host.tokenize("a"))
        assert not peg.recognize(host.tokenize("ab"))
        assert any(i.code == "shadowed-alternative"
                   for i in host.validation_issues)

    def test_glr_silently_accepts_ambiguity_llstar_warns(self):
        host = repro.compile_grammar("grammar A; s : (X | X) Y ; X:'x'; Y:'y';")
        assert any(d.kind == AnalysisDiagnostic.AMBIGUITY
                   for d in host.analysis.diagnostics)
        assert GLRParser(host.grammar).recognize(host.tokenize("xy"))

    def test_no_strict_ordering_llstar_vs_lrk(self):
        """a : b A+ X | c A+ Y is LL(*) but conflicts for LR(0)/fixed-k
        bottom-up machinery (the LPG demonstration)."""
        host = repro.compile_grammar(
            "grammar O; a : b AT+ X | c AT+ Y ; b : ; c : ; "
            "AT:'a'; X:'x'; Y:'y';")
        assert host.analysis.records[0].category == "cyclic"
        auto = LR0Automaton(desugar_to_cfg(host.grammar), "a")
        assert auto.conflict_states()  # bottom-up nondeterminism remains

    def test_graceful_throttle_within_one_decision(self):
        """"Even within the same parsing decision, the parser decides on
        a strategy dynamically according to the input sequence."""
        from repro.runtime.telemetry import ParseTelemetry

        host = repro.compile_grammar(r"""
            grammar T;
            options { backtrack=true; }
            t : '-'* ID | expr ;
            expr : INT | '-' expr ;
            ID : [a-z]+ ; INT : [0-9]+ ; WS : [ ]+ -> skip ;
        """, options=AnalysisOptions(max_recursion_depth=1))

        def depth_and_backtracks(text):
            p = ParseTelemetry()
            host.parse(text, options=ParserOptions(telemetry=p))
            stats = p.profiler.stats[0]
            return stats.max_depth, stats.backtrack_events

        assert depth_and_backtracks("x") == (1, 0)        # k = 1
        d, b = depth_and_backtracks("-x")                 # k = 2, no spec
        assert d == 2 and b == 0
        _d, b = depth_and_backtracks("---7")              # fail over
        assert b > 0

    def test_context_sensitivity_beyond_cfg(self):
        """Semantic predicates push recognition beyond context-free:
        accept a^n b^n c^n (the canonical non-CF language)."""
        host = repro.compile_grammar(r"""
            grammar ABC;
            s : {{state['n'] = 0}} ('a' {{state['n'] += 1}})+ bs cs ;
            bs : ('b' {{state['n2'] = state.get('n2', 0) + 1}})+
                 {state['n2'] == state['n']}? ;
            cs : ('c' {{state['n3'] = state.get('n3', 0) + 1}})+
                 {state['n3'] == state['n']}? ;
        """)

        def accepts(text):
            tokens = host.token_stream_from_types(["'%s'" % c for c in text])
            parser = host.parser(tokens, options=ParserOptions(user_state={}))
            return parser.recognize()

        assert accepts("abc")
        assert accepts("aabbcc")
        assert accepts("aaabbbccc")
        assert not accepts("aabbc")
        assert not accepts("aabbbcc")

    def test_actions_never_run_speculatively(self):
        """"Speculating parsers cannot execute side-effecting actions
        like print statements" — LL(*) defers them to the real parse."""
        host = repro.compile_grammar(r"""
            grammar S;
            options { backtrack=true; }
            s : x '!' {state.append('bang')} | x '?' {state.append('what')} ;
            x : '(' x ')' | ID {state.append('leaf')} ;
            ID : [a-z]+ ; WS : [ ]+ -> skip ;
        """, options=AnalysisOptions(max_recursion_depth=1))
        log = []
        host.parse("( q ) ?", options=ParserOptions(user_state=log))
        # exactly one leaf action (real parse), despite the failed
        # speculation of alternative 1 having traversed rule x too
        assert log == ["leaf", "what"]

    def test_recursive_descent_is_debuggable(self):
        """One-to-one mapping of grammar elements to parser operations:
        the trace of rule entries mirrors the derivation."""
        from repro.runtime.telemetry import TraceTelemetry

        host = repro.compile_grammar(
            "grammar D; s : a b ; a : A ; b : B ; A:'a'; B:'b';")
        trace = TraceTelemetry()
        host.parse(host.token_stream_from_types(["A", "B"]),
                   options=ParserOptions(telemetry=trace))
        entered = [e.split()[1] for e in trace.lines if "enter" in e]
        assert entered == ["s", "a", "b"]


class TestConclusionClaims:
    def test_eliminates_almost_all_backtracking(self):
        """"Experiments reveal that ANTLR generates efficient parsers,
        eliminating almost all backtracking."""
        from repro.grammars import load
        from repro.runtime.telemetry import ParseTelemetry

        bench = load("java")
        host = bench.compile()
        telemetry = ParseTelemetry()
        host.parse(bench.generate_program(15, seed=99),
                   options=ParserOptions(telemetry=telemetry))
        report = telemetry.report(host.analysis)
        assert report.backtrack_event_percent < 10.0

    def test_accepts_all_but_left_recursive_cfgs(self):
        # indirect left recursion is the one hard rejection
        with pytest.raises(repro.GrammarError):
            repro.compile_grammar(
                "grammar L; a : b X | X ; b : a Y | Y ; X:'x'; Y:'y';")
        # immediate left recursion is rewritten, everything else accepted
        host = repro.compile_grammar(
            "grammar R; e : e '+' e | INT ; INT : [0-9]+ ;")
        assert host.recognize(host.token_stream_from_types(
            ["INT", "'+'", "INT"]))
