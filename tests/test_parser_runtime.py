"""LL(*) parser runtime: trees, predicates, actions, speculation, errors."""

import pytest

import repro
from repro.analysis import AnalysisOptions
from repro.exceptions import (
    ActionError,
    FailedPredicateError,
    MismatchedTokenError,
    NoViableAltError,
)
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry, TraceTelemetry
from repro.runtime.trees import RuleNode, TokenNode, TreeVisitor


SIMPLE = r"""
grammar Simple;
s : ID '=' INT ';' | 'print' ID ';' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""


@pytest.fixture(scope="module")
def simple():
    return repro.compile_grammar(SIMPLE)


class TestBasicParsing:
    def test_tree_shape(self, simple):
        t = simple.parse("x = 42 ;")
        assert t.to_sexpr() == "(s x = 42 ;)"
        assert t.alt == 1

    def test_second_alternative(self, simple):
        t = simple.parse("print x ;")
        assert t.alt == 2

    def test_tree_text_property(self, simple):
        assert simple.parse("x = 42 ;").text == "x = 42 ;"

    def test_recognize(self, simple):
        assert simple.recognize("x = 1 ;")
        assert not simple.recognize("x = ;")

    def test_eof_required(self, simple):
        with pytest.raises(MismatchedTokenError):
            simple.parse("x = 1 ; x")

    def test_eof_optional(self, simple):
        tree = simple.parse("x = 1 ; junk", require_eof=False)
        assert tree is not None

    def test_parse_named_rule(self, simple):
        assert simple.parse("x = 1 ;", rule_name="s") is not None

    def test_mismatch_reports_rule_and_token(self, simple):
        with pytest.raises(MismatchedTokenError) as info:
            simple.parse("x = x ;")
        assert info.value.rule_name == "s"
        assert info.value.token.text == "x"

    def test_no_viable_alt_reports_offending_token(self, simple):
        with pytest.raises(NoViableAltError) as info:
            simple.parse("42 ;")
        assert info.value.token.text == "42"


class TestErrorReportingDepth:
    def test_error_at_deepest_token_not_decision_start(self):
        """Section 4.4: report at the token that killed the DFA."""
        host = repro.compile_grammar(r"""
            grammar Deep;
            a : A+ B | A+ C ;
            A : 'a' ; B : 'b' ; C : 'c' ; D : 'd' ;
            WS : [ ]+ -> skip ;
        """)
        with pytest.raises(NoViableAltError) as info:
            host.parse("a a a a a d")
        assert info.value.token.text == "d"
        assert info.value.index == 5

    def test_single_token_deletion_recovery(self, simple):
        opts = ParserOptions(recover=True)
        parser = simple.parser("x = = 7 ;", options=opts)
        tree = parser.parse()
        assert tree is not None
        assert tree.to_spanned_sexpr() == \
            "(s[0:4] x@0 =@1 (<error>[2:2] =) 7@3 ;@4)"
        assert len(parser.errors) == 1


class TestSpeculationErrorDepth:
    """Section 4.4: when every gate of a decision fails, the deepest
    token a failed speculation reached locates the error better than
    the token that stopped the DFA — in the interpreter and in
    generated parsers alike (they share one predictor)."""

    @pytest.fixture(scope="class")
    def host(self):
        return repro.compile_grammar(r"""
            grammar Spec;
            options { backtrack=true; }
            s : e ';' | e '.' ;
            e : '(' e ')' | ID ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """)

    @staticmethod
    def _generated(host):
        from repro.codegen import generate_python
        from repro.codegen.support import GeneratedParser

        namespace = {}
        exec(compile(generate_python(host.analysis), "<generated>", "exec"),
             namespace)
        return [v for v in namespace.values()
                if isinstance(v, type) and issubclass(v, GeneratedParser)
                and v is not GeneratedParser][0]

    @pytest.mark.parametrize("backend", ["interp", "codegen"])
    def test_reported_at_deepest_failed_speculation(self, host, backend):
        text = "( ( ( ( x ) ) ) ;"  # one ')' short: both alternatives fail at ';'
        with pytest.raises(NoViableAltError) as info:
            if backend == "interp":
                host.parse(text)
            else:
                self._generated(host)(host.tokenize(text)).parse()
        error = info.value
        assert (error.index, error.token.text) == (8, ";")
        assert error.position == "1:16"


class TestSemanticPredicates:
    HOST = None

    @pytest.fixture(scope="class")
    def host(self):
        return repro.compile_grammar(r"""
            grammar Pred;
            s : {state['allow_a']}? A | A B? ;
            A : 'a' ; B : 'b' ;
            WS : [ ]+ -> skip ;
        """)

    def test_predicate_steers_decision(self, host):
        t = host.parse("a", options=ParserOptions(user_state={"allow_a": True}))
        assert t.alt == 1
        t = host.parse("a", options=ParserOptions(user_state={"allow_a": False}))
        assert t.alt == 2

    def test_failed_predicate_mid_rule(self):
        host = repro.compile_grammar(r"""
            grammar P2;
            s : A {state['ok']}? B ;
            A : 'a' ; B : 'b' ;
            WS : [ ]+ -> skip ;
        """)
        assert host.parse("a b", options=ParserOptions(user_state={"ok": True}))
        with pytest.raises(FailedPredicateError):
            host.parse("a b", options=ParserOptions(user_state={"ok": False}))

    def test_predicate_exception_wrapped(self):
        host = repro.compile_grammar(r"""
            grammar P3;
            s : {undefined_name}? A | A ;
            A : 'a' ;
        """)
        with pytest.raises(ActionError):
            host.parse("a")

    def test_typename_predicate_c_style(self):
        """The paper's Section 4.2 example: a symbol-table predicate
        distinguishing type names from plain identifiers."""
        host = repro.compile_grammar(r"""
            grammar C;
            stmt : decl ';' | expr ';' ;
            decl : type_id ID ;
            type_id : {LT(1).text in state['types']}? ID ;
            expr : ID ('*' ID)? ;
            ID : [a-zA-Z_]+ ;
            WS : [ ]+ -> skip ;
        """)
        state = {"types": {"T"}}
        # "T x ;" is a declaration; "a * b ;" is an expression
        t1 = host.parse("T x ;", options=ParserOptions(user_state=state))
        assert t1.first_rule("decl") is not None
        t2 = host.parse("a * b ;", options=ParserOptions(user_state=state))
        assert t2.first_rule("expr") is not None


class TestActions:
    def test_actions_mutate_state(self):
        host = repro.compile_grammar(r"""
            grammar Act;
            s : (ID {state['names'].append(LT(-1).text)})+ ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """)
        state = {"names": []}
        host.parse("a bc d", options=ParserOptions(user_state=state))
        assert state["names"] == ["a", "bc", "d"]

    def test_actions_disabled_during_speculation(self):
        host = repro.compile_grammar(r"""
            grammar Spec;
            options { backtrack=true; }
            s : x A | x B ;
            x : ID {state['count'] += 1} ;
            A : '!' ; B : '?' ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """, options=AnalysisOptions(max_recursion_depth=1))
        state = {"count": 0}
        host.parse("z ?", options=ParserOptions(user_state=state))
        # The action ran exactly once (the real parse), despite any
        # speculative attempts along the way.
        assert state["count"] == 1

    def test_always_exec_actions_run_during_speculation(self):
        # Nested parentheses make the decision non-LL-regular, so the
        # synpred actually runs (a k=2 DFA would have stripped it).
        host = repro.compile_grammar(r"""
            grammar Spec2;
            options { backtrack=true; }
            s : x A | x B ;
            x : '(' x ')' | ID {{state['probes'] += 1}} ;
            A : '!' ; B : '?' ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """, options=AnalysisOptions(max_recursion_depth=1))
        state = {"probes": 0}
        host.parse("( z ) ?", options=ParserOptions(user_state=state))
        # once speculatively (failed synpred for alt 1) + once for real
        assert state["probes"] >= 2

    def test_ctx_value_available(self):
        host = repro.compile_grammar(r"""
            grammar V;
            s : INT {ctx.value = int(LT(-1).text) * 2} ;
            INT : [0-9]+ ;
        """)
        assert host.parse("21").value == 42

    def test_action_error_wrapped(self):
        host = repro.compile_grammar(r"""
            grammar AE;
            s : A {1/0} ;
            A : 'a' ;
        """)
        with pytest.raises(ActionError):
            host.parse("a")

    def test_recognize_leaves_the_callers_options_alone(self):
        """``recognize`` turns tree building off for its own parse only:
        options shared with other parsers must not change under them."""
        host = repro.compile_grammar(r"""
            grammar RO;
            s : A {state.append(parser.options.build_tree)} ;
            A : 'a' ;
        """)
        seen = []
        options = ParserOptions(user_state=seen)
        assert host.recognize("a", options=options)
        assert seen == [True] and options.build_tree is True


class TestParameterizedRules:
    def test_args_passed_and_visible_to_predicates(self):
        host = repro.compile_grammar(r"""
            grammar Param;
            s : item[3] ;
            item[n] : {n > 2}? A | B ;
            A : 'a' ; B : 'b' ;
        """)
        assert host.parse("a") is not None

    def test_arg_expressions_evaluated_in_caller_frame(self):
        host = repro.compile_grammar(r"""
            grammar Param2;
            s : outer[5] ;
            outer[n] : inner[n + 1] ;
            inner[m] : {m == 6}? A | B ;
            A : 'a' ; B : 'b' ;
        """)
        assert host.parse("a") is not None


class TestMemoization:
    def grammar(self):
        return r"""
            grammar Memo;
            options { backtrack=true; memoize=true; }
            s : x x x A | x x x B | x x x C ;
            x : '(' x ')' | ID ;
            A : '!' ; B : '?' ; C : '.' ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """

    def test_memoized_and_unmemoized_agree(self):
        host = repro.compile_grammar(self.grammar(),
                                     options=AnalysisOptions(max_recursion_depth=1))
        text = "((a)) ((b)) ((c)) ."
        t1 = host.parse(text, options=ParserOptions(memoize=True))
        t2 = host.parse(text, options=ParserOptions(memoize=False))
        assert t1.to_sexpr() == t2.to_sexpr()

    def test_speculation_leaves_no_tree_nodes(self):
        host = repro.compile_grammar(self.grammar(),
                                     options=AnalysisOptions(max_recursion_depth=1))
        tree = host.parse("(a) (b) (c) ?")
        # exactly three top-level x invocations (each wrapping one nested
        # x), with no phantom nodes left over from failed speculation
        assert len(tree.child_rules("x")) == 3
        xs = [n for n in tree.walk()
              if isinstance(n, RuleNode) and n.rule_name == "x"]
        assert len(xs) == 6


class TestProfilerIntegration:
    def test_decision_events_recorded(self, simple):
        telemetry = ParseTelemetry()
        simple.parse("x = 1 ;", options=ParserOptions(telemetry=telemetry))
        report = telemetry.report()
        assert report.total_events >= 1
        assert report.avg_k >= 1.0

    def test_backtrack_depth_recorded(self):
        host = repro.compile_grammar(r"""
            grammar BT;
            options { backtrack=true; }
            t : '-'* ID | expr ;
            expr : INT | '-' expr ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
        """, options=AnalysisOptions(max_recursion_depth=1))
        telemetry = ParseTelemetry()
        host.parse("- - - 5", options=ParserOptions(telemetry=telemetry))
        report = telemetry.report(host.analysis)
        assert report.avg_backtrack_k > 0
        assert report.did_backtrack_decisions

    def test_trace_listener_records(self, simple):
        trace = TraceTelemetry()
        simple.parse("x = 1 ;", options=ParserOptions(telemetry=trace))
        text = trace.transcript()
        assert "enter s" in text and "exit s" in text


class TestTrees:
    def test_visitor_dispatch(self, simple):
        class Collect(TreeVisitor):
            def __init__(self):
                self.rules = []

            def visit_s(self, node):
                self.rules.append(node.rule_name)
                return self.generic_visit(node)

        v = Collect()
        v.visit(simple.parse("x = 1 ;"))
        assert v.rules == ["s"]

    def test_child_accessors(self, simple):
        t = simple.parse("x = 1 ;")
        assert len(t.child_tokens()) == 4
        assert t.child_rules() == []

    def test_token_node_sexpr(self):
        from repro.runtime.token import Token

        node = TokenNode(Token(1, "hello"))
        assert node.to_sexpr() == "hello"

    def test_build_tree_disabled(self, simple):
        parser = simple.parser("x = 1 ;", options=ParserOptions(build_tree=False))
        assert parser.parse() is None
