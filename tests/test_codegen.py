"""Code generation: generated parsers agree with the interpreter."""

import pytest

import repro
from repro.analysis import AnalysisOptions
from repro.codegen import generate_python
from repro.exceptions import MismatchedTokenError, NoViableAltError, RecognitionError


def load_parser(host, class_name=None):
    from repro.codegen.support import GeneratedParser

    source = generate_python(host.analysis, class_name=class_name)
    namespace = {}
    exec(compile(source, "<generated>", "exec"), namespace)
    cls = [v for v in namespace.values()
           if isinstance(v, type) and issubclass(v, GeneratedParser)
           and v is not GeneratedParser][0]
    return source, cls


class TestGeneratedStructure:
    @pytest.fixture(scope="class")
    def host(self):
        return repro.compile_grammar(r"""
            grammar Tiny;
            s : ID '=' INT ';' | 'print' ID ';' ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
        """)

    def test_has_rule_methods(self, host):
        source, cls = load_parser(host)
        assert hasattr(cls, "rule_s")
        assert "def rule_s(self):" in source

    def test_class_name_override(self, host):
        source, cls = load_parser(host, class_name="MyParser")
        assert cls.__name__ == "MyParser"

    def test_tables_serialized(self, host):
        _source, cls = load_parser(host)
        assert len(cls.TABLES["decisions"]) == host.analysis.num_decisions
        assert cls.START_RULE == "s"
        # The embedded core reconstitutes to live, validated tables.
        pool, tables = cls._live_tables()
        assert len(tables) == host.analysis.num_decisions
        assert cls._live_tables() is cls._tables_cache  # cached per class

    def test_source_is_plain_python(self, host):
        source, _cls = load_parser(host)
        compile(source, "gen.py", "exec")  # would raise on bad syntax


class TestEquivalence:
    CASES = [
        # (grammar, analysis opts, accepted inputs, rejected inputs)
        (r"""
         grammar A;
         s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
         expr : INT ;
         ID : [a-zA-Z_]+ ;
         INT : [0-9]+ ;
         WS : [ ]+ -> skip ;
         """, None,
         ["x", "x = 4", "unsigned unsigned int y", "unsigned T x", "int q"],
         ["=", "unsigned", "x ="]),
        (r"""
         grammar B;
         options { backtrack=true; }
         t : '-'* ID | expr ;
         expr : INT | '-' expr ;
         ID : [a-z]+ ;
         INT : [0-9]+ ;
         WS : [ ]+ -> skip ;
         """, AnalysisOptions(max_recursion_depth=1),
         ["x", "--x", "---5", "7"],
         ["-", "x x"]),
        (r"""
         grammar C;
         e : e '*' e | e '+' e | INT | '(' e ')' ;
         INT : [0-9]+ ;
         WS : [ ]+ -> skip ;
         """, None,
         ["1+2*3", "(1+2)*3", "7"],
         ["+1", "1+", "()"]),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_generated_matches_interpreter(self, case):
        grammar, opts, accepted, rejected = self.CASES[case]
        host = repro.compile_grammar(grammar, options=opts)
        _source, cls = load_parser(host)
        for text in accepted:
            interp_tree = host.parse(text)
            gen_tree = cls(host.tokenize(text)).parse()
            assert gen_tree.to_sexpr() == interp_tree.to_sexpr(), text
        for text in rejected:
            with pytest.raises(RecognitionError):
                cls(host.tokenize(text)).parse()

    def test_generated_actions_run(self):
        host = repro.compile_grammar(r"""
            grammar Act;
            s : (ID {state.append(LT(-1).text)})+ ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """)
        _source, cls = load_parser(host)
        collected = []
        cls(host.tokenize("a b c"), state=collected).parse()
        assert collected == ["a", "b", "c"]

    def test_generated_semantic_predicate(self):
        host = repro.compile_grammar(r"""
            grammar Pred;
            s : {state['go']}? A | B ;
            A : 'a' ; B : 'b' ;
        """)
        _source, cls = load_parser(host)
        assert cls(host.tokenize("a"), state={"go": True}).parse().alt == 1
        with pytest.raises(RecognitionError):
            cls(host.tokenize("a"), state={"go": False}).parse()

    def test_generated_memoization_during_speculation(self):
        host = repro.compile_grammar(r"""
            grammar M;
            options { backtrack=true; memoize=true; }
            s : x x A | x x B ;
            x : '(' x ')' | ID ;
            A : '!' ; B : '?' ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """, options=AnalysisOptions(max_recursion_depth=1))
        _source, cls = load_parser(host)
        t = cls(host.tokenize("((a)) (b) ?")).parse()
        assert t is not None

    def test_generated_eof_check(self):
        host = repro.compile_grammar("grammar E; s : A ; A : 'a' ;")
        _source, cls = load_parser(host)
        with pytest.raises(MismatchedTokenError):
            cls(host.tokenize("aa")).parse()

    def test_generated_error_position(self):
        host = repro.compile_grammar(r"""
            grammar P;
            a : A+ B | A+ C ;
            A : 'a' ; B : 'b' ; C : 'c' ; D : 'd' ;
            WS : [ ]+ -> skip ;
        """)
        _source, cls = load_parser(host)
        with pytest.raises(NoViableAltError) as info:
            cls(host.tokenize("a a a d")).parse()
        assert info.value.token.text == "d"

    def test_generated_profiler_hookup(self):
        from repro.runtime.telemetry import ParseTelemetry

        host = repro.compile_grammar(r"""
            grammar Prof;
            s : (A | B)+ ;
            A : 'a' ; B : 'b' ;
            WS : [ ]+ -> skip ;
        """)
        _source, cls = load_parser(host)
        tel = ParseTelemetry()
        cls(host.tokenize("a b a"), telemetry=tel).parse()
        assert tel.profiler.total_events > 0

    def test_parameterized_rules_in_generated_code(self):
        host = repro.compile_grammar(r"""
            grammar LR;
            e : e '+' e | INT ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
        """)
        _source, cls = load_parser(host)
        t = cls(host.tokenize("1+2+3")).parse()
        assert t.to_sexpr() == host.parse("1+2+3").to_sexpr()
