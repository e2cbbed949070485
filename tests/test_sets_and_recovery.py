"""FIRST/FOLLOW sets and panic-mode error recovery."""

import pytest

import repro
from repro.analysis.sets import GrammarSets
from repro.atn import build_atn
from repro.grammar.meta_parser import parse_grammar
from repro.runtime.parser import ParserOptions
from repro.runtime.token import EOF, EPSILON_TYPE


def sets_for(text):
    g = parse_grammar(text)
    return g, GrammarSets(g, build_atn(g))


def names(g, tokens):
    return {g.vocabulary.name_of(t) for t in tokens if t >= 0 or t == EOF}


class TestFirst:
    def test_simple(self):
        g, s = sets_for("s : A B | C ; A:'a'; B:'b'; C:'c';")
        assert names(g, s.first["s"]) == {"A", "C"}

    def test_through_rules(self):
        g, s = sets_for("s : x B ; x : A | ; A:'a'; B:'b';")
        assert names(g, s.first["s"]) == {"A", "B"}
        assert s.nullable("x")
        assert not s.nullable("s")

    def test_star_nullable(self):
        g, s = sets_for("s : A* ; A:'a';")
        assert EPSILON_TYPE in s.first["s"]

    def test_plus_not_nullable(self):
        g, s = sets_for("s : A+ ; A:'a';")
        assert EPSILON_TYPE not in s.first["s"]

    def test_block_union(self):
        g, s = sets_for("s : (A | B) C ; A:'a'; B:'b'; C:'c';")
        assert names(g, s.first["s"]) == {"A", "B"}


class TestFollow:
    def test_start_rule_gets_eof(self):
        g, s = sets_for("s : A ; A:'a';")
        assert EOF in s.follow["s"]

    def test_simple_follow(self):
        g, s = sets_for("s : x B ; x : A ; A:'a'; B:'b';")
        assert names(g, s.follow["x"]) == {"B"}

    def test_nullable_tail_propagates(self):
        g, s = sets_for("s : x y C ; x : A ; y : B | ; A:'a'; B:'b'; C:'c';")
        assert names(g, s.follow["x"]) == {"B", "C"}

    def test_loop_feeds_own_first(self):
        g, s = sets_for("s : x* C ; x : A ; A:'a'; C:'c';")
        # after one x, another x may start, or the loop exits to C
        assert names(g, s.follow["x"]) == {"A", "C"}

    def test_tail_position_inherits_rule_follow(self):
        g, s = sets_for("s : x C ; x : A y ; y : B ; A:'a'; B:'b'; C:'c';")
        assert names(g, s.follow["y"]) == {"C"}

    def test_describe_smoke(self):
        g, s = sets_for("s : A ; A:'a';")
        text = s.describe("s")
        assert "FIRST(s)" in text and "FOLLOW(s)" in text


STMT_GRAMMAR = r"""
grammar Stmts;
prog : stmt+ ;
stmt : ID '=' expr ';'
     | 'print' expr ';'
     | 'if' expr 'then' stmt
     ;
expr : term (('+' | '*') term)* ;
term : ID | INT ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""


class TestPanicModeRecovery:
    @pytest.fixture(scope="class")
    def host(self):
        return repro.compile_grammar(STMT_GRAMMAR)

    def test_single_error_resyncs_and_continues(self, host):
        parser = host.parser("x = 1 ; y = = 2 ; print x ;",
                             options=ParserOptions(recover=True))
        tree = parser.parse()
        assert len(parser.errors) == 1
        # statements before and after the bad one parsed
        stmts = tree.child_rules("stmt")
        assert len(stmts) >= 2

    def test_multiple_errors_all_reported(self, host):
        parser = host.parser("x = ; y = 2 ; print + ; z = 3 ;",
                             options=ParserOptions(recover=True))
        parser.parse()
        # both genuinely bad statements are reported (a bounded cascade
        # from the second is permitted, matching ANTLR's behaviour)
        indexes = [e.index for e in parser.errors]
        assert 2 <= len(parser.errors) <= 3
        assert indexes[0] == 2       # 'x = ;' fails at the semicolon
        assert any(i >= 8 for i in indexes)  # 'print + ;' reported too

    def test_lexer_errors_not_recoverable(self, host):
        from repro.exceptions import LexerError

        with pytest.raises(LexerError):
            # '?' is not even lexable in this grammar: lexer errors fire
            # during tokenisation, before the parser can resync
            host.parser("x = 1 ; ??? ; y = 2 ;",
                        options=ParserOptions(recover=True))

    def test_trailing_junk_reported_not_raised(self, host):
        parser = host.parser("x = 1 ; 42", options=ParserOptions(recover=True))
        parser.parse()
        assert parser.errors  # the '42' tail is reported as an error

    def test_without_recover_first_error_raises(self, host):
        from repro.exceptions import RecognitionError

        with pytest.raises(RecognitionError):
            host.parse("x = ; y = 2 ;")

    def test_recovery_makes_progress_on_error_storm(self, host):
        # A pathological input that errors at every statement must still
        # terminate (the single-token failsafe).
        parser = host.parser("= = = = = =", options=ParserOptions(recover=True))
        parser.parse()
        assert parser.errors

    def test_recovery_never_triggers_during_speculation(self):
        host = repro.compile_grammar(r"""
            grammar R;
            options { backtrack=true; }
            s : x A | x B ;
            x : '(' x ')' | ID ;
            A : '!' ; B : '?' ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """, options=repro.AnalysisOptions(max_recursion_depth=1))
        parser = host.parser("( z ) ?", options=ParserOptions(recover=True))
        tree = parser.parse()
        # the failed speculation of alt 1 must not have been "recovered"
        assert parser.errors == []
        assert tree is not None
