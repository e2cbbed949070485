"""High-level API: compile_grammar, ParserHost, vocabulary plumbing."""

import pytest

import repro
from repro.exceptions import GrammarError
from repro.grammar.model import GrammarBuilder


class TestCompileGrammar:
    def test_from_text(self):
        host = repro.compile_grammar("grammar G; s : A ; A : 'a' ;")
        assert host.grammar.name == "G"
        assert host.recognize("a")

    def test_from_grammar_object(self):
        g = (GrammarBuilder("B")
             .rule("s", [["A"], ["B"]])
             .build())
        host = repro.compile_grammar(g)
        assert host.analysis.num_decisions == 1

    def test_strict_rejects_left_recursion_when_rewrite_disabled(self):
        with pytest.raises(GrammarError):
            repro.compile_grammar("e : e A | A ; A : 'a' ;",
                                  rewrite_left_recursion=False)

    def test_rewrite_handles_immediate_left_recursion(self):
        host = repro.compile_grammar("e : e A | A ; A : 'a' ;")
        assert host.recognize(host.token_stream_from_types(["A", "A", "A"]))

    def test_strict_rejects_undefined_rule(self):
        with pytest.raises(GrammarError):
            repro.compile_grammar("s : missing ; A : 'a' ;")

    def test_non_strict_keeps_issues(self):
        host = repro.compile_grammar("s : A ; orphan : A ; A : 'a' ;")
        assert any(i.code == "unreachable-rule" for i in host.validation_issues)

    def test_indirect_left_recursion_always_rejected(self):
        with pytest.raises(GrammarError):
            repro.compile_grammar(
                "a : b X | X ; b : a Y | Y ; X : 'x' ; Y : 'y' ;")


class TestParserHost:
    @pytest.fixture(scope="class")
    def host(self):
        return repro.compile_grammar(
            "grammar H; s : 'go' ID ; ID : [a-z]+ ; WS : ' ' -> skip ;")

    def test_tokenize(self, host):
        stream = host.tokenize("go abc")
        assert stream.size == 3  # 'go', ID, EOF

    def test_parse_string(self, host):
        assert host.parse("go abc") is not None

    def test_parse_token_list(self, host):
        stream = host.token_stream_from_types(["'go'", "ID"])
        assert host.parse(stream) is not None

    def test_token_stream_from_types_unknown(self, host):
        with pytest.raises(GrammarError):
            host.token_stream_from_types(["NOPE"])

    def test_unknown_token_error_names_the_token(self, host):
        """Regression: the error must be a GrammarError that names the
        unknown token (and the grammar), not a bare/None-typed failure."""
        with pytest.raises(GrammarError, match=r"NOPE.*H"):
            host.token_stream_from_types(["NOPE"])
        with pytest.raises(GrammarError, match=r"'zzz'"):
            host.token_stream_from_types(["'zzz'"])

    def test_malformed_literal_name_raises_grammar_error(self, host):
        # "'go" (unterminated quote) must not silently resolve to a
        # mangled literal lookup; it is reported as unknown by name.
        with pytest.raises(GrammarError, match=r"'go"):
            host.token_stream_from_types(["'go"])
        with pytest.raises(GrammarError, match=r"unknown token '"):
            host.token_stream_from_types(["'"])

    def test_non_string_token_name_raises_grammar_error(self, host):
        with pytest.raises(GrammarError, match=r"must be strings"):
            host.token_stream_from_types([None])
        with pytest.raises(GrammarError, match=r"must be strings"):
            host.token_stream_from_types([3])

    def test_tokenless_grammar_needs_tokens(self):
        host = repro.compile_grammar("s : A B ;")
        assert host.lexer_spec is None
        with pytest.raises(GrammarError):
            host.tokenize("ab")
        assert host.recognize(host.token_stream_from_types(["A", "B"]))

    def test_lexer_rule_as_start_rule_is_a_grammar_error(self, host):
        """Regression: a lexer-rule name as the start rule escaped as a
        bare KeyError; it must be as typed as an unknown rule name."""
        with pytest.raises(GrammarError, match=r"ID is a lexer rule, not a parser rule"):
            host.parse("go abc", rule_name="ID")
        with pytest.raises(GrammarError, match=r"no rule named nope"):
            host.parse("go abc", rule_name="nope")

    def test_each_parse_is_independent(self, host):
        p1 = host.parser("go abc")
        p2 = host.parser("go xyz")
        t1 = p1.parse()
        t2 = p2.parse()
        assert t1.text != t2.text


class TestDocExample:
    def test_module_docstring_example(self):
        host = repro.compile_grammar(r'''
            grammar Demo;
            s : ID | ID '=' INT ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ \t\r\n]+ -> skip ;
        ''')
        tree = host.parse("x = 42")
        assert tree.to_sexpr() == "(s x = 42)"
