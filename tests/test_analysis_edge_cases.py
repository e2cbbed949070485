"""Analysis edge cases beyond the paper's worked examples."""


import repro
from repro.analysis import AnalysisOptions, FIXED, analyze
from repro.grammar.meta_parser import parse_grammar
from repro.runtime.token import EOF
from tests.dfa_oracle import build_dfa


def analyzed(text, **opts):
    return analyze(parse_grammar(text), AnalysisOptions(**opts) if opts else None)


class TestTokenSetDecisions:
    def test_wildcard_vs_specific(self):
        # '.' overlaps every token, but k=2 still separates the
        # alternatives: X picks alt 1, Y picks alt 2 — even after A.
        host = repro.compile_grammar("grammar W; s : A X | . Y ; A:'a'; B:'b'; X:'x'; Y:'y';")
        assert host.parse(host.token_stream_from_types(["A", "X"])).alt == 1
        assert host.parse(host.token_stream_from_types(["B", "Y"])).alt == 2
        assert host.parse(host.token_stream_from_types(["A", "Y"])).alt == 2
        assert not host.recognize(host.token_stream_from_types(["B", "X"]))

    def test_not_token_decision(self):
        host = repro.compile_grammar("grammar N; s : ~A | A ; A:'a'; B:'b'; C:'c';")
        assert host.parse(host.token_stream_from_types(["B"])).alt == 1
        assert host.parse(host.token_stream_from_types(["A"])).alt == 2

    def test_eof_distinguishes_alternatives(self):
        result = analyzed("s : A | A B ; A:'a'; B:'b';")
        d0 = build_dfa(result, 0).start
        d1 = next(iter(d0.edges.values()))
        assert EOF in d1.edges
        assert d1.edges[EOF].predicted_alt == 1


class TestEpsilonAlternatives:
    def test_epsilon_alt_predicted_on_follow(self):
        host = repro.compile_grammar("grammar E; s : x B ; x : A | ; A:'a'; B:'b';")
        assert host.parse(host.token_stream_from_types(["A", "B"])) is not None
        assert host.parse(host.token_stream_from_types(["B"])) is not None

    def test_two_epsilon_paths_ambiguous(self):
        result = analyzed("s : x y A ; x : B | ; y : B | ; A:'a'; B:'b';")
        # B could be x's or y's: genuinely ambiguous, resolved to x
        host = repro.compile_grammar(
            "grammar A2; s : x y A ; x : B | ; y : B | ; A:'a'; B:'b';")
        tree = host.parse(host.token_stream_from_types(["B", "A"]))
        x = tree.first_rule("x")
        assert x is not None and len(x.children) == 1  # B went to x


class TestNestedStructures:
    def test_multiple_decisions_in_one_rule(self):
        result = analyzed("s : (A | B) (C | D) (A | C) ; A:'a'; B:'b'; C:'c'; D:'d';")
        assert result.num_decisions == 3
        assert all(r.category == FIXED and r.fixed_k == 1 for r in result.records)

    def test_optional_inside_star(self):
        host = repro.compile_grammar("grammar O; s : (A B?)* C ; A:'a'; B:'b'; C:'c';")
        for seq in (["C"], ["A", "C"], ["A", "B", "A", "C"]):
            assert host.recognize(host.token_stream_from_types(seq)), seq

    def test_star_of_block_with_overlap(self):
        # loop body FIRST overlaps FOLLOW: needs k=2 or conflict handling
        host = repro.compile_grammar("grammar L; s : (A B)* A ; A:'a'; B:'b';")
        for seq in (["A"], ["A", "B", "A"], ["A", "B", "A", "B", "A"]):
            assert host.recognize(host.token_stream_from_types(seq)), seq
        assert not host.recognize(host.token_stream_from_types(["A", "B"]))

    def test_deeply_nested_blocks(self):
        host = repro.compile_grammar(
            "grammar D; s : ((((A | B) | C) | D) | E)+ ; "
            "A:'a'; B:'b'; C:'c'; D:'d'; E:'e';")
        assert host.recognize(host.token_stream_from_types(["A", "E", "C"]))


class TestPredicateEdgeCases:
    def test_sempred_on_all_alternatives(self):
        host = repro.compile_grammar(
            "grammar P; s : {state==1}? A | {state==2}? A | A ; A:'a';")
        from repro.runtime.parser import ParserOptions

        assert host.parse(host.token_stream_from_types(["A"]),
                          options=ParserOptions(user_state=2)).alt == 2
        assert host.parse(host.token_stream_from_types(["A"]),
                          options=ParserOptions(user_state=9)).alt == 3

    def test_pred_decision_still_fixed_category(self):
        result = analyzed("s : {p}? A | {q}? A ; A:'a';")
        assert result.records[0].category == FIXED

    def test_synpred_in_optional(self):
        # the C# generics pattern: ((type_args)=> type_args)?
        host = repro.compile_grammar(r"""
            grammar G;
            s : ID (( '<' args '>' )=> '<' args '>')? rest ;
            args : ID (',' ID)* ;
            rest : ('<' | '!') ID ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """)
        t1 = host.parse("f < a , b > ! x")
        assert t1.first_rule("args") is not None
        t2 = host.parse("f < x")  # '<' is rest's comparison, not generics
        assert t2.first_rule("args") is None

    def test_backtrack_mode_plus_explicit_synpred(self):
        host = repro.compile_grammar(r"""
            grammar M;
            options { backtrack=true; }
            s : (A A A)=> A+ X | A+ Y ;
            A : 'a' ; X : 'x' ; Y : 'y' ;
            WS : [ ]+ -> skip ;
        """)
        assert host.recognize("a a a a x")
        assert host.recognize("a y")


class TestStressAndStability:
    def test_many_alternatives(self):
        alts = " | ".join("T%d" % i for i in range(30))
        rules = " ".join("T%d : '%s%d' ;" % (i, "t", i) for i in range(30))
        host = repro.compile_grammar("grammar Big; s : %s ; %s" % (alts, rules))
        assert host.analysis.records[0].fixed_k == 1
        assert host.parse(host.token_stream_from_types(["T17"])).alt == 18

    def test_analysis_deterministic_across_runs(self):
        text = ("grammar R; s : A B | A C | (D | E)* F ; "
                "A:'a'; B:'b'; C:'c'; D:'d'; E:'e'; F:'f';")
        r1 = analyzed(text)
        r2 = analyzed(text)
        for rec1, rec2 in zip(r1.records, r2.records):
            assert rec1.category == rec2.category
            assert rec1.fixed_k == rec2.fixed_k
            assert rec1.table.to_dict() == rec2.table.to_dict()

    def test_long_chain_of_rules(self):
        chain = " ".join("r%d : r%d ;" % (i, i + 1) for i in range(40))
        host = repro.compile_grammar("grammar C; %s r40 : A ; A:'a';" % chain,
                                     strict=False)
        assert host.recognize(host.token_stream_from_types(["A"]),
                              rule_name="r0")
