"""Baselines: packrat/PEG semantics, Earley oracle, fixed-k lookahead."""

import pytest

import repro
from repro.baselines.earley import EarleyParser, desugar_to_cfg
from repro.baselines.llk import FixedKAnalyzer
from repro.baselines.packrat import PackratParser
from repro.grammar.meta_parser import parse_grammar


@pytest.fixture(scope="module")
def hazard():
    # The paper's opening example: PEG rule A -> a | a b never uses alt 2.
    return repro.compile_grammar("grammar H; s : A | A B ; A : 'a' ; B : 'b' ;")


class TestPackrat:
    def test_ordered_choice_loses_longer_alternative(self, hazard):
        p = PackratParser(hazard.grammar)
        assert p.recognize(hazard.tokenize("a"))
        # PEG commits to alt 1 on 'a', then EOF check fails on 'ab'.
        assert not p.recognize(hazard.tokenize("ab"))

    def test_llstar_handles_both(self, hazard):
        assert hazard.recognize("a")
        assert hazard.recognize("ab")

    def test_star_is_greedy_and_non_backtracking(self):
        host = repro.compile_grammar("grammar G; s : A* A ; A : 'a' ;")
        p = PackratParser(host.grammar)
        # PEG a* consumes every 'a'; the trailing A can never match.
        assert not p.recognize(host.tokenize("aaa"))

    def test_syntactic_predicate_is_and_predicate(self):
        host = repro.compile_grammar(
            "grammar G; s : (A B)=> A rest | A C ; rest : B ; A:'a'; B:'b'; C:'c';",
            rewrite_left_recursion=False)
        p = PackratParser(host.grammar)
        assert p.recognize(host.tokenize("ab"))
        assert p.recognize(host.tokenize("ac"))

    def test_memoization_counts(self):
        host = repro.compile_grammar(r"""
            grammar M;
            s : x x A | x x B ;
            x : '(' x ')' | ID ;
            A : '!' ; B : '?' ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """)
        stream = host.tokenize("((a)) ((b)) ?")
        memo = PackratParser(host.grammar, memoize=True)
        memo.recognize(stream)
        bare = PackratParser(host.grammar, memoize=False)
        bare.recognize(host.tokenize("((a)) ((b)) ?"))
        assert memo.stats.memo_hits > 0
        assert bare.stats.rule_invocations > memo.stats.rule_invocations

    def test_epsilon_rule(self):
        host = repro.compile_grammar("grammar E; s : a A ; a : ; A : 'x' ;")
        assert PackratParser(host.grammar).recognize(host.tokenize("x"))


class TestEarley:
    def check(self, grammar_text, accepted, rejected):
        host = repro.compile_grammar(grammar_text, rewrite_left_recursion=False)
        e = EarleyParser(host.grammar)
        for s in accepted:
            assert e.recognize(host.tokenize(s)), "should accept %r" % s
        for s in rejected:
            assert not e.recognize(host.tokenize(s)), "should reject %r" % s

    def test_balanced_brackets(self):
        self.check("grammar B; s : '[' s ']' | X ; X : 'x' ;",
                   ["x", "[x]", "[[[x]]]"],
                   ["[x", "x]", "[]", ""])

    def test_ambiguous_grammar_accepted(self):
        # Earley accepts ambiguous (even left-recursive) CFGs outright —
        # bypass the LL(*) pipeline, which rightly rejects s : s s | X.
        from repro.lexgen.builder import build_lexer
        from repro.runtime.token_stream import ListTokenStream

        g = parse_grammar("grammar A; s : s s | X ; X : 'x' ;")
        spec = build_lexer(g)
        e = EarleyParser(g)
        for s in ("x", "xx", "xxxx"):
            assert e.recognize(ListTokenStream(spec.tokenizer(s)))
        assert not e.recognize(ListTokenStream(spec.tokenizer("")))

    def test_epsilon_heavy_grammar(self):
        self.check("grammar E; s : a b X ; a : A | ; b : B | ; A:'a'; B:'b'; X:'x';",
                   ["x", "ax", "bx", "abx"],
                   ["ba", "xa"])

    def test_ebnf_desugaring(self):
        self.check("grammar D; s : A* (B | C)+ D? ; A:'a'; B:'b'; C:'c'; D:'d';",
                   ["b", "aabc", "bcd", "aaacb"],
                   ["", "a", "ad"])

    def test_desugar_produces_plain_productions(self):
        g = parse_grammar("s : A* ; A : 'a' ;")
        prods = desugar_to_cfg(g)
        names = {lhs for lhs, _ in prods}
        assert "s" in names
        assert any(n.startswith("%star") for n in names)

    def test_agrees_with_llstar_on_deterministic_grammar(self):
        host = repro.compile_grammar(SIMPLE_LANG)
        e = EarleyParser(host.grammar)
        for text in ["x = 1 ;", "print y ;", "x = 2 ; print x ;"]:
            assert e.recognize(host.tokenize(text)) == host.recognize(text)
        for text in ["x = ;", "print ;", "= 1 ;"]:
            assert e.recognize(host.tokenize(text)) == host.recognize(text)


SIMPLE_LANG = r"""
grammar L;
prog : stmt+ ;
stmt : ID '=' INT ';' | 'print' ID ';' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""


class TestFixedK:
    def test_ll1_decision_found_at_k1(self):
        host = repro.compile_grammar("grammar G; s : A X | B Y ; A:'a';B:'b';X:'x';Y:'y';")
        fk = FixedKAnalyzer(host.analysis.atn, start_rule="s")
        assert fk.ll_k_for(0) == 1

    def test_ll2_decision(self):
        host = repro.compile_grammar("grammar G; s : A X | A Y ; A:'a';X:'x';Y:'y';")
        fk = FixedKAnalyzer(host.analysis.atn, start_rule="s")
        assert fk.ll_k_for(0) == 2

    def test_non_llk_never_deterministic(self):
        # Section 2: a : b A+ X | c A+ Y is LL(*) but not LL(k) for any k.
        host = repro.compile_grammar(
            "grammar G; a : b A X2 | c A Y2 ; b : ; c : ; "
            "A : 'a'+ ; X2 : 'x' ; Y2 : 'y' ;")
        # plus-loop variant
        host2 = repro.compile_grammar(
            "grammar G2; a : b AT+ X | c AT+ Y ; b : ; c : ; "
            "AT : 'a' ; X : 'x' ; Y : 'y' ;")
        fk = FixedKAnalyzer(host2.analysis.atn, start_rule="a")
        assert fk.ll_k_for(0, max_k=7) is None
        # ...while the LL(*) DFA is tiny and cyclic
        assert host2.analysis.records[0].category == "cyclic"
        assert host2.analysis.records[0].table.n_states <= 5

    def test_exact_tuple_cost_grows_with_k(self):
        host = repro.compile_grammar(
            "grammar G; s : (A|B) (A|B) (A|B) X | (A|B) (A|B) (A|B) Y ; "
            "A:'a'; B:'b'; X:'x'; Y:'y';")
        fk = FixedKAnalyzer(host.analysis.atn, start_rule="s")
        costs = [fk.lookahead(0, k).storage_cost() for k in (1, 2, 3)]
        assert costs[0] < costs[1] < costs[2]
        # exponential flavour: 2^k tuples per alternative
        assert fk.lookahead(0, 3).total_tuples() >= 2 * 2 ** 3

    def test_approximate_smaller_than_exact(self):
        host = repro.compile_grammar(
            "grammar G; s : (A|B) (A|B) (A|B) X | (A|B) (A|B) (A|B) Y ; "
            "A:'a'; B:'b'; X:'x'; Y:'y';")
        fk = FixedKAnalyzer(host.analysis.atn, start_rule="s")
        exact = fk.lookahead(0, 4, exact=True)
        approx = fk.lookahead(0, 4, exact=False)
        assert approx.storage_cost() < exact.storage_cost()

    def test_approximate_is_lossy(self):
        # Exactly LL(2): alt1 = {ax, by}, alt2 = {ay, bx}; the per-depth
        # sets are identical ({a,b}, {x,y}) so linear approximation fails.
        host = repro.compile_grammar(
            "grammar G; s : p | q ; "
            "p : A X | B Y ; q : A Y | B X ; "
            "A:'a'; B:'b'; X:'x'; Y:'y';")
        fk = FixedKAnalyzer(host.analysis.atn, start_rule="s")
        assert fk.lookahead(0, 2, exact=True).is_deterministic()
        assert not fk.lookahead(0, 2, exact=False).is_deterministic()

    def test_eof_padding(self):
        host = repro.compile_grammar("grammar G; s : A | A B ; A:'a'; B:'b';")
        fk = FixedKAnalyzer(host.analysis.atn, start_rule="s")
        assert fk.ll_k_for(0) == 2  # EOF vs 'b' at depth 2


# -- boundary inputs across every baseline ---------------------------------------------


NULLABLE = "grammar N; s : A* ; A : 'a' ;"
NESTED = r"""
    grammar D;
    s : e ;
    e : '(' e ')' | A ;
    A : 'a' ;
"""


@pytest.fixture(scope="module")
def nullable():
    return repro.compile_grammar(NULLABLE)


@pytest.fixture(scope="module")
def nested():
    return repro.compile_grammar(NESTED)


class TestBaselineBoundaryInputs:
    """Empty streams, single tokens, and max-depth nesting for every
    baseline recognizer (GLR, Earley, packrat, LL(k)) — the boundary
    shapes the happy-path tests above never touch."""

    DEPTH = 100

    def _recognizers(self, host, llk_ok=True):
        from repro.baselines.glr import GLRParser
        from repro.baselines.llk import LLkParser

        parsers = [GLRParser(host.grammar), EarleyParser(host.grammar),
                   PackratParser(host.grammar)]
        if llk_ok:
            parsers.append(LLkParser(host.analysis))
        return parsers

    def test_empty_stream_accepted_when_nullable(self, nullable):
        for p in self._recognizers(nullable):
            assert p.recognize(nullable.tokenize("")), type(p).__name__

    def test_empty_stream_rejected_when_not_nullable(self, nested):
        for p in self._recognizers(nested):
            assert not p.recognize(nested.tokenize("")), type(p).__name__

    def test_single_token_input(self, nullable, nested):
        for p in self._recognizers(nullable):
            assert p.recognize(nullable.tokenize("a")), type(p).__name__
        for p in self._recognizers(nested):
            assert p.recognize(nested.tokenize("a")), type(p).__name__

    def test_max_depth_nesting(self, nested):
        text = "(" * self.DEPTH + "a" + ")" * self.DEPTH
        for p in self._recognizers(nested):
            assert p.recognize(nested.tokenize(text)), type(p).__name__

    def test_unbalanced_nesting_rejected(self, nested):
        text = "(" * self.DEPTH + "a" + ")" * (self.DEPTH - 1)
        for p in self._recognizers(nested):
            assert not p.recognize(nested.tokenize(text)), type(p).__name__


class TestLLkParser:
    """The strict LL(k) parser: tree parity with the interpreter, typed
    rejection of non-LL(k) grammars, k > 1 dispatch."""

    def test_tree_matches_interpreter(self, nested):
        from repro.baselines.llk import LLkParser

        text = "((a))"
        expected = nested.parse(text)
        actual = LLkParser(nested.analysis).parse(nested.tokenize(text))
        assert actual.to_sexpr() == expected.to_sexpr()

    def test_k2_dispatch(self):
        from repro.baselines.llk import LLkParser

        host = repro.compile_grammar(
            "grammar K2; s : A B | A C ; A:'a'; B:'b'; C:'c';")
        p = LLkParser(host.analysis)
        assert p.parse(host.tokenize("ab")).to_sexpr() == \
            host.parse("ab").to_sexpr()
        assert p.recognize(host.tokenize("ac"))
        assert not p.recognize(host.tokenize("aa"))

    def test_non_llk_grammar_raises_typed_error(self):
        from repro.baselines.llk import LLkParser, llk_viability
        from repro.exceptions import GrammarError

        # A+ X | A+ Y needs unbounded lookahead (the paper's Section 2).
        host = repro.compile_grammar(
            "grammar NK; s : A+ X | A+ Y ; A:'a'; X:'x'; Y:'y';")
        assert llk_viability(host.analysis) is not None
        with pytest.raises(GrammarError):
            LLkParser(host.analysis)

    def test_mismatch_is_typed_recognition_error(self, nested):
        from repro.baselines.llk import LLkParser
        from repro.exceptions import RecognitionError

        p = LLkParser(nested.analysis)
        with pytest.raises(RecognitionError):
            p.parse(nested.tokenize("(a"))


EBNF_RICH = r"""
grammar E;
program : stmt+ ;
stmt : ID '=' expr ';' ;
expr : term (('+' | '-') term)* ;
term : ID | INT | '(' expr ')' ;
ID  : [a-z]+ ;
INT : [0-9]+ ;
WS  : [ \t\r\n]+ -> skip ;
"""


@pytest.fixture(scope="module")
def ebnf_rich():
    return repro.compile_grammar(EBNF_RICH)


class TestTreeParity:
    """Every baseline's ``parse()`` builds through the unified
    TreeBuilder, so all producers must emit the *identical spanned*
    s-expression — same shape, same token-index provenance — as the
    interpreter.  This is the contract the differential harness digests
    and the rewriter's node-level edits depend on."""

    TEXTS = ["a = b;", "a = b + c - (d + 1);", "x = 1; y = (x + 2);"]

    def _producers(self, host):
        from repro.baselines.glr import GLRParser
        from repro.baselines.llk import LLkParser

        return {
            "llk": LLkParser(host.analysis),
            "packrat": PackratParser(host.grammar),
            "glr": GLRParser(host.grammar),
            "earley": EarleyParser(host.grammar),
        }

    def test_spanned_sexpr_parity(self, ebnf_rich):
        for text in self.TEXTS:
            expected = ebnf_rich.parse(text).to_spanned_sexpr()
            for name, p in self._producers(ebnf_rich).items():
                actual = p.parse(ebnf_rich.tokenize(text)).to_spanned_sexpr()
                assert actual == expected, (name, text)

    def test_source_text_exact_for_all_producers(self, ebnf_rich):
        text = "a =  b +\tc ;"
        for name, p in self._producers(ebnf_rich).items():
            tree = p.parse(ebnf_rich.tokenize(text))
            expr = tree.first_rule("stmt").first_rule("expr")
            assert expr.source_text == "b +\tc", name

    def test_parent_pointers_consistent(self, ebnf_rich):
        # bottom-up producers (GLR/Earley) share labels across losing
        # derivations; finish_root must leave parents pointing inward
        for name, p in self._producers(ebnf_rich).items():
            tree = p.parse(ebnf_rich.tokenize("a = (b + c);"))
            stack = [tree]
            while stack:
                node = stack.pop()
                for child in getattr(node, "children", ()):
                    assert child.parent is node, name
                    stack.append(child)
            for leaf in tree.token_nodes():
                assert leaf.root is tree, name

    def test_reject_raises_recognition_error(self, ebnf_rich):
        from repro.exceptions import RecognitionError

        for name, p in self._producers(ebnf_rich).items():
            with pytest.raises(RecognitionError):
                p.parse(ebnf_rich.tokenize("a = ;"))
