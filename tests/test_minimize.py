"""Lexer DFA minimization: equivalence and shrinkage."""

import random

from hypothesis import given, settings, strategies as st

from repro.grammar.meta_parser import parse_grammar
from repro.lexgen.builder import _LexerBuilder, build_lexer
from repro.lexgen.minimize import minimize_lexer_dfa
from repro.runtime.token import EOF

KEYWORDY = r"""
s : ID ;
IF : 'if' ;
INT : 'int' ;
INTO : 'into' ;
IMPORT : 'import' ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
"""


def specs_for(grammar_text):
    g = parse_grammar(grammar_text)
    raw = build_lexer(g, minimize=False)
    minimized = build_lexer(g, minimize=True)
    return raw, minimized


def tokens_of(spec, text):
    return [(t.text, t.type) for t in spec.tokenize(text) if t.type != EOF]


class TestMinimization:
    def test_shrinks_mergeable_branches(self):
        # After 'a' and after 'c' the futures are identical ('bd'), but
        # subset construction keeps distinct states; minimization merges.
        raw, minimized = specs_for("s : X ; X : ('ab' | 'cb') 'd' ;")
        assert minimized.table.n_states < raw.table.n_states
        for text in ("abd", "cbd"):
            assert tokens_of(raw, text) == tokens_of(minimized, text)

    def test_keyword_dfa_not_grown(self):
        raw, minimized = specs_for(KEYWORDY)
        assert minimized.table.n_states <= raw.table.n_states

    def test_tokenization_identical(self):
        raw, minimized = specs_for(KEYWORDY)
        for text in ("if into import intx i iffy int", "abc", "im port"):
            assert tokens_of(raw, text) == tokens_of(minimized, text)

    def test_already_minimal_left_alone(self):
        raw, minimized = specs_for("s : A ; A : 'a' ;")
        assert minimized.table.n_states <= raw.table.n_states
        assert tokens_of(minimized, "aaa") == tokens_of(raw, "aaa")

    def test_accept_labels_preserved(self):
        raw, minimized = specs_for(KEYWORDY)
        # keyword priority must survive: 'int' is INT, not ID
        (text, tt), = tokens_of(minimized, "int")
        assert text == "int"
        g = parse_grammar(KEYWORDY)
        assert minimized.vocabulary.name_of(tt) == "INT"

    def test_idempotent(self):
        once = minimize_lexer_dfa(_LexerBuilder(parse_grammar(KEYWORDY)).build())
        twice = minimize_lexer_dfa(once)
        assert len(once.states) == len(twice.states)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_random_inputs_agree(self, seed):
        rng = random.Random(seed)
        raw, minimized = specs_for(KEYWORDY)
        words = ["if", "int", "into", "import", "i", "zz", "intother", "impo"]
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 15)))
        assert tokens_of(raw, text) == tokens_of(minimized, text)
