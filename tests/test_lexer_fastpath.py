"""Parity of the alphabet-compressed lexer fast path with the interval
bisect walk: token-for-token identity on every suite grammar, boundary
codepoints at the ASCII limit, and the full Unicode range."""

import pytest

from repro.exceptions import LexerError
from repro.grammars import PAPER_ORDER, load
from repro.lexgen.dfa import LexerDFA, LexerDFAState
from repro.lexgen.lexer import LexerSpec
from repro.runtime.token import Vocabulary
from repro.tables.lexer import ASCII_LIMIT, compile_lexer_table


def token_tuples(spec, text, use_char_classes):
    """Exhaustive observable identity of one tokenize, errors included."""
    out = []
    tokenizer = spec.tokenizer(text, use_char_classes=use_char_classes)
    try:
        for t in tokenizer:
            out.append((t.type, t.text, t.line, t.column, t.channel,
                        t.start, t.stop))
    except LexerError as e:
        out.append(("LexerError", str(e), e.line, e.column))
    return out


def assert_parity(spec, text):
    fast = token_tuples(spec, text, use_char_classes=True)
    slow = token_tuples(spec, text, use_char_classes=False)
    assert fast == slow


@pytest.mark.parametrize("name", PAPER_ORDER)
class TestSuiteGrammarParity:
    def test_sample_and_generated_program(self, name):
        bench = load(name)
        spec = bench.compile().lexer_spec
        assert_parity(spec, bench.sample)
        assert_parity(spec, bench.generate_program(12, seed=3))

    def test_mixed_ascii_non_ascii_input(self, name):
        bench = load(name)
        spec = bench.compile().lexer_spec
        program = bench.generate_program(4, seed=9)
        # Splice non-ASCII and boundary codepoints into otherwise valid
        # source; both walks must agree token for token, and on the
        # position of the LexerError when a grammar rejects a char.
        for splice in ("é", "Δvar", chr(ASCII_LIMIT - 1),
                       chr(ASCII_LIMIT), chr(0x10FFFF),
                       "café " + chr(0x1F600)):
            assert_parity(spec, splice)
            assert_parity(spec, program[: len(program) // 2] + splice
                          + program[len(program) // 2:])

    def test_class_index_matches_interval_walk_exhaustively(self, name):
        table = load(name).compile().lexer_spec.table
        class_of, rows = table.ascii_index()
        assert len(class_of) == ASCII_LIMIT
        for state in range(table.n_states):
            for cp in range(ASCII_LIMIT):
                assert rows[state][class_of[cp]] == table.next_state(state, cp)


def wide_range_dfa():
    """A hand-built lexer DFA whose ranges straddle the ASCII limit:
    ASCII letters, a block crossing 127/128, and a tail running to
    0x10FFFF."""
    dfa = LexerDFA()
    start, word, edge, high = (LexerDFAState(i) for i in range(4))
    start.los = [97, 120, ASCII_LIMIT + 10]
    start.his = [107, ASCII_LIMIT + 2, 0x10FFFF]
    start.targets = [1, 2, 3]
    word.los, word.his, word.targets = [97], [107], [1]
    word.accept = (0, "WORD", ())
    edge.accept = (1, "EDGE", ())
    high.los, high.his, high.targets = [ASCII_LIMIT + 10], [0x10FFFF], [3]
    high.accept = (2, "HIGH", ())
    dfa.states = [start, word, edge, high]
    dfa.start_id = 0
    return dfa


def wide_range_spec():
    vocab = Vocabulary()
    for rule in ("WORD", "EDGE", "HIGH"):
        vocab.define(rule)
    return LexerSpec(compile_lexer_table(wide_range_dfa()), vocab)


class TestBoundaryCodepoints:
    def test_parity_across_the_ascii_limit(self):
        spec = wide_range_spec()
        texts = ["abc", chr(ASCII_LIMIT - 1), chr(ASCII_LIMIT),
                 chr(ASCII_LIMIT + 2), "x", "ab" + chr(ASCII_LIMIT),
                 chr(0x10FFFF), chr(ASCII_LIMIT + 10) + chr(0x10FFFF),
                 "kk" + chr(ASCII_LIMIT - 1) + "a",
                 "z"]  # z = 122: inside [120, 129], an edge-straddling range
        for text in texts:
            assert_parity(spec, text)

    def test_straddling_range_splits_correctly(self):
        spec = wide_range_spec()
        # 120..127 of the straddling range goes through the class rows,
        # 128..130 through the bisect fallback; same accept either side.
        low = spec.tokenize(chr(ASCII_LIMIT - 1))
        high = spec.tokenize(chr(ASCII_LIMIT + 2))
        assert low[0].type == high[0].type == spec.vocabulary.type_of("EDGE")

    def test_class_rows_match_next_state(self):
        table = wide_range_spec().table
        class_of, rows = table.ascii_index()
        for state in range(table.n_states):
            for cp in range(ASCII_LIMIT):
                assert rows[state][class_of[cp]] == table.next_state(state, cp)

    def test_max_codepoint_accepts(self):
        spec = wide_range_spec()
        tokens = spec.tokenize(chr(0x10FFFF))
        assert tokens[0].type == spec.vocabulary.type_of("HIGH")
        assert tokens[0].text == chr(0x10FFFF)


class TestAcceptDispatch:
    def test_dispatch_alignment(self):
        spec = load("sql").compile().lexer_spec
        dispatch = spec.accept_dispatch
        assert len(dispatch) == len(spec.table.accepts)
        for (token_type, channel), (_, name, commands) in zip(
                dispatch, spec.table.accepts):
            if "skip" in commands:
                assert channel == -1
            else:
                assert channel >= 0
                assert token_type == spec.token_type_for(name)

    def test_ascii_index_is_lazy_and_cached(self):
        spec = wide_range_spec()
        table = spec.table
        assert table._ascii is None
        first = table.ascii_index()
        assert table.ascii_index() is first

    def test_table_roundtrip_preserves_fast_path(self):
        table = wide_range_spec().table
        clone = type(table).from_dict(table.to_dict())
        assert clone.ascii_index() == table.ascii_index()


class TestCompileLexerTableStillExact:
    def test_recompiled_table_equals_stored(self):
        """Compilation is exact: each state's row is the construction
        state's intervals, targets and accept label, in order."""
        dfa = wide_range_dfa()
        table = wide_range_spec().table
        assert table.start == dfa.start_id
        assert table.n_states == len(dfa.states)
        for state in dfa.states:
            row = slice(table.edge_index[state.id],
                        table.edge_index[state.id + 1])
            assert list(table.edge_lo[row]) == state.los
            assert list(table.edge_hi[row]) == state.his
            assert list(table.edge_targets[row]) == state.targets
            idx = table.accept_idx[state.id]
            assert (table.accepts[idx] if idx >= 0 else None) == state.accept
