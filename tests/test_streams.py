"""Char and token streams: lookahead, consume, mark/seek laws."""

import pytest
from hypothesis import given, strategies as st

from repro.runtime.char_stream import CharStream
from repro.runtime.token import EOF, Token, DEFAULT_CHANNEL, HIDDEN_CHANNEL
from repro.runtime.token_stream import ListTokenStream


class TestCharStream:
    def test_la_and_consume(self):
        s = CharStream("abc")
        assert s.la(1) == "a"
        assert s.la(2) == "b"
        assert s.consume() == "a"
        assert s.la(1) == "b"

    def test_la_past_eof_is_empty(self):
        s = CharStream("x")
        assert s.la(2) == ""
        s.consume()
        assert s.la(1) == ""
        assert s.at_eof

    def test_consume_at_eof_is_noop(self):
        s = CharStream("")
        assert s.consume() == ""
        assert s.index == 0

    def test_seek_clamps(self):
        s = CharStream("abc")
        s.seek(100)
        assert s.index == 3
        s.seek(-5)
        assert s.index == 0

    def test_line_column(self):
        s = CharStream("ab\ncd\ne")
        assert s.line_column(0) == (1, 0)
        assert s.line_column(1) == (1, 1)
        assert s.line_column(3) == (2, 0)
        assert s.line_column(6) == (3, 0)

    def test_substring(self):
        s = CharStream("hello world")
        assert s.substring(6, 11) == "world"

    @pytest.mark.parametrize("text", [
        "", "\n", "no newline", "\n\n\n", "a\nb", "\nleading", "trailing\n",
        "mixed\r\nwindows\nunix\n", "x" * 500 + "\n" + "y" * 500,
    ])
    def test_nl_offsets_match_reference_scan(self, text):
        # the str.find-based builder must agree with the per-char scan
        s = CharStream(text)
        assert s._nl_offsets == [i for i, ch in enumerate(text) if ch == "\n"]

    @given(st.text(alphabet="ab\n\r", max_size=200), st.integers(0, 200))
    def test_line_column_consistent_with_offsets(self, text, index):
        s = CharStream(text)
        index = min(index, len(text))
        line, col = s.line_column(index)
        assert line == text[:index].count("\n") + 1
        line_start = text.rfind("\n", 0, index) + 1
        assert col == index - line_start


def _toks(*texts, channel=DEFAULT_CHANNEL):
    return [Token(i + 1, t, channel=channel) for i, t in enumerate(texts)]


class TestListTokenStream:
    def test_appends_eof(self):
        s = ListTokenStream(_toks("a", "b"))
        assert s.size == 3
        assert s.get(2).type == EOF

    def test_la_lt(self):
        s = ListTokenStream(_toks("a", "b"))
        assert s.lt(1).text == "a"
        assert s.lt(2).text == "b"
        assert s.la(3) == EOF

    def test_lt_zero_rejected(self):
        s = ListTokenStream(_toks("a"))
        with pytest.raises(ValueError):
            s.lt(0)

    def test_lt_negative_is_previous(self):
        s = ListTokenStream(_toks("a", "b"))
        s.consume()
        assert s.lt(-1).text == "a"

    def test_consume_stops_at_eof(self):
        s = ListTokenStream(_toks("a"))
        s.consume()
        i = s.index
        s.consume()
        assert s.index == i  # EOF is sticky

    def test_mark_seek_roundtrip(self):
        s = ListTokenStream(_toks("a", "b", "c"))
        m = s.mark()
        s.consume()
        s.consume()
        s.seek(m)
        assert s.lt(1).text == "a"

    def test_hidden_channel_filtered(self):
        tokens = _toks("a") + [Token(9, " ", channel=HIDDEN_CHANNEL)] + _toks("b")
        s = ListTokenStream(tokens)
        assert [t.text for t in s.tokens() if t.type != EOF] == ["a", "b"]
        assert [t.text for t in s.hidden_tokens()] == [" "]

    def test_indexes_assigned(self):
        s = ListTokenStream(_toks("a", "b"))
        assert [t.index for t in s.tokens()] == [0, 1, 2]

    def test_eof_lookahead_sticky(self):
        s = ListTokenStream(_toks("a"))
        assert s.la(50) == EOF

    def test_empty_input_has_eof(self):
        s = ListTokenStream([])
        assert s.la(1) == EOF

    @given(st.lists(st.integers(1, 5), min_size=0, max_size=20),
           st.lists(st.integers(0, 30), max_size=10))
    def test_seek_consume_never_escapes_bounds(self, types, seeks):
        s = ListTokenStream([Token(t, str(t)) for t in types])
        for pos in seeks:
            s.seek(pos)
            assert 0 <= s.index < s.size
            s.consume()
            assert 0 <= s.index < s.size

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=20))
    def test_la_is_pure(self, types):
        s = ListTokenStream([Token(t, str(t)) for t in types])
        before = s.index
        for k in range(1, len(types) + 2):
            s.la(k)
        assert s.index == before
