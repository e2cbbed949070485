"""Streaming one-pass parsing: bounded buffering on unbounded input.

The paper's Section 4 claim: LL(*) is a one-pass left-to-right strategy
that, unlike the earlier two-pass LL-regular parsers, can parse infinite
streams.  We feed the parser from a generator and assert the token
window stays O(lookahead) — not O(input) — on deterministic grammars.
"""

import itertools

import pytest

import repro
from repro.analysis import AnalysisOptions
from repro.runtime.parser import LLStarParser, ParserOptions
from repro.runtime.streaming import StreamingTokenStream
from repro.runtime.token import EOF, Token


def token_source(host, text):
    """A genuinely lazy token iterator (lexes via the host's lexer)."""
    return iter(host.lexer_spec.tokenizer(text))


class TestStreamBasics:
    @pytest.fixture()
    def host(self):
        return repro.compile_grammar(
            "grammar S; s : (A | B)+ ; A : 'a' ; B : 'b' ; WS : ' ' -> skip ;")

    def test_la_lt_consume(self, host):
        s = StreamingTokenStream(token_source(host, "a b a"))
        assert s.lt(1).text == "a"
        assert s.lt(2).text == "b"
        s.consume()
        assert s.lt(1).text == "b"
        assert s.la(3) == EOF

    def test_trim_discards_consumed(self, host):
        s = StreamingTokenStream(token_source(host, "a b a b a b"))
        for _ in range(4):
            s.consume()
        assert s.buffered <= 3

    def test_mark_pins_window(self, host):
        s = StreamingTokenStream(token_source(host, "a b a b a b"))
        m = s.mark()
        for _ in range(4):
            s.consume()
        assert s.buffered >= 4  # everything since the mark retained
        s.seek(m)
        assert s.lt(1).text == "a"
        s.release(m)
        for _ in range(4):  # move past the previously-pinned region
            s.consume()
        assert s.buffered <= 3

    def test_seek_before_window_rejected(self, host):
        s = StreamingTokenStream(token_source(host, "a b a b"))
        s.consume()
        s.consume()
        with pytest.raises(ValueError):
            s.seek(0)

    def test_lt_minus_one_survives_trim(self, host):
        s = StreamingTokenStream(token_source(host, "a b a"))
        s.consume()
        assert s.lt(-1).text == "a"

    def test_sticky_eof(self, host):
        s = StreamingTokenStream(token_source(host, "a"))
        s.consume()
        assert s.la(1) == EOF
        s.consume()
        assert s.la(5) == EOF


class TestEmptyWindowGuard:
    """Regression: a fully-trimmed window used to crash ``lt`` with a
    bare IndexError from ``window[-1]``.  The stream now raises a typed
    :class:`TokenStreamError` naming the index and window start."""

    @pytest.fixture()
    def host(self):
        return repro.compile_grammar(
            "grammar S; s : (A | B)+ ; A : 'a' ; B : 'b' ; WS : ' ' -> skip ;")

    def _exhausted_empty_stream(self, host):
        # Drain a one-token stream past EOF, jump ahead of the buffered
        # region, then release a mark there: _trim computes a keep-floor
        # beyond every buffered token and drops the whole window.
        s = StreamingTokenStream(token_source(host, "a"))
        s.consume()
        assert s.la(1) == EOF  # EOF pulled in; window = [a, EOF]
        s.seek(5)              # beyond the window; only lower bound checked
        m = s.mark()
        s.release(m)
        assert s.buffered == 0
        return s

    def test_lt_on_empty_window_raises_typed_error(self, host):
        s = self._exhausted_empty_stream(host)
        with pytest.raises(repro.TokenStreamError,
                           match="empty token window at index 5"):
            s.lt(1)

    def test_empty_window_error_is_a_value_error(self, host):
        # Callers that guarded the old bare ValueError paths keep working.
        s = self._exhausted_empty_stream(host)
        with pytest.raises(ValueError):
            s.lt(1)
        assert issubclass(repro.TokenStreamError, repro.LLStarError)

    def test_seek_before_window_raises_typed_error(self, host):
        s = StreamingTokenStream(token_source(host, "a b a b"))
        s.consume()
        s.consume()
        with pytest.raises(repro.TokenStreamError):
            s.seek(0)


class TestStreamingParse:
    def test_bounded_window_on_long_ll1_input(self):
        host = repro.compile_grammar(r"""
            grammar Cmds;
            session : command* ;
            command : 'set' ID INT | 'get' ID | 'ping' ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            WS : [ \t\r\n]+ -> skip ;
        """)
        # an arbitrarily long command stream, produced lazily
        n = 3000
        text = " ".join(itertools.islice(
            itertools.cycle(["set alpha 1", "get alpha", "ping"]), n))
        stream = StreamingTokenStream(token_source(host, text))
        parser = LLStarParser(host.analysis, stream,
                              ParserOptions(build_tree=False))
        parser.parse()
        assert stream.size > n  # the input really was long
        assert stream.peak_buffered <= 8  # ...but the window stayed tiny

    def test_window_grows_only_during_speculation(self):
        host = repro.compile_grammar(r"""
            grammar B;
            options { backtrack=true; }
            s : pre* tail ;
            tail : x '!' | x '?' ;
            pre : 'p' ;
            x : '(' x ')' | ID ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """, options=AnalysisOptions(max_recursion_depth=1))
        deep = "p " * 50 + "(" * 30 + "z" + ")" * 30 + " ?"
        stream = StreamingTokenStream(token_source(host, deep))
        parser = LLStarParser(host.analysis, stream,
                              ParserOptions(build_tree=False))
        parser.parse()
        # speculation pinned the nested prefix, so the peak covers it...
        assert stream.peak_buffered >= 30
        # ...but the 50 'p' tokens before the decision were streamed away
        assert stream.peak_buffered < stream.size - 40

    def test_streaming_and_buffered_agree(self):
        host = repro.compile_grammar(r"""
            grammar E;
            e : e '+' e | INT ;
            INT : [0-9]+ ;
            WS : [ ]+ -> skip ;
        """)
        text = "+".join(str(i % 10) for i in range(200))
        buffered_tree = host.parse(text)
        stream = StreamingTokenStream(token_source(host, text))
        streaming_tree = LLStarParser(host.analysis, stream).parse()
        assert streaming_tree.to_sexpr() == buffered_tree.to_sexpr()

    def test_socket_style_generator_source(self):
        """Token objects can come from anywhere — e.g. a protocol frame
        decoder; no text/lexer involved at all."""
        host = repro.compile_grammar("grammar P; s : (PING | DATA)* QUIT ;")
        vocab = host.grammar.vocabulary
        ping, data, quit_ = (vocab.type_of(n) for n in ("PING", "DATA", "QUIT"))

        def frames():
            for _ in range(1000):
                yield Token(ping, "PING")
                yield Token(data, "DATA")
            yield Token(quit_, "QUIT")

        stream = StreamingTokenStream(frames())
        parser = LLStarParser(host.analysis, stream,
                              ParserOptions(build_tree=False))
        parser.parse()
        assert stream.peak_buffered <= 4


class TestStreamingRecovery:
    """Error recovery over a sliding window.

    Panic resync consumes tokens straight through the stream, so the
    window must keep trimming behind it, and neither prediction nor
    recovery may leave a mark pinning the window open."""

    @pytest.fixture(scope="class")
    def host(self):
        return repro.compile_grammar(r"""
            grammar CmdsR;
            session : command* ;
            command : 'set' ID INT | 'get' ID | 'ping' ;
            ID : [a-z]+ ;
            INT : [0-9]+ ;
            JUNK : '#' ;
            WS : [ \t\r\n]+ -> skip ;
        """)

    def test_resync_skips_junk_and_releases_marks(self, host):
        stream = StreamingTokenStream(token_source(host, "set # 1 ping"))
        parser = LLStarParser(host.analysis, stream,
                              ParserOptions(recover=True))
        tree = parser.parse()
        (node,) = tree.error_nodes()
        assert [t.text for t in node.tokens] == ["#", "1"]
        assert len(parser.errors) == 1
        assert stream._marks == []  # nothing left pinning the window

    def test_single_token_insertion_on_streaming_input(self, host):
        stream = StreamingTokenStream(token_source(host, "set alpha get beta"))
        parser = LLStarParser(host.analysis, stream,
                              ParserOptions(recover=True))
        tree = parser.parse()
        (node,) = tree.error_nodes()
        assert node.is_insertion
        assert node.inserted.text == "<missing INT>"
        assert stream._marks == []

    def test_window_stays_bounded_across_recovery(self, host):
        good = "set alpha 1 get alpha ping "
        text = good * 40 + "set # 9 " + good * 40
        stream = StreamingTokenStream(token_source(host, text))
        parser = LLStarParser(host.analysis, stream,
                              ParserOptions(recover=True, build_tree=False))
        parser.parse()
        assert parser.errors
        assert stream.size > 480       # the input really was long...
        assert stream.peak_buffered <= 8  # ...and resync never pinned it

    def test_streaming_and_buffered_recovered_trees_agree(self, host):
        text = "set alpha 1 get # ping set beta 2"
        buffered = host.parser(text, options=ParserOptions(recover=True))
        buffered_tree = buffered.parse()
        stream = StreamingTokenStream(token_source(host, text))
        streaming = LLStarParser(host.analysis, stream,
                                 ParserOptions(recover=True))
        streaming_tree = streaming.parse()
        assert streaming_tree.to_sexpr() == buffered_tree.to_sexpr()
        assert len(streaming.errors) == len(buffered.errors) == 1

    def test_failed_speculation_then_resync_releases_marks(self):
        """Speculation pins the window with a mark; when every
        alternative fails and panic resync takes over, the pin must
        already be gone so the resync can trim as it skips."""
        host = repro.compile_grammar(r"""
            grammar B;
            options { backtrack=true; }
            s : pre* tail ;
            tail : x '!' | x '?' ;
            pre : 'p' ;
            x : '(' x ')' | ID ;
            ID : [a-z]+ ;
            WS : [ ]+ -> skip ;
        """, options=AnalysisOptions(max_recursion_depth=1))
        stream = StreamingTokenStream(token_source(host, "p p ( z ?"))
        parser = LLStarParser(host.analysis, stream,
                              ParserOptions(recover=True))
        tree = parser.parse()
        assert parser.errors
        assert tree.has_errors
        assert stream._marks == []
        assert stream.la(1) == EOF  # recovery consumed to a safe point


class TestConcurrentSessions:
    """N interleaved streaming parses over distinct grammars must keep
    their profiler/telemetry state fully separate (ISSUE 7 satellite):
    a long-lived service runs many sessions at once, and cross-talk
    would silently corrupt every per-session metric."""

    AB_GRAMMAR = ("grammar CA; s : (A | B)+ ; A : 'a' ; B : 'b' ; "
                  "WS : ' ' -> skip ;")
    XY_GRAMMAR = ("grammar CX; s : (X Y)+ ; X : 'x' ; Y : 'y' ; "
                  "WS : ' ' -> skip ;")

    @staticmethod
    def run_session(host, text, reps):
        """One session: its own telemetry (and its per-decision store),
        fresh streams."""
        from repro.runtime.telemetry import ParseTelemetry

        telemetry = ParseTelemetry()
        for _ in range(reps):
            stream = StreamingTokenStream(token_source(host, text),
                                          telemetry=telemetry)
            parser = LLStarParser(host.analysis, stream, ParserOptions(
                telemetry=telemetry, build_tree=False))
            parser.parse()
            assert not parser.errors
        return telemetry, telemetry.profiler

    def test_interleaved_sessions_do_not_share_state(self):
        from concurrent.futures import ThreadPoolExecutor

        host_ab = repro.compile_grammar(self.AB_GRAMMAR)
        host_xy = repro.compile_grammar(self.XY_GRAMMAR)
        sessions = [(host_ab, "a b a b a", 3), (host_xy, "x y x y", 2),
                    (host_ab, "b b a", 5), (host_xy, "x y", 7)]
        # Single-threaded reference values for every session shape.
        expected = []
        for host, text, reps in sessions:
            telemetry, profiler = self.run_session(host, text, reps)
            expected.append((
                telemetry.metrics.value("llstar_predictions_total"),
                telemetry.metrics.value("llstar_rule_invocations_total"),
                telemetry.metrics.value("llstar_stream_peak_window"),
                sum(s.events for s in profiler.stats.values())))
            assert expected[-1][0] > 0
        # The same sessions interleaved on 4 threads, twice over to
        # raise the odds of genuine overlap.
        for _ in range(2):
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(self.run_session, *args)
                           for args in sessions]
                results = [f.result() for f in futures]
            for (telemetry, profiler), want in zip(results, expected):
                got = (telemetry.metrics.value("llstar_predictions_total"),
                       telemetry.metrics.value(
                           "llstar_rule_invocations_total"),
                       telemetry.metrics.value("llstar_stream_peak_window"),
                       sum(s.events for s in profiler.stats.values()))
                assert got == want
