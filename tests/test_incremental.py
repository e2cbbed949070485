"""Incremental reparsing: shift utilities, damage windows, subtree reuse.

Covers the :mod:`repro.runtime.incremental` layer end to end — the
coordinate-shift primitives with their guard rails, lexical damage
windows (token splits, merges, appends), the lookahead-reach
invalidation that keeps reuse sound, edits inside error-recovered
regions, transactional failure behavior, the edit-session CLI protocol,
grafting over a streaming stream, and the lazy decision classification
that rides along on the warm-start path.
"""

import io
import json

import pytest

import repro
from repro.analysis.decisions import DecisionRecord, FIXED
from repro.exceptions import LexerError, RecognitionError
from repro.runtime.incremental import EditSession
from repro.runtime.parser import LLStarParser, ParserOptions
from repro.runtime.telemetry import ParseTelemetry
from repro.runtime.token import Token
from repro.runtime.trees import RuleNode, TokenNode
from repro.tools import cli

CALC = r"""
grammar IncCalc;
program : stmt+ ;
stmt : ID '=' expr ';' ;
expr : term (('+' | '-') term)* ;
term : factor (('*' | '/') factor)* ;
factor : ID | INT | '(' expr ')' ;
ID  : [a-z] [a-z0-9_]* ;
INT : [0-9]+ ;
WS  : [ \t\r\n]+ -> skip ;
LINE_COMMENT : '#' ~[\n]* -> skip ;
"""

TEXT = "alpha = 1 + beta * 2;\nbeta = (alpha + 7) / two;\ngamma = 4;\n"


@pytest.fixture(scope="module")
def host():
    return repro.compile_grammar(CALC)


def cold(host, text):
    return host.parse(text, options=ParserOptions(recover=True))


def cold_errors(host, text):
    parser = host.parser(text, options=ParserOptions(recover=True))
    parser.parse()
    return parser.errors


def assert_matches_cold(host, session):
    ref = cold(host, session.text)
    assert session.to_spanned_sexpr() == ref.to_spanned_sexpr()
    # Token coordinates must match a cold lex exactly (shifted, not relexed).
    for t_inc, t_ref in zip(session.tokens(), host.tokenize(session.text).tokens()):
        assert (t_inc.text, t_inc.index, t_inc.start, t_inc.stop,
                t_inc.line, t_inc.column) == \
               (t_ref.text, t_ref.index, t_ref.start, t_ref.stop,
                t_ref.line, t_ref.column)


class TestShiftUtilities:
    def test_token_shift_moves_every_coordinate(self):
        t = Token(5, "ab", line=3, column=4, start=10, stop=12, index=7)
        t.shift(delta_tokens=2, delta_chars=-3, delta_lines=1, delta_columns=-4)
        assert (t.index, t.start, t.stop, t.line, t.column) == (9, 7, 9, 4, 0)

    def test_token_shift_leaves_sentinels_alone(self):
        t = Token(5, "x")  # index=-1, start=-1, stop=-1
        t.shift(delta_tokens=4, delta_chars=9)
        assert t.index == -1 and t.start == -1 and t.stop == -1

    @pytest.mark.parametrize("kwargs", [
        {"delta_tokens": -8}, {"delta_chars": -11},
        {"delta_lines": -3}, {"delta_columns": -5},
    ])
    def test_token_shift_guards_negative_results(self, kwargs):
        t = Token(5, "x", line=3, column=4, start=10, stop=11, index=7)
        with pytest.raises(ValueError):
            t.shift(**kwargs)

    def test_tree_shift_and_empty_span_edge(self):
        node = RuleNode("r")
        node.start, node.stop = 4, 3  # empty span (p, p-1)
        node.shift(5)
        assert (node.start, node.stop) == (9, 8)
        assert node.is_empty_span
        node.shift(-9)
        assert (node.start, node.stop) == (0, -1)
        with pytest.raises(ValueError):
            node.shift(-1)

    def test_rule_node_shift_carries_look_stop(self):
        node = RuleNode("r")
        node.start, node.stop, node.look_stop = 2, 5, 6
        node.shift(3)
        assert node.look_stop == 9
        unreusable = RuleNode("r")
        unreusable.start, unreusable.stop = 2, 5
        unreusable.shift(3)
        assert unreusable.look_stop == -1  # sentinel stays

    def test_token_node_shift(self):
        tn = TokenNode(Token(5, "x"))
        tn.start = tn.stop = 4
        tn.shift(2)
        assert (tn.start, tn.stop) == (6, 6)
        tn.shift(0)
        assert tn.start == 6


class TestLexicalDamage:
    def test_edit_inside_token(self, host):
        s = EditSession(host, TEXT)
        at = TEXT.index("beta")
        s.edit(at + 1, at + 2, "o")  # beta -> bota
        assert "bota" in s.text
        assert_matches_cold(host, s)
        assert s.stats.damaged_tokens == 1
        assert s.stats.relexed_chars < 10

    def test_token_merge_across_deleted_space(self, host):
        s = EditSession(host, TEXT)
        at = TEXT.index(" * ")
        s.edit(at, at + 3, "")  # beta * 2 -> beta2: two tokens merge
        assert "beta2" in s.text
        assert_matches_cold(host, s)

    def test_token_split_by_inserted_space(self, host):
        s = EditSession(host, TEXT)
        at = TEXT.index("gamma") + 2
        s.edit(at, at, " = ")  # gamma -> ga = mma...
        assert_matches_cold(host, s)

    def test_append_at_end_damages_eof(self, host):
        s = EditSession(host, TEXT)
        s.edit(len(TEXT), len(TEXT), "zz = 9;\n")
        assert_matches_cold(host, s)
        assert s.stats.token_delta > 0

    def test_edit_at_position_zero(self, host):
        s = EditSession(host, TEXT)
        s.edit(0, 0, "zero = 0;\n")
        assert_matches_cold(host, s)
        assert s.stats.reused_nodes > 0

    def test_replace_entire_document(self, host):
        s = EditSession(host, TEXT)
        s.edit(0, len(TEXT), "only = 1;")
        assert s.text == "only = 1;"
        assert_matches_cold(host, s)

    def test_comment_extension_swallows_suffix_of_line(self, host):
        text = "a = 1; # note\nb = 2;\n"
        s = EditSession(host, text)
        # Turning '=' into '#' starts a comment that eats the rest of
        # the line — the damage extends well past the one-char edit.
        at = text.index("=", text.index("b"))
        s.edit(at, at + 1, "#")
        assert_matches_cold(host, s)

    def test_newline_edits_fix_lines_and_columns(self, host):
        s = EditSession(host, TEXT)
        at = s.text.index("*")
        s.edit(at, at, "\n   ")
        assert_matches_cold(host, s)
        nl = s.text.index("\n")
        s.edit(nl, nl + 1, " ")  # join first two lines
        assert_matches_cold(host, s)

    def test_edit_sequences_accumulate_correctly(self, host):
        s = EditSession(host, TEXT)
        ref_text = TEXT
        edits = [(4, 4, "x"), (20, 21, ""), (0, 0, "q = 3;\n"),
                 (30, 35, "seven"), (10, 10, "\n")]
        for (a, b, repl) in edits:
            s.edit(a, b, repl)
            ref_text = ref_text[:a] + repl + ref_text[b:]
            assert s.text == ref_text
            assert_matches_cold(host, s)


class TestReuse:
    def test_whitespace_edit_reuses_root(self, host):
        s = EditSession(host, TEXT)
        # Grow the whitespace run before 'beta': no visible token is
        # damaged, so the token sequence is identical after the edit.
        at = TEXT.index("beta")
        s.edit(at, at, "   ")
        assert_matches_cold(host, s)
        # Identical token sequence: the whole old tree grafts as root.
        assert s.stats.reused_nodes == 1
        assert s.stats.reuse_rate > 0.9

    def test_single_char_edit_reuses_almost_everything(self, host):
        s = EditSession(host, TEXT)
        at = TEXT.index("7")
        s.edit(at, at + 1, "8")
        assert_matches_cold(host, s)
        assert s.stats.reused_tokens >= s.stats.total_tokens - 12

    def test_lookahead_past_subtree_blocks_stale_reuse(self):
        # x's prediction must examine the token *after* the 'u's to pick
        # an alternative, so a later edit to that token invalidates the
        # x subtree even though the edit is outside x's span.
        grammar = r"""
        grammar Look;
        s : x rest ;
        x : 'u'* 'i' | 'u'* ;
        rest : ID* ;
        ID : [a-z]+ ;
        WS : [ \t]+ -> skip ;
        """
        h = repro.compile_grammar(grammar)
        text = "u u a b"
        s = EditSession(h, text)
        old_alt = s.tree.children[0].alt
        at = text.index("a")
        s.edit(at, at + 1, "i")  # x should now take its first alternative
        ref = cold(h, s.text)
        assert s.to_spanned_sexpr() == ref.to_spanned_sexpr()
        assert s.tree.children[0].alt != old_alt

    def test_telemetry_counters_and_events(self, host):
        telemetry = ParseTelemetry()
        s = EditSession(host, TEXT, telemetry=telemetry)
        at = TEXT.index("4")
        s.edit(at, at + 1, "5")
        m = telemetry.metrics
        assert m.value("llstar_incremental_edits_total") == 1
        assert m.value("llstar_incremental_relexed_chars_total") >= 1
        assert m.value("llstar_incremental_reused_nodes_total") >= 1
        assert m.value("llstar_incremental_reused_tokens_total") >= 1
        edits = telemetry.events_by_kind("incremental-edit")
        assert len(edits) == 1 and edits[0].to_dict()["relexed_chars"] >= 1
        grafts = telemetry.events_by_kind("reuse")
        assert grafts and all(g.stop >= g.start for g in grafts)


class TestErrorsAndFailure:
    def test_edit_inside_error_recovered_region(self, host):
        s = EditSession(host, TEXT)
        eq = s.text.index("=")
        s.edit(eq, eq + 1, "+")  # break the first statement
        assert_matches_cold(host, s)
        assert len(s.errors) == len(cold_errors(host, s.text))
        assert s.errors
        # Edit elsewhere while broken: still equal, still reusing.
        at = s.text.index("two")
        s.edit(at, at + 3, "ten")
        assert_matches_cold(host, s)
        assert s.stats.reused_nodes > 0
        # Fix it again.
        s.edit(eq, eq + 1, "=")
        assert_matches_cold(host, s)
        assert not s.errors

    def test_lexer_error_rolls_back_cleanly(self, host):
        s = EditSession(host, TEXT)
        snapshot = (s.text, s.to_spanned_sexpr(), s.stream.size,
                    [t.text for t in s.tokens()])
        with pytest.raises(LexerError):
            s.edit(3, 4, "@")
        assert (s.text, s.to_spanned_sexpr(), s.stream.size,
                [t.text for t in s.tokens()]) == snapshot
        s.edit(3, 4, "o")  # session still fully usable
        assert_matches_cold(host, s)

    def test_no_recover_failure_commits_text_then_self_heals(self, host):
        s = EditSession(host, TEXT, recover=False)
        eq = s.text.index("=")
        with pytest.raises(RecognitionError):
            s.edit(eq, eq + 1, "+")
        assert s.tree is None  # lexical state advanced, tree dropped
        assert "+" in s.text[:eq + 1]
        s.edit(eq, eq + 1, "=")  # cold reparse restores the tree
        assert s.tree is not None
        assert_matches_cold(host, s)

    @pytest.mark.parametrize("span", [(-1, 0), (5, 2), (0, 10 ** 6)])
    def test_bad_offsets_raise(self, host, span):
        s = EditSession(host, TEXT)
        with pytest.raises(ValueError):
            s.edit(span[0], span[1], "x")

    def test_grammar_without_lexer_is_rejected(self):
        h = repro.compile_grammar("grammar NoLexer;\ns : 'a' ;\n")
        if h.lexer_spec is not None:  # implicit literals make a lexer
            pytest.skip("grammar acquired an implicit lexer")
        with pytest.raises(repro.GrammarError):
            EditSession(h, "a")


class TestCliEditSession:
    def test_protocol_round_trip(self, host, tmp_path, monkeypatch, capsys):
        grammar_path = tmp_path / "calc.g"
        grammar_path.write_text(CALC)
        input_path = tmp_path / "doc.txt"
        input_path.write_text(TEXT)
        ops = [
            {"op": "edit", "start": 0, "end": 0, "text": "n = 4;\n"},
            {"op": "check"},
            {"op": "text"},
            {"op": "tree"},
        ]
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("".join(json.dumps(op) + "\n"
                                                for op in ops)))
        rc = cli.main(["edit-session", str(grammar_path), str(input_path)])
        out = [json.loads(line) for line in
               capsys.readouterr().out.strip().splitlines()]
        assert rc == 0
        assert [o["ok"] for o in out] == [True] * 4
        assert out[0]["stats"]["reused_nodes"] > 0
        assert out[1]["reuse_rate"] > 0.5
        assert out[2]["text"].startswith("n = 4;\n")
        assert out[3]["tree"].startswith("(program")

    def test_protocol_failures_exit_nonzero(self, host, tmp_path,
                                            monkeypatch, capsys):
        grammar_path = tmp_path / "calc.g"
        grammar_path.write_text(CALC)
        input_path = tmp_path / "doc.txt"
        input_path.write_text(TEXT)
        ops = [{"op": "edit", "start": 0, "end": 0, "text": "@"},
               {"op": "nope"}]
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("".join(json.dumps(op) + "\n"
                                                for op in ops)))
        rc = cli.main(["edit-session", str(grammar_path), str(input_path)])
        out = [json.loads(line) for line in
               capsys.readouterr().out.strip().splitlines()]
        assert rc == 1
        assert not out[0]["ok"] and "error" in out[0]
        assert not out[1]["ok"]


class TestStreamingGraft:
    def test_graft_over_streaming_stream(self, host):
        from repro.runtime.streaming import StreamingTokenStream

        # First parse (reuse tracking on) produces a reusable tree.
        stream = host.tokenize(TEXT)
        parser = LLStarParser(host.analysis, stream,
                              ParserOptions(recover=True, reuse={}))
        tree = parser.parse()
        stmts = [c for c in tree.children
                 if isinstance(c, RuleNode) and c.look_stop >= 0]
        assert stmts, "expected reusable statement subtrees"
        seeds = {(stmt.rule_name, stmt.start): stmt for stmt in stmts}

        # Second parse over a *streaming* stream grafts them: the
        # forward seek past the materialisation frontier must fill in.
        feed = iter(host.lexer_spec.tokenize(TEXT, include_hidden=True))
        streaming = StreamingTokenStream(feed, source=TEXT)
        parser2 = LLStarParser(host.analysis, streaming,
                               ParserOptions(recover=True, reuse=seeds))
        tree2 = parser2.parse()
        assert parser2.reused_nodes == len(stmts)
        ref = cold(host, TEXT)
        assert tree2.to_spanned_sexpr() == ref.to_spanned_sexpr()


class TestLazyClassification:
    def test_cold_records_classify_on_first_touch(self):
        h = repro.compile_grammar(CALC)
        record = h.analysis.records[0]
        fresh = DecisionRecord(record.decision, record.rule_name,
                               record.kind, record.table)
        assert fresh._category is None
        assert fresh.category == record.category
        assert fresh._category is not None

    def test_warm_start_records_stay_lazy_until_touched(self):
        from repro.analysis.decisions import AnalysisResult, GrammarAnalyzer
        from repro.grammar.meta_parser import parse_grammar

        h = repro.compile_grammar(CALC)
        payload = h.analysis.to_dict()
        grammar = parse_grammar(CALC)
        atn = GrammarAnalyzer(grammar).prepare_atn()
        warm = AnalysisResult.from_dict(grammar, atn, payload)
        assert all(r._category is None for r in warm.records)
        for cold_r, warm_r in zip(h.analysis.records, warm.records):
            assert warm_r.category == cold_r.category
            assert warm_r.fixed_k == cold_r.fixed_k

    def test_fixed_k_forces_classification(self):
        h = repro.compile_grammar(CALC)
        r = h.analysis.records[0]
        fresh = DecisionRecord(r.decision, r.rule_name, r.kind, r.table)
        k = fresh.fixed_k
        assert fresh._category is not None
        assert (k is not None) == (fresh.category == FIXED)

    def test_rebuilt_record_classifies_from_its_table(self):
        h = repro.compile_grammar(CALC)
        r = h.analysis.records[0]
        degraded = DecisionRecord(r.decision, r.rule_name, r.kind, None)
        h.analysis.records[0] = degraded
        assert degraded.degraded
        # Asking a degraded record its category must not pin an answer
        # the rebuilt table would contradict.
        _ = degraded.category
        assert degraded._category is None
        h.analysis.decision_table(0)
        assert not degraded.degraded
        assert degraded.table.to_dict() == r.table.to_dict()
        assert (degraded.category, degraded.fixed_k) == (r.category, r.fixed_k)
