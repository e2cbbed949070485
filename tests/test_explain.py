"""Decision explanation tool."""

import pytest

import repro
from repro.analysis import AnalysisOptions
from repro.grammars import load
from repro.tools.cli import main
from repro.tools.explain import explain_all_matching, explain_prediction

FIG1 = r"""
grammar Fig1;
s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
expr : INT ;
ID : [a-zA-Z_]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""


@pytest.fixture(scope="module")
def host():
    return repro.compile_grammar(FIG1)


class TestExplain:
    def test_k1_walk(self, host):
        trace = explain_prediction(host.analysis, 0, host.tokenize("int x"))
        assert trace.predicted_alt == 3
        assert trace.lookahead_used == 1
        assert "accept state for alternative 3" in trace.render()

    def test_cyclic_walk_narrates_each_hop(self, host):
        trace = explain_prediction(
            host.analysis, 0, host.tokenize("unsigned unsigned unsigned int q"))
        assert trace.predicted_alt == 3
        assert trace.lookahead_used == 4
        assert sum("'unsigned'" in s for s in trace.steps) == 3

    def test_no_viable_walk(self, host):
        trace = explain_prediction(host.analysis, 0, host.tokenize("= x"))
        assert trace.predicted_alt is None
        assert "no viable" in trace.render()

    def test_predicate_edges_described_not_evaluated(self):
        h = repro.compile_grammar(r"""
            grammar B;
            options { backtrack=true; }
            t : '-'* ID | expr ;
            expr : INT | '-' expr ;
            ID : [a-z]+ ; INT : [0-9]+ ; WS : [ ]+ -> skip ;
        """, options=AnalysisOptions(max_recursion_depth=1))
        trace = explain_prediction(h.analysis, 0, h.tokenize("---5"))
        assert trace.stopped_at_predicates
        text = trace.render()
        assert "synpred" in text and "default edge" in text

    def test_explain_all_for_rule(self, host):
        traces = explain_all_matching(host.analysis, host.tokenize("T x"),
                                      rule_name="s")
        # rule s owns three decisions: the rule decision + two star loops
        assert len(traces) == 3
        assert traces[0].predicted_alt == 4

    def test_stream_not_consumed(self, host):
        stream = host.tokenize("unsigned int x")
        explain_prediction(host.analysis, 0, stream)
        assert stream.index == 0


class TestExplainCli:
    def test_cli_explain(self, tmp_path, capsys):
        grammar = tmp_path / "g.g"
        grammar.write_text(FIG1)
        source = tmp_path / "in.txt"
        source.write_text("unsigned int flags")
        assert main(["explain", str(grammar), str(source), "--decision", "0"]) == 0
        out = capsys.readouterr().out
        assert "predict alternative 3" in out

    def test_cli_explain_by_rule(self, tmp_path, capsys):
        grammar = tmp_path / "g.g"
        grammar.write_text(FIG1)
        source = tmp_path / "in.txt"
        source.write_text("x = 5")
        assert main(["explain", str(grammar), str(source), "--rule", "s"]) == 0
        assert "alternative 2" in capsys.readouterr().out


class TestDegradedDecision:
    """``explain`` reads a degraded decision through the same rebuild as
    the parser, so it narrates what the cold host would."""

    def test_salvaged_record_explains_like_the_cold_host(self):
        from repro.analysis.decisions import AnalysisResult, GrammarAnalyzer
        from repro.grammar.leftrec import eliminate_left_recursion
        from repro.grammar.meta_parser import parse_grammar

        bench = load("sql")
        cold = bench.compile()
        payload = cold.analysis.to_dict()
        payload["records"][0]["table"]["edge_index"] = [0]
        grammar = parse_grammar(bench.grammar_text)
        eliminate_left_recursion(grammar)
        atn = GrammarAnalyzer(grammar).prepare_atn()
        salvaged = AnalysisResult.from_dict(grammar, atn, payload)
        assert salvaged.records[0].degraded
        assert any(d.kind == "degraded" and d.decision == 0
                   for d in salvaged.diagnostics)
        stream = cold.tokenize(bench.sample)
        assert (explain_prediction(salvaged, 0, stream).render()
                == explain_prediction(cold.analysis, 0, stream).render())
        assert not salvaged.records[0].degraded

    def test_cli_explain_and_dot_on_a_damaged_warm_host(self, tmp_path, capsys):
        from repro.cache import (ArtifactStore, artifact_key,
                                 artifact_to_dict, grammar_fingerprint)

        grammar = tmp_path / "g.g"
        grammar.write_text(FIG1)
        source = tmp_path / "in.txt"
        source.write_text("unsigned unsigned int flags")
        args = ["explain", str(grammar), str(source), "--decision", "0"]
        assert main(args) == 0
        cold_walk = capsys.readouterr().out
        assert main(["analyze", str(grammar), "--dot", str(tmp_path / "cold")]) == 0

        cold = repro.compile_grammar(FIG1)
        payload = artifact_to_dict(cold.grammar, cold.analysis,
                                   cold.lexer_spec, grammar_fingerprint(FIG1))
        payload["analysis"]["records"][0]["table"] = {"flipped": "bits"}
        cache = str(tmp_path / "cache")
        assert ArtifactStore(cache).save(artifact_key(FIG1, None, None),
                                         payload, FIG1)
        capsys.readouterr()
        with pytest.warns(UserWarning, match="partially corrupt"):
            assert main(args + ["--cache", cache]) == 0
        assert capsys.readouterr().out == cold_walk
        with pytest.warns(UserWarning, match="partially corrupt"):
            assert main(["analyze", str(grammar), "--cache", cache,
                         "--dot", str(tmp_path / "warm")]) == 0
        for name in ("decision_0.dot", "decision_1.dot"):
            assert ((tmp_path / "warm" / name).read_text()
                    == (tmp_path / "cold" / name).read_text())
