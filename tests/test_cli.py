"""End-to-end CLI tests (``llstar`` console entry point)."""

import os

import pytest

from repro.tools.cli import main

GRAMMAR = r"""
grammar Demo;
s : ID '=' INT ';' | 'print' ID ';' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""


@pytest.fixture()
def paths(tmp_path):
    grammar = tmp_path / "demo.g"
    grammar.write_text(GRAMMAR)
    source = tmp_path / "input.txt"
    source.write_text("x = 42 ;")
    return str(grammar), str(source), tmp_path


class TestAnalyze:
    def test_summary_printed(self, paths, capsys):
        grammar, _source, _tmp = paths
        assert main(["analyze", grammar]) == 0
        out = capsys.readouterr().out
        assert "decisions" in out
        assert "fixed" in out

    def test_dot_export(self, paths, capsys):
        grammar, _source, tmp = paths
        dot_dir = os.path.join(str(tmp), "dots")
        assert main(["analyze", grammar, "--dot", dot_dir]) == 0
        files = os.listdir(dot_dir)
        assert files and all(f.endswith(".dot") for f in files)

    def test_max_recursion_flag(self, paths):
        grammar, _source, _tmp = paths
        assert main(["analyze", grammar, "--max-recursion", "2"]) == 0


class TestParse:
    def test_ok(self, paths, capsys):
        grammar, source, _tmp = paths
        assert main(["parse", grammar, source]) == 0
        assert "ok" in capsys.readouterr().out

    def test_tree(self, paths, capsys):
        grammar, source, _tmp = paths
        assert main(["parse", grammar, source, "--tree"]) == 0
        assert "(s x = 42 ;)" in capsys.readouterr().out

    def test_trace(self, paths, capsys):
        grammar, source, _tmp = paths
        assert main(["parse", grammar, source, "--trace"]) == 0
        assert "enter s" in capsys.readouterr().out

    def test_syntax_error_reported(self, paths, tmp_path, capsys):
        grammar, _source, _tmp = paths
        bad = tmp_path / "bad.txt"
        bad.write_text("x = = ;")
        assert main(["parse", grammar, str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_lexer_start_rule_reported_without_traceback(self, paths, capsys):
        grammar, source, _tmp = paths
        assert main(["parse", grammar, source, "--rule", "ID"]) == 1
        err = capsys.readouterr().err
        assert "error: rule ID is a lexer rule, not a parser rule" in err
        assert "Traceback" not in err

    def test_missing_file_reported(self, paths, capsys):
        grammar, _source, _tmp = paths
        assert main(["parse", grammar, "/nonexistent/input"]) == 1

    def test_recover_lists_errors_and_exits_nonzero(self, paths, tmp_path, capsys):
        grammar, _source, _tmp = paths
        bad = tmp_path / "bad.txt"
        bad.write_text("x = = 1 ;\nprint ;")
        rc = main(["parse", grammar, str(bad), "--recover"])
        assert rc != 0
        err = capsys.readouterr().err
        # Compiler-style file:line:col prefix for every recovered error.
        assert "%s:1:4:" % bad in err
        assert "syntax error(s)" in err

    def test_recover_clean_input_still_ok(self, paths, capsys):
        grammar, source, _tmp = paths
        assert main(["parse", grammar, source, "--recover"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_recover_tree_shows_repairs(self, paths, tmp_path, capsys):
        grammar, _source, _tmp = paths
        bad = tmp_path / "bad.txt"
        bad.write_text("x 42 ;")
        rc = main(["parse", grammar, str(bad), "--tree", "--recover"])
        assert rc != 0
        captured = capsys.readouterr()
        assert "<error>" in captured.out


class TestProfile:
    def test_profile_output(self, paths, capsys):
        grammar, source, _tmp = paths
        assert main(["profile", grammar, source]) == 0
        out = capsys.readouterr().out
        assert "avg k" in out
        assert "static decisions" in out

    def test_profile_by_decision(self, paths, capsys):
        grammar, source, _tmp = paths
        assert main(["profile", grammar, source, "--by-decision"]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "rule" in out


class TestMetricsExport:
    def test_parse_metrics_out_json(self, paths, capsys):
        import json

        grammar, source, tmp = paths
        out_path = os.path.join(str(tmp), "m.json")
        assert main(["parse", grammar, source, "--metrics-out", out_path]) == 0
        assert "wrote json metrics" in capsys.readouterr().err
        with open(out_path) as f:
            doc = json.load(f)
        metrics = doc["metrics"]
        assert doc["dfa_hit_rate"] == 1.0
        assert metrics["llstar_predictions_total"]["type"] == "counter"
        (sample,) = metrics["llstar_predictions_total"]["samples"]
        assert sample["value"] >= 1
        assert "llstar_realized_k" in metrics

    def test_parse_metrics_out_prom_by_extension(self, paths, capsys):
        grammar, source, tmp = paths
        out_path = os.path.join(str(tmp), "m.prom")
        assert main(["parse", grammar, source, "--metrics-out", out_path]) == 0
        assert "wrote prom metrics" in capsys.readouterr().err
        text = open(out_path).read()
        assert "# TYPE llstar_predictions_total counter" in text
        assert "llstar_realized_k_bucket{le=\"+Inf\"}" in text

    def test_metrics_format_flag_overrides_extension(self, paths):
        import json

        grammar, source, tmp = paths
        out_path = os.path.join(str(tmp), "m.prom")
        assert main(["parse", grammar, source, "--metrics-out", out_path,
                     "--metrics-format", "json"]) == 0
        with open(out_path) as f:
            json.load(f)

    def test_failed_parse_still_writes_metrics(self, paths, tmp_path):
        # The whole point of the layer: a dead parse leaves evidence.
        grammar, _source, _tmp = paths
        bad = tmp_path / "bad.txt"
        bad.write_text("x = = ;")
        out_path = str(tmp_path / "m.json")
        assert main(["parse", grammar, str(bad),
                     "--metrics-out", out_path]) == 1
        assert os.path.exists(out_path)

    def test_profile_json_document(self, paths, capsys):
        import json

        grammar, source, _tmp = paths
        assert main(["profile", grammar, source, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["table3"]["events"] >= 1
        assert doc["table3"]["avg_k"] >= 1.0
        assert "backtrack_rate" in doc["table4"]
        assert doc["per_decision"]
        assert "llstar_dfa_hits_total" in doc["telemetry"]["metrics"]
        assert doc["telemetry"]["dfa_hit_rate"] == 1.0

    def test_profile_tables_include_hit_rate(self, paths, capsys):
        grammar, source, _tmp = paths
        assert main(["profile", grammar, source]) == 0
        out = capsys.readouterr().out
        assert "dfa hit rate: 100.00%" in out
        assert "Table 3 (single input)" in out
        assert "Table 4 (single input)" in out

    def test_profile_metrics_out(self, paths):
        import json

        grammar, source, tmp = paths
        out_path = os.path.join(str(tmp), "prof.json")
        assert main(["profile", grammar, source,
                     "--metrics-out", out_path]) == 0
        with open(out_path) as f:
            doc = json.load(f)
        assert "llstar_rule_invocations_total" in doc["metrics"]


class TestCacheCommand:
    def _seed(self, tmp_path):
        import repro

        cache = str(tmp_path / "cache")
        repro.compile_grammar(GRAMMAR, cache_dir=cache)
        return cache

    def test_lists_entries_with_sidecar_status(self, paths, capsys):
        _g, _s, tmp_path = paths
        cache = self._seed(tmp_path)
        assert main(["cache", cache]) == 0
        out = capsys.readouterr().out
        assert "ok +source" in out

    def test_verify_flags_corruption(self, paths, capsys):
        import glob

        _g, _s, tmp_path = paths
        cache = self._seed(tmp_path)
        (llt,) = glob.glob(os.path.join(cache, "*.llt"))
        blob = bytearray(open(llt, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(llt, "wb") as f:
            f.write(blob)
        assert main(["cache", cache, "--verify"]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_json_document(self, paths, capsys):
        import json

        _g, _s, tmp_path = paths
        cache = self._seed(tmp_path)
        assert main(["cache", cache, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["corrupt"] == 0
        (entry,) = doc["entries"]
        assert entry["llt_status"] == "ok" and entry["grammar_source"]

    def test_missing_directory_is_error(self, paths, capsys):
        _g, _s, tmp_path = paths
        assert main(["cache", str(tmp_path / "nope")]) == 1


class TestSets:
    def test_all_rules(self, paths, capsys):
        grammar, _source, _tmp = paths
        assert main(["sets", grammar]) == 0
        out = capsys.readouterr().out
        assert "FIRST(s)" in out and "FOLLOW(s)" in out

    def test_single_rule(self, paths, capsys):
        grammar, _source, _tmp = paths
        assert main(["sets", grammar, "--rule", "s"]) == 0
        out = capsys.readouterr().out
        assert out.count("FIRST(") == 1


class TestCodegen:
    def test_stdout(self, paths, capsys):
        grammar, _source, _tmp = paths
        assert main(["codegen", grammar]) == 0
        out = capsys.readouterr().out
        assert "class DemoParser(GeneratedParser)" in out

    def test_to_file_and_runnable(self, paths, tmp_path, capsys):
        grammar, _source, _tmp = paths
        out_py = tmp_path / "demo_parser.py"
        assert main(["codegen", grammar, "-o", str(out_py)]) == 0
        namespace = {}
        exec(compile(out_py.read_text(), str(out_py), "exec"), namespace)
        assert "DemoParser" in namespace


class TestTokens:
    def test_token_dump(self, paths, capsys):
        grammar, source, _tmp = paths
        assert main(["tokens", grammar, source]) == 0
        out = capsys.readouterr().out
        assert "ID" in out and "INT" in out and "EOF" in out

    def test_bad_grammar_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text("s : ;;;")
        assert main(["analyze", str(bad)]) == 1
        assert "error" in capsys.readouterr().err
