"""Artifact-store behavior: keying, invalidation, corruption tolerance.

A cache entry must be invisible after any input that affects the
compiled artifact changes (grammar text, analysis options, schema
version), and a damaged entry must be evicted and recompiled — never
allowed to crash or poison a compile.  Every entry is one ``.llt``
image; tests damage it by editing its bytes or by encoding a damaged
payload.
"""

import glob
import json
import os
import struct

import pytest

import repro
from repro.analysis.construction import AnalysisOptions, DecisionAnalyzer
from repro.cache import (
    SCHEMA_VERSION,
    ArtifactStore,
    CacheDiagnostic,
    MappedArtifact,
    artifact_key,
    artifact_to_dict,
    encode_artifact,
    grammar_fingerprint,
)
from repro.grammars import load

GRAMMAR = """
    grammar Small;
    s : A B | A C ;
    A : 'a' ;
    B : 'b' ;
    C : 'c' ;
    WS : ' ' -> skip ;
"""

EDITED = GRAMMAR.replace("A C", "A A C")


def _entry_paths(cache_dir):
    return sorted(glob.glob(os.path.join(str(cache_dir), "*.llt")))


def _schema_of(path):
    """The payload schema of a mappable image."""
    mapped = MappedArtifact(path)
    try:
        return mapped.payload["schema"]
    finally:
        mapped.close()


class TestKeying:
    def test_same_inputs_same_key(self):
        assert artifact_key(GRAMMAR, None, None) == artifact_key(GRAMMAR, None, None)

    def test_grammar_edit_changes_key(self):
        assert artifact_key(GRAMMAR, None, None) != artifact_key(EDITED, None, None)

    def test_options_change_key(self):
        assert artifact_key(GRAMMAR, None, AnalysisOptions(max_recursion_depth=2)) \
            != artifact_key(GRAMMAR, None, AnalysisOptions(max_recursion_depth=3))

    def test_name_override_changes_key(self):
        assert artifact_key(GRAMMAR, "Other", None) != artifact_key(GRAMMAR, None, None)

    def test_rewrite_flag_changes_key(self):
        assert artifact_key(GRAMMAR, None, None, rewrite_left_recursion=False) \
            != artifact_key(GRAMMAR, None, None, rewrite_left_recursion=True)


class TestWarmStart:
    def test_second_compile_hits_cache(self, tmp_path):
        d = str(tmp_path)
        cold = repro.compile_grammar(GRAMMAR, cache_dir=d)
        assert not cold.from_cache
        before = DecisionAnalyzer.invocations
        warm = repro.compile_grammar(GRAMMAR, cache_dir=d)
        assert warm.from_cache
        assert DecisionAnalyzer.invocations == before
        assert cold.parse("a b").to_sexpr() == warm.parse("a b").to_sexpr()

    def test_grammar_edit_forces_reanalysis(self, tmp_path):
        d = str(tmp_path)
        repro.compile_grammar(GRAMMAR, cache_dir=d)
        host = repro.compile_grammar(EDITED, cache_dir=d)
        assert not host.from_cache
        assert len(_entry_paths(tmp_path)) == 2

    def test_options_change_forces_reanalysis(self, tmp_path):
        d = str(tmp_path)
        repro.compile_grammar(GRAMMAR, cache_dir=d)
        host = repro.compile_grammar(
            GRAMMAR, cache_dir=d, options=AnalysisOptions(max_recursion_depth=2))
        assert not host.from_cache
        assert len(_entry_paths(tmp_path)) == 2

    def test_schema_bump_forces_reanalysis(self, tmp_path):
        d = str(tmp_path)
        repro.compile_grammar(GRAMMAR, cache_dir=d)
        (path,) = _entry_paths(tmp_path)
        blob = bytearray(open(path, "rb").read())
        # The header's schema field: simulate an old artifact.
        struct.pack_into("<I", blob, 16, SCHEMA_VERSION - 1)
        with open(path, "wb") as f:
            f.write(blob)
        host = repro.compile_grammar(GRAMMAR, cache_dir=d)
        assert not host.from_cache
        # The stale entry was replaced by a current-schema one.
        (path,) = _entry_paths(tmp_path)
        assert _schema_of(path) == SCHEMA_VERSION

    def test_cold_compile_publishes_one_image(self, tmp_path):
        repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert os.listdir(str(tmp_path)) \
            == [artifact_key(GRAMMAR, None, None) + ".llt"]

    def test_legacy_json_entry_is_ignored(self, tmp_path):
        legacy = os.path.join(str(tmp_path),
                              artifact_key(GRAMMAR, None, None) + ".json")
        with open(legacy, "w") as f:
            f.write(json.dumps({"schema": SCHEMA_VERSION - 1}))
        cold = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not cold.from_cache and cold.cache_diagnostics == []
        assert repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path)).from_cache

    def test_java_subset_store_level_warm_start(self, tmp_path):
        """Acceptance criterion: a warm java_subset compile through the
        public cache path skips DecisionAnalyzer and matches the cold
        host's parse trees and profiler events.

        The store is pre-seeded from the registry's cold host so this
        test pays for analysis at most once per session.
        """
        from repro.runtime.parser import ParserOptions
        from repro.runtime.telemetry import ParseTelemetry

        bench = load("java")
        cold = bench.compile()
        store = ArtifactStore(str(tmp_path))
        key = artifact_key(bench.grammar_text, None, None)
        store.save(key, artifact_to_dict(
            cold.grammar, cold.analysis, cold.lexer_spec,
            grammar_fingerprint(bench.grammar_text)), bench.grammar_text)

        before = DecisionAnalyzer.invocations
        warm = repro.compile_grammar(bench.grammar_text, cache_dir=str(tmp_path))
        assert warm.from_cache
        assert DecisionAnalyzer.invocations == before
        pc = ParseTelemetry()
        pw = ParseTelemetry()
        tc = cold.parse(bench.sample, options=ParserOptions(telemetry=pc))
        tw = warm.parse(bench.sample, options=ParserOptions(telemetry=pw))
        assert tc.to_sexpr() == tw.to_sexpr()
        assert {d: s.events for d, s in pc.profiler.stats.items()} \
            == {d: s.events for d, s in pw.profiler.stats.items()}


class TestCorruptionTolerance:
    def _seed(self, tmp_path):
        repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        (path,) = _entry_paths(tmp_path)
        return path

    def test_truncated_entry_recompiles(self, tmp_path):
        path = self._seed(tmp_path)
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(blob[:len(blob) // 2])
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not host.from_cache
        assert host.recognize("a b")
        # The broken entry was evicted and rewritten whole.
        (path,) = _entry_paths(tmp_path)
        MappedArtifact(path).close()

    def test_garbage_entry_recompiles(self, tmp_path):
        path = self._seed(tmp_path)
        with open(path, "wb") as f:
            f.write(b"\x00\xff not json \xfe")
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not host.from_cache
        assert host.recognize("a c")

    def test_wrong_structure_entry_recompiles(self, tmp_path):
        path = self._seed(tmp_path)
        with open(path, "wb") as f:
            f.write(encode_artifact({"schema": SCHEMA_VERSION, "analysis": {}},
                                    GRAMMAR))
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not host.from_cache
        assert host.recognize("a b")

    def test_entry_for_different_grammar_recompiles(self, tmp_path):
        """A payload whose content does not match the grammar (e.g. a
        key collision or hand-edited file) is rejected by the integrity
        checks, not trusted."""
        repro.compile_grammar(EDITED, cache_dir=str(tmp_path))
        (edited_path,) = _entry_paths(tmp_path)
        store = ArtifactStore(str(tmp_path))
        key = artifact_key(GRAMMAR, None, None)
        os.replace(edited_path, store.path_for(key))
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not host.from_cache
        assert host.recognize("a b")

    def test_store_load_evicts_bad_entry(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        path = store.path_for("deadbeef")
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(path, "w") as f:
            f.write("{truncated")
        assert store.load_mapped("deadbeef") is None
        assert not os.path.exists(path)

    def test_unwritable_cache_dir_is_nonfatal(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(blocker))
        assert host.recognize("a b")


class TestDegradedWarmStart:
    """A structurally valid entry with one rotten record must not sink
    the warm start: the record degrades (no table), the compile warns,
    and the parser rebuilds the table on first use."""

    def _seed_and_corrupt_record(self, tmp_path):
        host = repro.compile_grammar(GRAMMAR)
        payload = artifact_to_dict(host.grammar, host.analysis,
                                   host.lexer_spec,
                                   grammar_fingerprint(GRAMMAR))
        # Damage one record's table only: every payload-level integrity
        # check (schema, name, vocabulary, decision count) still passes.
        payload["analysis"]["records"][0]["table"] = {"flipped": "bits"}
        assert ArtifactStore(str(tmp_path)).save(
            artifact_key(GRAMMAR, None, None), payload, GRAMMAR)

    def test_warm_start_survives_with_degraded_decision(self, tmp_path):
        self._seed_and_corrupt_record(tmp_path)
        with pytest.warns(UserWarning, match="partially corrupt"):
            host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert host.from_cache  # degraded, not evicted
        assert 0 in host.degraded_decisions
        assert any(d.kind == "degraded" for d in host.analysis.diagnostics)

    def test_degraded_decision_rebuilds_on_first_parse(self, tmp_path):
        from repro.runtime.parser import ParserOptions
        from repro.runtime.telemetry import ParseTelemetry

        self._seed_and_corrupt_record(tmp_path)
        with pytest.warns(UserWarning):
            host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        telemetry = ParseTelemetry()
        parser = host.parser("a c", options=ParserOptions(telemetry=telemetry))
        assert parser.parse() is not None
        (event,) = parser.degradations
        assert event.decision == 0
        assert telemetry.metrics.value("llstar_degradations_total") == 1
        # The rebuilt table was installed: the record is whole again.
        assert host.degraded_decisions == []
        assert host.analysis.records[0].table.start >= 0

    def test_serializing_rebuilds_degraded_records(self, tmp_path):
        self._seed_and_corrupt_record(tmp_path)
        with pytest.warns(UserWarning):
            host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        cold = repro.compile_grammar(GRAMMAR)
        # A republished image must carry the real table, not an empty one.
        assert host.analysis.to_dict()["records"] \
            == cold.analysis.to_dict()["records"]
        assert host.degraded_decisions == []

    def test_start_less_table_loads_degraded(self, tmp_path):
        """An image whose record holds a table with no start state (the
        empty table a degraded record used to serialize as) loads with
        that decision degraded, and the parser rebuilds it."""
        host = repro.compile_grammar(GRAMMAR)
        payload = artifact_to_dict(host.grammar, host.analysis,
                                   host.lexer_spec,
                                   grammar_fingerprint(GRAMMAR))
        table = payload["analysis"]["records"][0]["table"]
        table.update(start=-1, n_states=0, edge_index=[0], edge_keys=[],
                     edge_targets=[], accept_alt=[], pred_index=[0],
                     pred_ctx=[], pred_alt=[], pred_target=[],
                     overflow_states=[], recursive=[], resolved_alts=[])
        assert ArtifactStore(str(tmp_path)).save(
            artifact_key(GRAMMAR, None, None), payload, GRAMMAR)
        with pytest.warns(UserWarning, match="partially corrupt"):
            warm = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert warm.degraded_decisions == [0]
        assert warm.parse("a c").to_sexpr() == host.parse("a c").to_sexpr()

    def test_degraded_and_cold_hosts_agree(self, tmp_path):
        self._seed_and_corrupt_record(tmp_path)
        with pytest.warns(UserWarning):
            degraded = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        cold = repro.compile_grammar(GRAMMAR)
        assert degraded.parse("a b").to_sexpr() == cold.parse("a b").to_sexpr()
        assert degraded.parse("a c").to_sexpr() == cold.parse("a c").to_sexpr()


FIG1_GRAMMAR = r"""
    grammar Fig1;
    s : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
    expr : INT ;
    ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
    INT : [0-9]+ ;
    WS : [ \t\r\n]+ -> skip ;
"""


def _without_degraded_lines(text):
    return [line for line in text.splitlines() if "[degraded]" not in line]


class TestDegradedClassification:
    """A degraded decision is classified from the table it is rebuilt
    into, never guessed: Figure 1's cyclic decision 0, salvaged without
    its table, must still count as cyclic in every aggregate."""

    def _salvaged(self, grammar_text):
        from repro.analysis.decisions import AnalysisResult, GrammarAnalyzer
        from repro.grammar.meta_parser import parse_grammar

        cold = repro.compile_grammar(grammar_text)
        payload = cold.analysis.to_dict()
        payload["records"][0]["table"]["edge_index"] = [0]
        grammar = parse_grammar(grammar_text)
        atn = GrammarAnalyzer(grammar).prepare_atn()
        salvaged = AnalysisResult.from_dict(grammar, atn, payload)
        assert salvaged.records[0].degraded
        return cold, salvaged

    def test_salvaged_result_summarises_like_the_cold_one(self):
        cold, salvaged = self._salvaged(FIG1_GRAMMAR)
        # The salvaged result keeps one extra line: its degraded diagnostic.
        assert _without_degraded_lines(salvaged.summary()) \
            == cold.analysis.summary().splitlines()
        assert salvaged.count("cyclic") == 1
        assert salvaged.fixed_k_histogram() == cold.analysis.fixed_k_histogram()

    def test_salvaged_backtracking_decision_counts_in_table4(self):
        from repro.runtime.profiler import DecisionProfiler

        cold, salvaged = self._salvaged(FIG2_GRAMMAR)
        report = DecisionProfiler().report(salvaged)
        assert report.can_backtrack_decisions \
            == DecisionProfiler().report(cold.analysis).can_backtrack_decisions \
            == {0}

    def test_analyze_of_a_damaged_image_matches_a_cold_analyze(
            self, tmp_path, capsys):
        from repro.tools.cli import main

        grammar = tmp_path / "fig1.g"
        grammar.write_text(FIG1_GRAMMAR)
        cache = tmp_path / "cache"
        host = repro.compile_grammar(FIG1_GRAMMAR)
        payload = artifact_to_dict(host.grammar, host.analysis,
                                   host.lexer_spec,
                                   grammar_fingerprint(FIG1_GRAMMAR))
        # A checksummed image is decoded without the structural sweep,
        # so damage that must degrade the record is an unloadable table.
        payload["analysis"]["records"][0]["table"] = {"flipped": "bits"}
        assert ArtifactStore(str(cache)).save(
            artifact_key(FIG1_GRAMMAR, None, None), payload, FIG1_GRAMMAR)

        assert main(["analyze", str(grammar)]) == 0
        cold = capsys.readouterr().out
        with pytest.warns(UserWarning, match="partially corrupt"):
            assert main(["analyze", str(grammar), "--cache", str(cache)]) == 0
        warm = capsys.readouterr().out
        # A warm analyze reports the analysis time stored in the image.
        cold, warm = ([line for line in _without_degraded_lines(out)
                       if "analysis time" not in line] for out in (cold, warm))
        assert warm == cold
        assert "  cyclic:      1 (33.3%)" in warm


class TestShapeCheckedImage:
    """A checksummed image is loaded without the full table sweep, but a
    table whose arrays have the wrong shape must still not boot as a
    healthy host (every parse would raise an untyped ``IndexError``).
    The unvalidated path checks array lengths and the start state, which
    reads no array element: a damaged decision table degrades its
    record, and a damaged lexer table makes the entry ``corrupt``."""

    FIG1_INPUTS = ("x", "x = 1", "unsigned int x", "unsigned unsigned x y")

    def _seed(self, tmp_path, damage, name=None):
        cold = repro.compile_grammar(FIG1_GRAMMAR, name=name)
        payload = artifact_to_dict(cold.grammar, cold.analysis,
                                   cold.lexer_spec,
                                   grammar_fingerprint(FIG1_GRAMMAR, name))
        damage(payload)
        assert ArtifactStore(str(tmp_path)).save(
            artifact_key(FIG1_GRAMMAR, name, None), payload, FIG1_GRAMMAR)
        return cold

    @staticmethod
    def _short_decision_rows(payload):
        payload["analysis"]["records"][0]["table"]["edge_index"] = [0]

    def test_short_decision_row_pointers_degrade_the_record(self, tmp_path):
        cold = self._seed(tmp_path, self._short_decision_rows)
        with pytest.warns(UserWarning, match="partially corrupt"):
            warm = repro.compile_grammar(FIG1_GRAMMAR, cache_dir=str(tmp_path))
        assert warm.from_cache
        assert warm.degraded_decisions == [0]
        assert any(d.kind == "degraded" for d in warm.analysis.diagnostics)
        for text in self.FIG1_INPUTS:
            assert (warm.parse(text).to_spanned_sexpr()
                    == cold.parse(text).to_spanned_sexpr())

    def test_short_lexer_row_pointers_make_the_entry_corrupt(self, tmp_path):
        cold = self._seed(
            tmp_path, lambda payload: payload["lexer"].update(edge_index=[0]))
        warm = repro.compile_grammar(FIG1_GRAMMAR, cache_dir=str(tmp_path))
        assert not warm.from_cache
        assert [d.kind for d in warm.cache_diagnostics] == [
            CacheDiagnostic.CORRUPT]
        for text in self.FIG1_INPUTS:
            assert (warm.parse(text).to_spanned_sexpr()
                    == cold.parse(text).to_spanned_sexpr())

    def test_serve_answers_a_damaged_image_with_200(self, tmp_path):
        import asyncio
        import warnings

        from repro.serve import ParseService, ServiceConfig

        self._seed(tmp_path, self._short_decision_rows, name="fig1")
        svc = ParseService(config=ServiceConfig(
            jobs=0, cache_dir=str(tmp_path), default_deadline=5.0))
        svc.registry.register("fig1", FIG1_GRAMMAR)
        body = json.dumps({"grammar": "fig1", "text": "unsigned int x",
                           "tree": True}).encode()
        try:
            with warnings.catch_warnings():
                # The warm boot warns from the registry's compile thread.
                warnings.simplefilter("ignore")
                response = asyncio.run(svc.handle("POST", "/parse", body))
        finally:
            svc.close()
        assert response.status == 200
        doc = json.loads(response.body_bytes())
        assert doc["ok"] and "unsigned" in doc["tree"]


K1_GRAMMAR = """
    grammar KOne;
    options { k=1; }
    s : ID '=' INT | ID ID ;
    ID : [a-z]+ ;
    INT : [0-9]+ ;
    WS : ' ' -> skip ;
"""

FIG2_GRAMMAR = """
    grammar Fig2;
    options { backtrack=true; }
    t : '-'* ID | expr ;
    expr : INT | '-' expr ;
    ID : [a-z]+ ;
    INT : [0-9]+ ;
    WS : [ ]+ -> skip ;
"""


class TestDegradedRebuildOptions:
    """A degraded decision is rebuilt with the options the grammar was
    analysed with: the grammar's own ``k`` cap and the caller's options.
    Rebuilt with defaults instead, the host would predict differently
    from a cold one (and accept input the cold host rejects)."""

    def _warm_with_damaged_record(self, tmp_path, text, options):
        cold = repro.compile_grammar(text, options=options)
        payload = artifact_to_dict(cold.grammar, cold.analysis,
                                   cold.lexer_spec, grammar_fingerprint(text))
        payload["analysis"]["records"][0]["table"] = {"flipped": "bits"}
        assert ArtifactStore(str(tmp_path)).save(
            artifact_key(text, None, options), payload, text)
        with pytest.warns(UserWarning, match="partially corrupt"):
            warm = repro.compile_grammar(text, options=options,
                                         cache_dir=str(tmp_path))
        assert warm.degraded_decisions == [0]
        return cold.analysis.records[0], warm

    def test_grammar_k_option_caps_the_rebuild(self, tmp_path):
        from repro.exceptions import MismatchedTokenError

        cold, warm = self._warm_with_damaged_record(tmp_path, K1_GRAMMAR, None)
        assert cold.fixed_k == 1
        assert warm.parse("a = 1") is not None
        assert warm.analysis.records[0].table.to_dict() == cold.table.to_dict()
        with pytest.raises(MismatchedTokenError):
            warm.parse("a b")

    def test_recursion_bound_holds_in_the_rebuild(self, tmp_path):
        cold, warm = self._warm_with_damaged_record(
            tmp_path, FIG2_GRAMMAR, AnalysisOptions(max_recursion_depth=1))
        assert warm.parse("--x") is not None
        assert warm.analysis.records[0].table.to_dict() == cold.table.to_dict()


class TestCacheDiagnostics:
    """Every eviction leaves a structured trace, surfaced on the host."""

    def test_corrupt_entry_leaves_diagnostic(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        path = store.path_for("deadbeef")
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(path, "w") as f:
            f.write("{truncated")
        assert store.load_mapped("deadbeef") is None
        (diag,) = store.diagnostics
        assert diag.kind == CacheDiagnostic.CORRUPT
        assert diag.key == "deadbeef"

    def test_host_surfaces_store_diagnostics(self, tmp_path):
        repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        (path,) = _entry_paths(tmp_path)
        with open(path, "w") as f:
            f.write("{truncated")
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not host.from_cache
        assert any(d.kind == CacheDiagnostic.CORRUPT
                   for d in host.cache_diagnostics)

    def test_stale_entry_noted(self, tmp_path):
        repro.compile_grammar(EDITED, cache_dir=str(tmp_path))
        (edited_path,) = _entry_paths(tmp_path)
        store = ArtifactStore(str(tmp_path))
        key = artifact_key(GRAMMAR, None, None)
        os.replace(edited_path, store.path_for(key))
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not host.from_cache
        assert any(d.kind == CacheDiagnostic.STALE
                   for d in host.cache_diagnostics)


class TestOrphanSweep:
    """A writer that dies between ``mkstemp`` and ``os.replace`` leaves a
    ``.tmp`` spill; store init sweeps those (age-bounded) so a crashy
    host does not slowly fill the cache directory with garbage."""

    def _plant_tmp(self, tmp_path, name=".deadbeef.12345.tmp", age=None):
        os.makedirs(str(tmp_path), exist_ok=True)
        path = os.path.join(str(tmp_path), name)
        with open(path, "w") as f:
            f.write('{"half": "written')
        if age is not None:
            old = os.stat(path).st_mtime - age
            os.utime(path, (old, old))
        return path

    def test_stale_tmp_swept_on_init(self, tmp_path):
        path = self._plant_tmp(tmp_path, age=7200.0)
        store = ArtifactStore(str(tmp_path))
        assert not os.path.exists(path)
        assert store.orphans_swept == 1
        (diag,) = store.diagnostics
        assert diag.kind == CacheDiagnostic.ORPHAN

    def test_fresh_tmp_left_for_its_writer(self, tmp_path):
        # A young spill may belong to a concurrent in-flight save.
        path = self._plant_tmp(tmp_path)
        store = ArtifactStore(str(tmp_path))
        assert os.path.exists(path)
        assert store.orphans_swept == 0
        assert store.diagnostics == []

    def test_sweep_respects_custom_age(self, tmp_path):
        path = self._plant_tmp(tmp_path, age=10.0)
        store = ArtifactStore(str(tmp_path), orphan_age_seconds=1.0)
        assert not os.path.exists(path)
        assert store.orphans_swept == 1

    def test_sweep_can_be_disabled(self, tmp_path):
        path = self._plant_tmp(tmp_path, age=7200.0)
        store = ArtifactStore(str(tmp_path), sweep_orphans=False)
        assert os.path.exists(path)
        assert store.orphans_swept == 0

    def test_sweep_spares_real_entries(self, tmp_path):
        repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        (entry,) = _entry_paths(tmp_path)
        old = os.stat(entry).st_mtime - 7200.0
        os.utime(entry, (old, old))
        ArtifactStore(str(tmp_path))
        assert os.path.exists(entry)

    def test_sweep_reports_to_telemetry(self, tmp_path):
        from repro.runtime.telemetry import ParseTelemetry

        self._plant_tmp(tmp_path, age=7200.0)
        tel = ParseTelemetry()
        ArtifactStore(str(tmp_path), telemetry=tel)
        assert tel.metrics.value("llstar_cache_events_total",
                                 {"op": CacheDiagnostic.ORPHAN}) == 1

    def test_compile_path_sweeps_orphans(self, tmp_path):
        """The public compile_grammar(cache_dir=...) path sweeps too —
        regression for orphans accumulating forever."""
        path = self._plant_tmp(tmp_path, age=7200.0)
        repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not os.path.exists(path)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        leftovers = [p for p in os.listdir(str(tmp_path))
                     if not p.endswith((".json", ".llt"))]
        assert leftovers == []

    def test_save_then_load_round_trips(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        payload = {"schema": SCHEMA_VERSION, "x": [1, 2, 3]}
        store.save("k" * 64, payload, GRAMMAR)
        assert store.load_mapped("k" * 64).payload == payload
