"""Binary ``.llt`` artifact: roundtrip, zero-copy warm start, and the
corruption/eviction hardening matrix.

The contract under test: a valid image warm-starts ``compile_grammar``
with zero-copy tables, and *any* damaged image — truncated,
version-skewed, bit-flipped — is detected at map time, evicted, and
replaced by a cold recompile.  No corruption, at any layer, may crash a
compile.
"""

import os
import struct

import pytest

import repro
from repro.api import host_from_cache_key
from repro.cache import (
    LLT_FORMAT_VERSION,
    ArtifactStore,
    CacheDiagnostic,
    MappedArtifact,
    artifact_key,
    artifact_to_dict,
    encode_artifact,
    grammar_fingerprint,
)
from repro.cache.binary import MAGIC, ZERO_COPY
from repro.exceptions import ArtifactFormatError

GRAMMAR = """
    grammar Mm;
    s : st* ;
    st : ID '=' e ';' | ID ':' e ';' ;
    e : ID | NUM ;
    ID : [a-z]+ ;
    NUM : [0-9]+ ;
    WS : [ \\t\\r\\n]+ -> skip ;
"""
SAMPLE = "a = 1 ; b : a ; c = b ;"

#: Single-alternative rules everywhere: the analysis has no decisions,
#: so the image carries a lexer table but zero decision sections.
ZERO_DECISION = """
    grammar Zd;
    s : ID '=' NUM ';' ;
    ID : [a-z]+ ;
    NUM : [0-9]+ ;
    WS : ' ' -> skip ;
"""

#: No lexer rules at all: callers feed token streams directly, and the
#: payload's ``lexer`` slot is null.
LEXERLESS = """
    grammar Lx;
    s : A B | A C ;
"""


def _key(grammar):
    return artifact_key(grammar, None, None)


def _llt_path(cache_dir, grammar):
    return os.path.join(str(cache_dir), _key(grammar) + ".llt")


def _seed(cache_dir, grammar=GRAMMAR):
    host = repro.compile_grammar(grammar, cache_dir=str(cache_dir))
    path = _llt_path(cache_dir, grammar)
    assert os.path.exists(path)
    return host, path


def _unmap(payload):
    """Deep-copy a mapped payload with memoryview rows back to lists,
    for comparison against the original dict."""
    if isinstance(payload, dict):
        return {k: _unmap(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple, memoryview)):
        return [_unmap(v) for v in payload]
    return payload


class TestRoundTrip:
    def _payload(self, grammar):
        host = repro.compile_grammar(grammar)
        return host, artifact_to_dict(host.grammar, host.analysis,
                                      host.lexer_spec,
                                      grammar_fingerprint(grammar))

    @pytest.mark.parametrize("grammar", [GRAMMAR, ZERO_DECISION, LEXERLESS])
    def test_encode_map_roundtrip_is_lossless(self, tmp_path, grammar):
        _host, payload = self._payload(grammar)
        path = str(tmp_path / "a.llt")
        with open(path, "wb") as f:
            f.write(encode_artifact(payload, grammar_source=grammar))
        mapped = MappedArtifact(path)
        assert _unmap(mapped.payload) == _unmap(payload)
        assert mapped.grammar_source == grammar
        mapped.close()

    def test_wrong_schema_payload_rejected_at_encode(self):
        with pytest.raises(ArtifactFormatError):
            encode_artifact({"schema": 1}, GRAMMAR)

    def test_rows_are_zero_copy_views(self, tmp_path):
        _host, payload = self._payload(GRAMMAR)
        path = str(tmp_path / "a.llt")
        with open(path, "wb") as f:
            f.write(encode_artifact(payload, GRAMMAR))
        mapped = MappedArtifact(path)
        if not ZERO_COPY:  # pragma: no cover - big-endian fallback
            pytest.skip("platform decodes by copy")
        rows = [r["table"]["edge_index"]
                for r in mapped.payload["analysis"]["records"]]
        rows.append(mapped.payload["lexer"]["edge_lo"])
        assert all(isinstance(row, memoryview) for row in rows)
        mapped.close()


class TestWarmStart:
    def test_mmap_warm_start_and_parse_parity(self, tmp_path):
        cold, _ = _seed(tmp_path)
        warm = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert warm.from_cache
        assert warm.mapped_artifact is not None
        assert cold.parse(SAMPLE).to_sexpr() == warm.parse(SAMPLE).to_sexpr()

    def test_host_from_cache_key_boots_without_source(self, tmp_path):
        cold, _ = _seed(tmp_path)
        host = host_from_cache_key(str(tmp_path), _key(GRAMMAR))
        assert host.from_cache
        assert host.mapped_artifact is not None
        assert host.parse(SAMPLE).to_sexpr() == cold.parse(SAMPLE).to_sexpr()

    def test_host_from_cache_key_missing_entry_raises(self, tmp_path):
        with pytest.raises(ArtifactFormatError):
            host_from_cache_key(str(tmp_path), "0" * 64)

    def test_host_from_cache_key_warns_on_degraded_decision(self, tmp_path):
        host = repro.compile_grammar(GRAMMAR)
        payload = artifact_to_dict(host.grammar, host.analysis,
                                   host.lexer_spec,
                                   grammar_fingerprint(GRAMMAR))
        payload["analysis"]["records"][0]["table"] = {"flipped": "bits"}
        assert ArtifactStore(str(tmp_path)).save(_key(GRAMMAR), payload,
                                                 GRAMMAR)
        with pytest.warns(UserWarning, match="partially corrupt"):
            warm = host_from_cache_key(str(tmp_path), _key(GRAMMAR))
        assert 0 in warm.degraded_decisions
        assert warm.parse(SAMPLE).to_sexpr() == host.parse(SAMPLE).to_sexpr()

    def test_zero_decision_grammar_round_trips(self, tmp_path):
        _seed(tmp_path, ZERO_DECISION)
        warm = repro.compile_grammar(ZERO_DECISION, cache_dir=str(tmp_path))
        assert warm.mapped_artifact is not None
        assert warm.recognize("x = 5 ;")

    def test_lexerless_grammar_round_trips(self, tmp_path):
        _seed(tmp_path, LEXERLESS)
        warm = repro.compile_grammar(LEXERLESS, cache_dir=str(tmp_path))
        assert warm.mapped_artifact is not None
        assert warm.lexer_spec is None
        stream = warm.token_stream_from_types(["A", "B"])
        assert warm.parse(stream) is not None


def _assert_evicted_and_recompiled(tmp_path, grammar=GRAMMAR,
                                   check=lambda host: host.recognize(SAMPLE)):
    """The shared tail of every corruption case: the damaged entry is
    CORRUPT-diagnosed, replaced by a fresh image, and the recompiled
    host works."""
    host = repro.compile_grammar(grammar, cache_dir=str(tmp_path))
    assert not host.from_cache
    assert any(d.kind == CacheDiagnostic.CORRUPT
               for d in host.cache_diagnostics)
    assert check(host)
    # Fresh image published; it maps clean.
    mapped = MappedArtifact(_llt_path(tmp_path, grammar))
    mapped.close()


class TestCorruptionMatrix:
    """Each damage mode must be detected at map time and route through
    evict-and-recompile — never a crash, never silent misbehavior."""

    def test_truncated_header(self, tmp_path):
        _, path = _seed(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:20])
        _assert_evicted_and_recompiled(tmp_path)

    def test_empty_file(self, tmp_path):
        _, path = _seed(tmp_path)
        with open(path, "wb"):
            pass
        _assert_evicted_and_recompiled(tmp_path)

    def test_bad_magic(self, tmp_path):
        _, path = _seed(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:len(MAGIC)] = b"\x00" * len(MAGIC)
        with open(path, "wb") as f:
            f.write(blob)
        _assert_evicted_and_recompiled(tmp_path)

    def test_wrong_container_version(self, tmp_path):
        _, path = _seed(tmp_path)
        blob = bytearray(open(path, "rb").read())
        struct.pack_into("<I", blob, 8, LLT_FORMAT_VERSION + 1)
        with open(path, "wb") as f:
            f.write(blob)
        _assert_evicted_and_recompiled(tmp_path)

    def test_wrong_table_format_version(self, tmp_path):
        _, path = _seed(tmp_path)
        blob = bytearray(open(path, "rb").read())
        struct.pack_into("<I", blob, 12, 999)  # TABLE_FORMAT_VERSION slot
        with open(path, "wb") as f:
            f.write(blob)
        _assert_evicted_and_recompiled(tmp_path)

    def test_mid_section_truncation(self, tmp_path):
        _, path = _seed(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:len(blob) * 3 // 4])
        _assert_evicted_and_recompiled(tmp_path)

    def test_single_byte_flip_fails_checksum(self, tmp_path):
        _, path = _seed(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        with open(path, "wb") as f:
            f.write(blob)
        _assert_evicted_and_recompiled(tmp_path)

    def test_byte_flip_zero_decision_grammar(self, tmp_path):
        _, path = _seed(tmp_path, ZERO_DECISION)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as f:
            f.write(blob)
        _assert_evicted_and_recompiled(
            tmp_path, ZERO_DECISION, check=lambda h: h.recognize("x = 5 ;"))

    def test_byte_flip_lexerless_grammar(self, tmp_path):
        _, path = _seed(tmp_path, LEXERLESS)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x10
        with open(path, "wb") as f:
            f.write(blob)
        _assert_evicted_and_recompiled(
            tmp_path, LEXERLESS,
            check=lambda h: h.parse(h.token_stream_from_types(["A", "C"]))
            is not None)

    def test_corrupt_sidecar_evicts_json_too(self, tmp_path):
        """The pair is evicted together: after a sidecar failure nothing
        of the old entry survives to shadow the recompile."""
        _, path = _seed(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        with open(path, "wb") as f:
            f.write(blob)
        store = ArtifactStore(str(tmp_path), sweep_orphans=False)
        assert store.load_mapped(_key(GRAMMAR)) is None
        assert not os.path.exists(store.path_for(_key(GRAMMAR)))
        assert any(d.kind == CacheDiagnostic.CORRUPT
                   for d in store.diagnostics)


class TestSubJsonCorruption:
    """Checksum-valid images whose *table payloads* are damaged must be
    classified ``corrupt`` (typed ArtifactFormatError), not ``stale`` —
    the pre-hardening behavior lumped both together."""

    def _seed_image(self, tmp_path, mutate):
        host = repro.compile_grammar(GRAMMAR)
        payload = artifact_to_dict(host.grammar, host.analysis,
                                   host.lexer_spec,
                                   grammar_fingerprint(GRAMMAR))
        mutate(payload)
        with open(_llt_path(tmp_path, GRAMMAR), "wb") as f:
            f.write(encode_artifact(payload, GRAMMAR))

    def _assert_corrupt_kind(self, tmp_path):
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not host.from_cache
        kinds = [d.kind for d in host.cache_diagnostics]
        assert CacheDiagnostic.CORRUPT in kinds
        assert CacheDiagnostic.STALE not in kinds
        assert host.recognize(SAMPLE)

    def test_table_version_skew_is_corrupt(self, tmp_path):
        def mutate(payload):
            payload["analysis"]["table_version"] = 999
        self._seed_image(tmp_path, mutate)
        self._assert_corrupt_kind(tmp_path)

    def test_duplicate_pool_entries_are_corrupt(self, tmp_path):
        def mutate(payload):
            dup = {"op": "pred", "pred": {"code": "x > 0"}}
            payload["analysis"]["pool"]["contexts"] = [dup, dup]
        self._seed_image(tmp_path, mutate)
        self._assert_corrupt_kind(tmp_path)

    def test_grammar_text_mismatch_stays_stale(self, tmp_path):
        """Contrast case: an entry that belongs to *different text* is
        ``stale``, not ``corrupt`` — nothing is damaged."""
        def mutate(payload):
            payload["grammar_hash"] = "0" * 64
        self._seed_image(tmp_path, mutate)
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(tmp_path))
        assert not host.from_cache
        assert any(d.kind == CacheDiagnostic.STALE
                   for d in host.cache_diagnostics)


class TestReadOnlyStore:
    def test_save_is_noop_with_no_orphans(self, tmp_path):
        """An unwritable cache directory must not fail the compile and
        must leave no ``.tmp`` or ``.llt`` debris anywhere."""
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")  # makedirs/mkstemp both fail
        host = repro.compile_grammar(GRAMMAR, cache_dir=str(blocker))
        assert host.recognize(SAMPLE)
        assert sorted(os.listdir(str(tmp_path))) == ["cache"]

    def test_save_sidecar_reports_failure(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        store = ArtifactStore(str(blocker), sweep_orphans=False)
        host = repro.compile_grammar(GRAMMAR)
        payload = artifact_to_dict(host.grammar, host.analysis,
                                   host.lexer_spec,
                                   grammar_fingerprint(GRAMMAR))
        assert store.save("k" * 64, payload, GRAMMAR) is False
        assert sorted(os.listdir(str(tmp_path))) == ["cache"]
