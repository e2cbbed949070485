"""The compiled-artifact image (``.llt``): one checksummed file per entry.

The image is the only on-disk form of a compiled grammar.  It holds the
artifact payload (:func:`repro.cache.serialize.artifact_to_dict`) and
the grammar source in one contiguous buffer that loads by ``mmap``:

* all flat-table arrays (the decision tables' CSR rows, the lexer
  table's range rows — everything :data:`ARRAY_KEYS` names) are stored
  as raw little-endian int32 sections, 8-byte aligned, and come back as
  zero-copy ``memoryview`` slices over the mapping;
* everything else — grammar hash/name, the interned semantic-context
  pool, record kinds, diagnostics, lexer accept labels, and the grammar
  source text — rides in one small JSON ``meta`` blob whose array
  fields are replaced by ``{"$sec": n}`` section references.

Because the arrays are never parsed or copied, N pool workers mapping
the same file share one physical page-cache copy; per-worker private
memory is only the (lazily built) execution indexes of the decisions a
worker actually exercises.  Because the source rides along, a process
holding only the file (a batch pool worker keyed by artifact hash) can
rebuild the full :class:`~repro.api.ParserHost`.

Integrity is a CRC32 over the entire file (header included, with the
checksum field zeroed during computation): any single flipped or
truncated byte fails the load with a typed
:class:`~repro.exceptions.ArtifactFormatError`, which the store maps to
evict-and-recompile.  The CRC detects accidental damage, not tampering;
loaders skip the O(n) structural table validation and rely on it.

Layout (all integers little-endian)::

    header   56 bytes: magic, llt format version, TABLE_FORMAT_VERSION,
             SCHEMA_VERSION, section count, crc32, meta offset/length,
             section-table offset
    sections table  n * (offset u64, element count u64)
    meta     UTF-8 JSON
    sections raw int32 arrays, each 8-byte aligned

Version-bump rules: :data:`LLT_FORMAT_VERSION` gates the *container*
(header/section layout); ``TABLE_FORMAT_VERSION`` and ``SCHEMA_VERSION``
gate the *content*.  A reader rejects any mismatch and there is no
upgrade path: the cache is pure, so the store evicts a mismatched image
and the next compile rewrites it.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import List

from repro.cache.serialize import SCHEMA_VERSION
from repro.exceptions import ArtifactFormatError
from repro.tables.tableset import TABLE_FORMAT_VERSION

#: First 8 bytes of every ``.llt`` file.  PNG-style: a high bit to catch
#: 7-bit transports, "LLT", CRLF/LF to catch newline translation, ^Z to
#: stop accidental ``type`` on Windows.
MAGIC = b"\x93LLT\r\n\x1a\n"

#: Container-format version (header + section-table layout).
LLT_FORMAT_VERSION = 1

#: Payload dict keys whose int-list values are lifted out of the JSON
#: meta into raw binary sections.  These are exactly the CSR/range
#: arrays of :class:`~repro.tables.lookahead.DecisionTable` and
#: :class:`~repro.tables.lexer.LexerTable` (plus the small cold int
#: lists that share their shape).
ARRAY_KEYS = frozenset({
    "edge_index", "edge_keys", "edge_targets", "accept_alt",
    "pred_index", "pred_ctx", "pred_alt", "pred_target",
    "overflow_states", "resolved_alts",
    "edge_lo", "edge_hi", "accept_idx",
})

# magic, llt_format, table_version, schema, n_sections, crc32,
# meta_off, meta_len, sections_table_off, 4 pad bytes -> 56 bytes.
_HEADER = struct.Struct("<8sIIIIIQQQ4x")
_CRC_FIELD = (24, 28)  # byte span of the crc32 field inside the header
_SECTION = struct.Struct("<QQ")

#: True when this interpreter can alias the file's little-endian int32
#: sections directly via ``memoryview.cast`` (every supported platform
#: in practice); big-endian hosts fall back to a copying decode.
ZERO_COPY = sys.byteorder == "little" and struct.calcsize("i") == 4


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _strip_arrays(obj, sections: List[array]):
    """Deep-copy ``obj`` with every :data:`ARRAY_KEYS` int list replaced
    by a ``{"$sec": n}`` reference into ``sections``."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if key in ARRAY_KEYS and isinstance(value, (list, tuple, memoryview)):
                out[key] = {"$sec": len(sections)}
                sections.append(array("i", value))
            else:
                out[key] = _strip_arrays(value, sections)
        return out
    if isinstance(obj, list):
        return [_strip_arrays(item, sections) for item in obj]
    return obj


def encode_artifact(payload: dict, grammar_source: str) -> bytes:
    """Compile a schema-``SCHEMA_VERSION`` artifact payload and the
    grammar text it was compiled from into one mmap-able ``.llt``
    buffer."""
    if payload.get("schema") != SCHEMA_VERSION:
        raise ArtifactFormatError(
            "can only encode schema %d payloads, got %r"
            % (SCHEMA_VERSION, payload.get("schema")))
    sections: List[array] = []
    meta = {
        "payload": _strip_arrays(payload, sections),
        "grammar_source": grammar_source,
    }
    meta_bytes = json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
    if sys.byteorder != "little":  # files are little-endian on disk
        for section in sections:
            section.byteswap()

    sections_table_off = _HEADER.size
    meta_off = sections_table_off + len(sections) * _SECTION.size
    cursor = _align8(meta_off + len(meta_bytes))
    entries = []
    for section in sections:
        entries.append((cursor, len(section)))
        cursor = _align8(cursor + 4 * len(section))

    buf = bytearray(cursor)
    _HEADER.pack_into(buf, 0, MAGIC, LLT_FORMAT_VERSION, TABLE_FORMAT_VERSION,
                      SCHEMA_VERSION, len(sections), 0, meta_off,
                      len(meta_bytes), sections_table_off)
    for i, (offset, count) in enumerate(entries):
        _SECTION.pack_into(buf, sections_table_off + i * _SECTION.size,
                           offset, count)
    buf[meta_off:meta_off + len(meta_bytes)] = meta_bytes
    for section, (offset, count) in zip(sections, entries):
        buf[offset:offset + 4 * count] = section.tobytes()
    struct.pack_into("<I", buf, _CRC_FIELD[0], _file_crc(buf))
    return bytes(buf)


def _file_crc(buf) -> int:
    """CRC32 of the whole buffer with the header's crc field zeroed."""
    view = memoryview(buf)
    crc = zlib.crc32(view[:_CRC_FIELD[0]])
    crc = zlib.crc32(b"\x00\x00\x00\x00", crc)
    return zlib.crc32(view[_CRC_FIELD[1]:], crc)


class MappedArtifact:
    """A ``.llt`` file mapped read-only, decoded to a payload dict whose
    flat-table arrays are zero-copy ``memoryview`` slices of the map,
    plus the grammar source it was compiled from.

    Construction verifies the container end to end (magic, versions,
    bounds, whole-file CRC32, payload and source present) and raises
    :class:`~repro.exceptions.ArtifactFormatError` on any damage, so a
    successfully constructed instance is safe to execute without
    re-validating table structure.  The instance keeps the mapping
    alive for as long as its payload views are referenced; ``close()``
    drops the payload and releases the map best-effort (a map with live
    exported views stays open until they are garbage collected — the OS
    shares the pages either way).
    """

    __slots__ = ("path", "size", "payload", "grammar_source", "zero_copy",
                 "_mmap", "_view", "_section_spans")

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as f:
            try:
                self._mmap = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                raise ArtifactFormatError(
                    "empty mapped artifact %s" % os.path.basename(path))
        self.size = len(self._mmap)
        self._view = memoryview(self._mmap)
        self.zero_copy = ZERO_COPY
        try:
            meta = self._decode_container()
            self.payload = meta.get("payload")
            self.grammar_source = meta.get("grammar_source")
            if not isinstance(self.payload, dict):
                raise self._fail("no payload")
            if not isinstance(self.grammar_source, str):
                raise self._fail("no grammar source")
        except BaseException:
            self.close()
            raise

    # -- container decoding ------------------------------------------------------

    def _fail(self, detail: str) -> ArtifactFormatError:
        return ArtifactFormatError(
            "mapped artifact %s: %s" % (os.path.basename(self.path), detail))

    def _decode_container(self) -> dict:
        if self.size < _HEADER.size:
            raise self._fail("truncated header (%d bytes)" % self.size)
        (magic, llt_format, table_version, schema, n_sections, crc,
         meta_off, meta_len, sections_off) = _HEADER.unpack_from(self._view, 0)
        if magic != MAGIC:
            raise self._fail("bad magic %r" % magic)
        if llt_format != LLT_FORMAT_VERSION:
            raise self._fail("container format %d != %d"
                             % (llt_format, LLT_FORMAT_VERSION))
        if table_version != TABLE_FORMAT_VERSION:
            raise self._fail("table format %d != %d"
                             % (table_version, TABLE_FORMAT_VERSION))
        if schema != SCHEMA_VERSION:
            raise self._fail("schema %d != %d" % (schema, SCHEMA_VERSION))
        if sections_off + n_sections * _SECTION.size > self.size:
            raise self._fail("section table out of bounds")
        if meta_off + meta_len > self.size:
            raise self._fail("meta out of bounds")
        if _file_crc(self._view) != crc:
            raise self._fail("checksum mismatch (damaged or truncated file)")
        sections = []
        for i in range(n_sections):
            offset, count = _SECTION.unpack_from(
                self._view, sections_off + i * _SECTION.size)
            if offset + 4 * count > self.size:
                raise self._fail("section %d out of bounds" % i)
            sections.append(self._view[offset:offset + 4 * count])
        self._section_spans = sections
        # Section placeholders are substituted during the JSON parse
        # itself (object_hook fires bottom-up on every decoded dict), so
        # the meta tree is walked exactly once, in the C decoder's loop.
        try:
            meta = json.loads(bytes(self._view[meta_off:meta_off + meta_len]),
                              object_hook=self._graft_section)
        except ValueError as e:
            raise self._fail("unreadable meta (%s)" % e)
        return meta

    def _graft_section(self, obj: dict):
        if len(obj) != 1 or "$sec" not in obj:
            return obj
        index = obj["$sec"]
        if not isinstance(index, int) or index < 0:
            raise self._fail("dangling section reference %r" % (index,))
        try:
            raw = self._section_spans[index]
        except IndexError:
            raise self._fail("dangling section reference %r" % (index,))
        if ZERO_COPY:
            return raw.cast("i")
        values = array("i", raw.tobytes())
        values.byteswap()
        return tuple(values)

    def close(self) -> None:
        """Drop the decoded payload and release the mapping best-effort."""
        self.payload = None
        self.grammar_source = None
        try:
            self._view.release()
        except BufferError:
            return  # exported array views still alive; GC will finish
        try:
            self._mmap.close()
        except BufferError:
            pass

    def __repr__(self):
        return "MappedArtifact(%r, %d bytes%s)" % (
            self.path, self.size, ", zero-copy" if self.zero_copy else "")
