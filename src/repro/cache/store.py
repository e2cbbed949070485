"""On-disk store for compiled-grammar artifacts.

Each entry is one ``<key>.llt`` image (:mod:`repro.cache.binary`): the
artifact payload plus the grammar source, checksummed, with its table
arrays ``mmap``-ed zero-copy on warm start.  Entries are keyed by
``(grammar content hash, AnalysisOptions fingerprint, compile flags)``:
editing the grammar text or changing any analysis tunable lands on a
different file name, so stale entries are simply never looked at (and a
sweeper may delete them at will — the directory is a pure cache, safe to
``rm -rf`` between runs).  ``<key>.json`` files written by older versions
are ignored.

Writes are atomic (temp file + ``os.replace``) so a crashed or
concurrent writer can never publish a half-written entry.  Reads are
corruption-tolerant: an image that does not decode — truncated, bit
flipped, or written under another format, table, or schema version — is
evicted and reported as a miss; a bad cache file must never make
:func:`repro.api.compile_grammar` fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import List, Optional

from repro.analysis.construction import AnalysisOptions
from repro.cache.binary import MappedArtifact, encode_artifact
from repro.cache.serialize import grammar_fingerprint
from repro.exceptions import ArtifactFormatError


class CacheDiagnostic:
    """One cache-health event: why a stored entry could not be used.

    ``corrupt``: the image existed but did not decode (bad magic,
    checksum mismatch, out-of-bounds section, container/table/schema
    version skew) or its payload failed to graft onto the grammar
    (table version skew, duplicate pool entries); ``stale``: it decoded
    but belongs to other grammar text.  Both evict the entry and fall
    back to a cold compile — the diagnostic is how tooling distinguishes
    "first compile" from "something damaged the cache".  ``orphan``: a
    ``.tmp`` spill from a writer that died between ``mkstemp`` and the
    atomic ``os.replace``; swept (age-bounded) on store init.

    The serve layer's grammar registry reuses the same diagnostic type
    for its in-memory artifact handling: ``evicted`` (a compiled host
    was dropped to respect the registry's capacity bound) and
    ``load-failed`` (a registered grammar could not be compiled/loaded;
    the failure is cached so a stampede does not recompile a broken
    grammar on every request).
    """

    CORRUPT = "corrupt"
    STALE = "stale"
    ORPHAN = "orphan-temp"
    EVICTED = "evicted"
    LOAD_FAILED = "load-failed"

    __slots__ = ("kind", "key", "detail")

    def __init__(self, kind: str, key: str, detail: str):
        self.kind = kind
        self.key = key
        self.detail = detail

    def __repr__(self):
        return "[cache %s] %s: %s" % (self.kind, self.key[:16], self.detail)


def artifact_key(source: str, name: Optional[str],
                 options: Optional[AnalysisOptions],
                 rewrite_left_recursion: bool = True) -> str:
    """Cache key for one ``compile_grammar`` configuration.

    Covers everything that changes the compiled artifact: grammar text
    (content hash), the analysis tunables, and the left-recursion-rewrite
    flag.  ``strict`` is deliberately excluded — it does not change the
    result, only whether errors raise.  The format versions are
    deliberately *not* part of the key either: the image header carries
    them, and a mismatch evicts the entry at load time instead of
    orphaning it under a dead key.
    """
    opts = options or AnalysisOptions()
    material = json.dumps({
        "grammar": grammar_fingerprint(source, name),
        "options": opts.fingerprint(),
        "rewrite_left_recursion": rewrite_left_recursion,
    }, sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ArtifactStore:
    """A directory of ``<key>.llt`` compiled-artifact images.

    ``telemetry`` (a :class:`~repro.runtime.telemetry.ParseTelemetry`)
    counts each store operation — hit, miss, save, evict, and every
    :class:`CacheDiagnostic` kind — in ``llstar_cache_events_total{op=...}``;
    what a diagnostic was about stays in :attr:`diagnostics`.
    """

    #: A ``.tmp`` spill younger than this is assumed to belong to a
    #: still-running concurrent writer and is left alone; older ones are
    #: orphans from a writer that died mid-publish and are swept.
    ORPHAN_TMP_AGE_SECONDS = 3600.0

    def __init__(self, cache_dir: str, telemetry=None,
                 sweep_orphans: bool = True,
                 orphan_age_seconds: Optional[float] = None):
        self.cache_dir = cache_dir
        self.telemetry = telemetry
        #: Health events from this store instance's loads (see
        #: :class:`CacheDiagnostic`); purely informational.
        self.diagnostics: List[CacheDiagnostic] = []
        #: Orphaned temp files removed by this instance's init sweep.
        self.orphans_swept = 0
        if sweep_orphans:
            age = (self.ORPHAN_TMP_AGE_SECONDS if orphan_age_seconds is None
                   else orphan_age_seconds)
            self._sweep_orphan_temps(age)

    def path_for(self, key: str) -> str:
        """Path of the ``.llt`` image for ``key``."""
        return os.path.join(self.cache_dir, key + ".llt")

    def note(self, kind: str, key: str, detail: str) -> CacheDiagnostic:
        d = CacheDiagnostic(kind, key, detail)
        self.diagnostics.append(d)
        self._record(kind)
        return d

    def _record(self, operation: str) -> None:
        if self.telemetry is not None:
            self.telemetry.record_cache(operation)

    def _sweep_orphan_temps(self, max_age_seconds: float) -> int:
        """Delete ``.tmp`` spills abandoned by a writer that died between
        ``mkstemp`` and ``os.replace`` in :meth:`save`.

        Age-bounded so an in-flight concurrent write is never yanked out
        from under its owner.  Best-effort (an unreadable directory is a
        no-op); every removal lands in :attr:`diagnostics` and the
        telemetry cache counter so operators can tell "clean start" from
        "writers keep crashing here".
        """
        try:
            entries = os.listdir(self.cache_dir)
        except OSError:
            return 0
        cutoff = time.time() - max_age_seconds
        swept = 0
        for entry in entries:
            if not entry.endswith(".tmp"):
                continue
            path = os.path.join(self.cache_dir, entry)
            try:
                if os.stat(path).st_mtime > cutoff:
                    continue
                os.unlink(path)
            except OSError:
                continue  # raced with its owner or a concurrent sweeper
            swept += 1
            self.note(CacheDiagnostic.ORPHAN, entry,
                      "stale temp file from an interrupted write; removed")
        self.orphans_swept = swept
        return swept

    def load_mapped(self, key: str) -> Optional[MappedArtifact]:
        """Map the image for ``key``; None on a miss *or* any corruption.

        An image that exists but does not decode (truncated, bad magic,
        checksum mismatch, unknown version) is evicted so the next
        compile rewrites it, and reported as ``corrupt`` in
        :attr:`diagnostics`; no exception escapes.
        """
        try:
            mapped = MappedArtifact(self.path_for(key))
        except FileNotFoundError:
            self._record("miss")
            return None
        except (OSError, ArtifactFormatError) as e:
            self.note(CacheDiagnostic.CORRUPT, key,
                      "unusable image (%s); evicted"
                      % (e if isinstance(e, ArtifactFormatError)
                         else e.__class__.__name__))
            self.evict(key)
            return None
        self._record("hit")
        return mapped

    def save(self, key: str, payload: dict, source: str) -> bool:
        """Atomically publish ``payload`` and the grammar ``source`` as
        the image for ``key``; True when it was published.

        Best-effort: an unwritable cache directory or a payload the codec
        cannot flatten returns False instead of raising (the compile
        already succeeded; caching must not break it).
        """
        try:
            blob = encode_artifact(payload, source)
        except (TypeError, ValueError, OverflowError):
            return False
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=".%s." % key[:16], suffix=".tmp", dir=self.cache_dir)
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(blob)
                os.replace(tmp_path, self.path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        self._record("save")
        return True

    def evict(self, key: str) -> None:
        """Remove the image for ``key`` so the recompile that follows
        republishes it."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            return
        self._record("evict")

    def __repr__(self):
        return "ArtifactStore(%r)" % self.cache_dir
