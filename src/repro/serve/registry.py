"""Multi-grammar registry: lazy, single-flight, capacity-bounded.

Grammar *sources* are registered cheaply (name -> text, plus the
artifact key pool workers boot from, computed once here).  Compiled
:class:`~repro.api.ParserHost` artifacts are built lazily on the first
request that names the grammar, through the PR-1 artifact cache when the
service has a ``cache_dir`` — so the first compile also warms the disk
artifact that pool workers later load in O(cache-read) instead of
re-analyzing.

Robustness properties:

* **Single-flight**: a stampede of N concurrent first requests for one
  grammar runs exactly one compile; the other N-1 await the same future
  (``coalesced`` counter proves it).
* **Negative caching**: a grammar that fails to compile fails *once*;
  the typed :class:`~repro.serve.errors.GrammarLoadError` is cached and
  replayed, with a :class:`~repro.cache.CacheDiagnostic` (``load-failed``)
  recorded — mirroring the PR-2 degraded-cache path.
* **Bounded capacity**: at most ``max_hosts`` compiled hosts stay
  resident (LRU); evictions emit an ``evicted`` diagnostic and a metrics
  counter so operators can see thrash instead of guessing at RSS.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.cache import CacheDiagnostic
from repro.exceptions import ArtifactFormatError
from repro.pool import PoolGrammar
from repro.serve.errors import GrammarLoadError, UnknownGrammarError


class GrammarRegistry:
    """Name-addressed grammar store behind ``llstar serve``."""

    def __init__(self, cache_dir: Optional[str] = None,
                 max_hosts: Optional[int] = None, options=None,
                 telemetry=None):
        if max_hosts is not None and max_hosts < 1:
            raise ValueError("max_hosts must be >= 1 or None")
        self.cache_dir = cache_dir
        self.max_hosts = max_hosts
        self.options = options
        self.telemetry = telemetry
        self._grammars: Dict[str, PoolGrammar] = {}
        self._hosts: "OrderedDict[str, object]" = OrderedDict()  # LRU
        self._failed: Dict[str, GrammarLoadError] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Registry-health events (CacheDiagnostic), newest last.
        self.diagnostics: List[CacheDiagnostic] = []
        self.compiles = 0
        self.coalesced = 0

    # -- registration -----------------------------------------------------------

    def register(self, name: str, grammar_text: str) -> None:
        """Register (or replace) a grammar source.  Replacement clears
        any compiled host and cached failure for the name."""
        if not name:
            raise ValueError("grammar name must be non-empty")
        self._grammars[name] = PoolGrammar(grammar_text, name, self.options)
        self._hosts.pop(name, None)
        self._failed.pop(name, None)

    def names(self) -> List[str]:
        return sorted(self._grammars)

    def grammar(self, name: str) -> PoolGrammar:
        """The registered grammar as the worker pool runs it."""
        try:
            return self._grammars[name]
        except KeyError:
            raise UnknownGrammarError(
                "unknown grammar %r (registered: %s)"
                % (name, ", ".join(self.names()) or "none")) from None

    def source(self, name: str) -> str:
        return self.grammar(name).text

    def status(self) -> dict:
        """JSON-safe registry view for the /grammars endpoint."""
        return {
            "grammars": {
                name: ("ready" if name in self._hosts else
                       "failed" if name in self._failed else
                       "compiling" if name in self._inflight else "lazy")
                for name in self.names()},
            "resident_hosts": len(self._hosts),
            # Hosts whose flat tables are zero-copy views of an mmap-ed
            # ``.llt`` image (shared page cache across processes).
            "mmap_backed_hosts": sum(
                1 for h in self._hosts.values()
                if getattr(h, "mapped_artifact", None) is not None),
            "max_hosts": self.max_hosts,
            "compiles": self.compiles,
            "coalesced": self.coalesced,
            "diagnostics": [repr(d) for d in self.diagnostics[-20:]],
        }

    # -- diagnostics ------------------------------------------------------------

    def _note(self, kind: str, name: str, detail: str) -> None:
        self.diagnostics.append(CacheDiagnostic(kind, name, detail))
        if self.telemetry is not None:
            self.telemetry.record_cache("registry-" + kind)
            self.telemetry.metrics.counter(
                "llstar_serve_registry_events_total",
                "registry artifact-health events",
                labels={"event": kind}).inc()

    # -- host resolution --------------------------------------------------------

    async def host(self, name: str):
        """The compiled host for ``name``; compiles on first use.

        Concurrent callers for the same not-yet-compiled grammar share
        one compile (single-flight).  Raises
        :class:`UnknownGrammarError` / :class:`GrammarLoadError`.
        """
        source = self.source(name)  # raises UnknownGrammarError
        host = self._hosts.get(name)
        if host is not None:
            self._hosts.move_to_end(name)
            return host
        failed = self._failed.get(name)
        if failed is not None:
            raise failed
        future = self._inflight.get(name)
        if future is None:
            # The compile runs as an independent task so that the first
            # caller being cancelled (dropped connection) cannot strand
            # the coalesced waiters on a never-resolved future.
            future = asyncio.ensure_future(self._compile(name, source))
            self._inflight[name] = future
        else:
            self.coalesced += 1
        # Shield: one waiter's cancellation must not kill the compile
        # every other waiter is parked on.
        return await asyncio.shield(future)

    async def _compile(self, name: str, source: str):
        from repro.api import compile_grammar

        loop = asyncio.get_running_loop()
        self.compiles += 1
        try:
            # Compiles run in the default thread executor: static
            # analysis can take hundreds of ms and must not freeze the
            # event loop (health checks keep answering mid-compile).
            host = await loop.run_in_executor(
                None, lambda: compile_grammar(
                    source, name=name, options=self.options,
                    cache_dir=self.cache_dir, telemetry=self.telemetry))
        except ArtifactFormatError as e:
            # A damaged artifact is a cache fault, not a grammar fault:
            # surface it as 422 with a ``corrupt`` diagnostic, but do NOT
            # negative-cache — the store evicted the entry, so the next
            # request recompiles cleanly instead of replaying the error.
            self._note(CacheDiagnostic.CORRUPT, name,
                       "%s: %s" % (type(e).__name__, e))
            error = GrammarLoadError(
                "grammar %r artifact is corrupt: %s" % (name, e))
            error.__cause__ = e
            self._inflight.pop(name, None)
            raise error
        except Exception as e:
            self._note(CacheDiagnostic.LOAD_FAILED, name,
                       "%s: %s" % (type(e).__name__, e))
            error = GrammarLoadError(
                "grammar %r failed to load: %s" % (name, e))
            error.__cause__ = e
            self._failed[name] = error
            self._inflight.pop(name, None)
            raise error
        self._inflight.pop(name, None)
        self._admit_host(name, host)
        return host

    def _admit_host(self, name: str, host) -> None:
        self._hosts[name] = host
        self._hosts.move_to_end(name)
        while self.max_hosts is not None and len(self._hosts) > self.max_hosts:
            evicted, _ = self._hosts.popitem(last=False)
            self._note(CacheDiagnostic.EVICTED, evicted,
                       "capacity %d reached admitting %r"
                       % (self.max_hosts, name))

    def __repr__(self):
        return "GrammarRegistry(%d grammars, %d resident)" % (
            len(self._grammars), len(self._hosts))
