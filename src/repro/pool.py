"""One worker pool for batch and serve.

Static analysis is paid once per grammar, in the parent process (paper
Sections 5-6); a worker process only parses.  This module owns everything
:class:`~repro.batch.BatchEngine` and :class:`~repro.serve.ParseService`
do with worker processes:

* **One boot.**  A worker boots a grammar's host only from its ``.llt``
  image, through :func:`repro.api.host_from_cache_key` given the artifact
  key (:func:`worker_host`), and keeps it for the life of the process.
  No grammar text travels to a worker: a unit of work carries the image
  directory, the key and the compile flags.  The parent always holds the
  host, and before a grammar's first unit of work reaches a worker it
  makes sure the image is on disk, publishing it from that host when it
  is not: into ``cache_dir``, or into a private temporary directory the
  pool removes on :meth:`WorkerPool.close`.
* **One per-input parse.**  :func:`parse_input` runs in workers and
  inline alike: the chaos hook, tokenize, parse, typed failure.  Each
  tier shapes its own rows from what it returns.
* **One supervisor.**  :class:`WorkerPool` owns the
  ``ProcessPoolExecutor`` and one policy.  After a pool death it builds a
  new pool and retries the lost work there; after a second death it
  degrades and runs the lost work, and all later work, inline.  Once
  :data:`RETRY_COOLDOWN` has passed, the next unit of work probes a fresh
  pool, and a probe that comes back clears the degraded mark.  A worker
  that cannot boot (its image vanished) never fails an input: the parent
  republishes the image and retries once, then runs the unit inline.

A unit of work is a picklable task with a ``run(host, in_worker,
telemetry=None)`` method: :class:`repro.batch.worker.ChunkTask` and
:class:`repro.serve.worker.ParseTask`.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections import deque
from concurrent import futures
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional

from repro.api import host_from_cache_key
from repro.cache import ArtifactStore, artifact_key, artifact_to_dict, grammar_fingerprint
from repro.exceptions import ArtifactFormatError, LLStarError, WorkerCrashError
from repro.runtime.chaos import KILL
from repro.runtime.parser import ParserOptions

#: Pool deaths answered by building a new pool; the next one degrades.
REBUILD_LIMIT = 1
#: Seconds a degraded pool runs work inline before probing a fresh pool.
RETRY_COOLDOWN = 30.0
#: Units of work in flight per worker process in :meth:`WorkerPool.map`.
INFLIGHT_PER_WORKER = 2
#: Inline threads of :meth:`WorkerPool.run` while the pool is degraded.
DEGRADED_CONCURRENCY = 2

#: What a pool reports to its listener: a pool died, the pool degraded
#: to inline work (or a recovery probe died), the pool recovered.
DEATH, DEGRADED, RECOVERED = "death", "degraded", "recovered"


class PoolGrammar:
    """One grammar as a pool runs it.

    :attr:`boot` (the artifact key and the compile flags) is all a worker
    is sent to boot the grammar's host; :attr:`text` stays in the parent,
    which publishes the image with it.  The key is computed here, once
    per grammar, not once per unit of work.
    """

    __slots__ = ("text", "name", "boot")

    def __init__(self, text: str, name: Optional[str] = None, options=None,
                 rewrite_left_recursion: bool = True, strict: bool = True):
        self.text = text
        self.name = name
        self.boot = (artifact_key(text, name, options, rewrite_left_recursion),
                     name, options, rewrite_left_recursion, strict)

    @property
    def key(self) -> str:
        return self.boot[0]


# -- the worker side ---------------------------------------------------------------

#: This worker process's hosts, keyed by artifact key.
_HOSTS: Dict[str, object] = {}


def worker_host(image_dir: str, boot: tuple):
    """The host for ``boot`` (:attr:`PoolGrammar.boot`) in this process,
    booted from its image in ``image_dir`` on first use.  Raises
    :class:`~repro.exceptions.ArtifactFormatError` when the image is
    missing or unusable."""
    host = _HOSTS.get(boot[0])
    if host is None:
        host = _HOSTS[boot[0]] = host_from_cache_key(image_dir, *boot)
    return host


class _BootFailed:
    """A worker's answer when the grammar's image could not boot it."""

    __slots__ = ()


def _work(image_dir: str, boot: tuple, task):
    """Pool entry point: boot the grammar's host, run ``task`` on it."""
    try:
        host = worker_host(image_dir, boot)
    except ArtifactFormatError:
        return _BootFailed()
    return task.run(host, True)


class Parsed:
    """One input's parse: tokens lexed (EOF excluded), recovered syntax
    errors, the tree (when built), and a failure as its exception class
    name and message, if any."""

    __slots__ = ("tokens", "errors", "tree", "error_type", "error")

    def __init__(self):
        self.tokens = 0
        self.errors = ()
        self.tree = None
        self.error_type = self.error = None


def parse_input(host, input_id: str, text: str,
                rule_name: Optional[str] = None, recover: bool = False,
                budget=None, telemetry=None, build_tree: bool = False,
                chaos=None, in_worker: bool = False) -> Parsed:
    """The per-input parse of both tiers, in pool workers and inline.

    The chaos hook runs first: a :data:`~repro.runtime.chaos.KILL` fault
    exits a worker process, and inline it becomes a typed
    :class:`~repro.exceptions.WorkerCrashError`.  Lexer, parser and
    budget failures come back in :attr:`Parsed.error_type` and
    :attr:`Parsed.error`, never raised.
    """
    parsed = Parsed()
    if chaos is not None and chaos.apply_before_parse(
            input_id, in_worker=in_worker) == KILL:
        parsed.error_type = WorkerCrashError.__name__
        parsed.error = "injected worker-kill fault on %s" % input_id
        return parsed
    try:
        stream = host.tokenize(text)
        parsed.tokens = max(0, len(stream.tokens()) - 1)  # minus EOF
        parser = host.parser(stream, options=ParserOptions(
            recover=recover, budget=budget, telemetry=telemetry,
            build_tree=build_tree))
        parsed.tree = parser.parse(rule_name)
        parsed.errors = parser.errors
    except (LLStarError, RecursionError) as e:
        parsed.error_type = type(e).__name__
        parsed.error = str(e) or parsed.error_type
    return parsed


# -- the parent side ---------------------------------------------------------------


class WorkerPool:
    """Worker processes for one caller under one crash, degrade and probe
    policy.

    ``jobs``
        Worker processes; ``0`` runs every unit of work inline and
        builds nothing for workers.
    ``cache_dir``
        Where the images workers boot from live.  Without one, or when it
        cannot be written, they go into a private temporary directory.
    ``threads``
        Inline threads of :meth:`run` when ``jobs`` is 0
        (:data:`DEGRADED_CONCURRENCY` while a pool is degraded).
    ``telemetry``
        Passed to units of work that run inline; pooled units parse
        without it.
    ``listener``
        Called as ``listener(kind, reason)`` on each :data:`DEATH`,
        :data:`DEGRADED` and :data:`RECOVERED`.
    ``clock``
        Time source of the retry cooldown.
    """

    def __init__(self, jobs: int, cache_dir: Optional[str] = None,
                 threads: int = DEGRADED_CONCURRENCY, telemetry=None,
                 listener=None, clock=time.monotonic):
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.telemetry = telemetry
        self._threads = threads if jobs == 0 else DEGRADED_CONCURRENCY
        self._listener = listener
        self._clock = clock
        self._executor: Optional[ProcessPoolExecutor] = None
        self._inline = None  # ThreadPoolExecutor of run()
        self._private: Optional[tempfile.TemporaryDirectory] = None
        #: Artifact key -> the directory its image was published in.
        self._images: Dict[str, str] = {}
        #: Pool deaths since the pool last recovered.
        self.deaths = 0
        #: Pools built to replace a dead one.
        self.rebuilds = 0
        #: Times the pool degraded to inline work.
        self.degradations = 0
        self.degraded = False
        self._down_at: Optional[float] = None

    # -- policy -----------------------------------------------------------------

    def _pool(self) -> Optional[ProcessPoolExecutor]:
        """The executor for the next unit of work; None runs it inline."""
        if self.jobs == 0 or (self.degraded and self._clock() - self._down_at
                              < RETRY_COOLDOWN):
            return None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _died(self, executor, error: BaseException) -> None:
        if executor is not self._executor:
            return  # another unit of work already reported this death
        self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)
        self.deaths += 1
        self._notify(DEATH, "worker pool died: %s" % error)
        if self.degraded:
            # The recovery probe died: cool down again.
            self._down_at = self._clock()
            self._notify(DEGRADED, "pool recovery probe failed: %s" % error)
        elif self.deaths > REBUILD_LIMIT:
            self.degraded = True
            self.degradations += 1
            self._down_at = self._clock()
            self._notify(DEGRADED, "worker pool died %d time(s) (last: %s); "
                                   "running work inline" % (self.deaths, error))
        else:
            self.rebuilds += 1

    def _returned(self, executor) -> None:
        """A unit of work came back; from a probe pool, that ends the
        degradation."""
        if self.degraded and executor is self._executor:
            self.degraded = False
            self.deaths = 0
            self._down_at = None
            self._notify(RECOVERED, "worker pool recovered")

    def _notify(self, kind: str, reason: str) -> None:
        if self._listener is not None:
            self._listener(kind, reason)

    # -- images -----------------------------------------------------------------

    def _image_dir(self, grammar: PoolGrammar, host) -> Optional[str]:
        """The directory holding ``grammar``'s image, published from
        ``host`` first when it is not on disk; None when no directory
        can take it.  Publishing takes 5-10 ms for a suite grammar and
        happens once per grammar per pool (again only after a worker
        found the image gone), so serve does it on its event loop."""
        directory = self._images.get(grammar.key)
        if directory is not None:
            return directory
        if self.cache_dir is not None and _publish(self.cache_dir, grammar, host):
            directory = self.cache_dir
        else:
            if self._private is None:
                self._private = tempfile.TemporaryDirectory(prefix="llstar-pool-")
            if not _publish(self._private.name, grammar, host):
                return None
            directory = self._private.name
        self._images[grammar.key] = directory
        return directory

    def _boot_failed(self, grammar: PoolGrammar) -> None:
        """A worker found no usable image for ``grammar``: the next unit
        of work checks the disk again and republishes it if it is gone.
        (A damaged image was already evicted by the worker's load.)"""
        self._images.pop(grammar.key, None)

    # -- execution --------------------------------------------------------------

    def map(self, grammar: PoolGrammar, host, tasks) -> list:
        """Run every task; results come back in task order.

        Submits at most ``jobs x INFLIGHT_PER_WORKER`` tasks at a time.
        Inline tasks (``jobs=0``, or while degraded) run synchronously
        in the caller's thread.
        """
        results = [None] * len(tasks)
        todo = deque(range(len(tasks)))
        while todo:
            executor = self._pool()
            if executor is None:
                index = todo.popleft()
                results[index] = tasks[index].run(host, False, self.telemetry)
            else:
                todo = self._pass(executor, grammar, host, tasks, todo, results)
        return results

    def _pass(self, executor, grammar, host, tasks, todo, results) -> deque:
        """Run ``todo`` on ``executor`` until done or the pool dies;
        returns the indexes still to run, in order."""
        window = self.jobs * INFLIGHT_PER_WORKER
        pending: Dict[object, int] = {}
        retried = set()
        lost = []
        death = None
        while (todo and death is None) or pending:
            while todo and death is None and len(pending) < window:
                index = todo.popleft()
                directory = self._image_dir(grammar, host)
                if directory is None:
                    results[index] = tasks[index].run(host, False, self.telemetry)
                    continue
                try:
                    pending[executor.submit(_work, directory, grammar.boot,
                                            tasks[index])] = index
                except RuntimeError as e:  # died before the submit
                    death = e
                    lost.append(index)
            if not pending:
                break
            done, _ = futures.wait(pending, return_when=futures.FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as e:
                    death = e
                    lost.append(index)
                    continue
                if not isinstance(result, _BootFailed):
                    self._returned(executor)
                    results[index] = result
                    continue
                self._boot_failed(grammar)
                if index in retried:
                    results[index] = tasks[index].run(host, False, self.telemetry)
                else:
                    retried.add(index)
                    todo.appendleft(index)
        if death is not None:
            self._died(executor, death)
        return deque(sorted(lost + list(todo)))

    async def run(self, grammar: PoolGrammar, host, task):
        """Run one task on the pool, or inline on a thread (``jobs=0``,
        while degraded, or when its image cannot boot a worker)."""
        # Imported here: ``import repro`` (batch, edit) must not load
        # asyncio and ssl, which cost ~3.5 MB and ~4k objects per process.
        import asyncio

        retried = False
        while True:
            executor = self._pool()
            if executor is None:
                break
            directory = self._image_dir(grammar, host)
            if directory is None:
                break
            try:
                future = executor.submit(_work, directory, grammar.boot, task)
            except RuntimeError as e:  # died before the submit
                self._died(executor, e)
                continue
            try:
                result = await asyncio.wrap_future(future)
            except BrokenProcessPool as e:
                self._died(executor, e)
                continue
            if not isinstance(result, _BootFailed):
                self._returned(executor)
                return result
            self._boot_failed(grammar)
            if retried:
                break
            retried = True
        if self._inline is None:
            from concurrent.futures import ThreadPoolExecutor

            self._inline = ThreadPoolExecutor(
                max_workers=self._threads, thread_name_prefix="llstar-pool-inline")
        return await asyncio.get_running_loop().run_in_executor(
            self._inline, task.run, host, False, self.telemetry)

    def close(self, wait: bool = False) -> None:
        """Shut the executors down and remove the private image
        directory; idempotent, and a later unit of work starts afresh."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)
        if self._inline is not None:
            self._inline.shutdown(wait=False, cancel_futures=True)
            self._inline = None
        if self._private is not None:
            self._private.cleanup()
            self._private = None
        self._images.clear()


def _publish(directory: str, grammar: PoolGrammar, host) -> bool:
    """True once ``directory`` holds ``grammar``'s image, saving it from
    ``host`` when it is not there."""
    store = ArtifactStore(directory, sweep_orphans=False)
    return os.path.exists(store.path_for(grammar.key)) or store.save(
        grammar.key, artifact_to_dict(
            host.grammar, host.analysis, host.lexer_spec,
            grammar_fingerprint(grammar.text, grammar.name)),
        grammar.text)
