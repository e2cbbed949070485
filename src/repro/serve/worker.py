"""Parse execution shared by pool workers and the inline fallback.

One request travels as a picklable :class:`ParseTask`; the outcome comes
back as a plain dict (picklable, transport-agnostic).  Pool workers keep
a per-process host cache keyed by grammar fingerprint and warm-start
from the artifact-cache directory the parent already populated — a
worker never runs static analysis for a grammar the parent compiled.

:func:`execute_parse` is the single code path for both execution modes,
so degradation to inline parsing changes *where* a request runs, never
*what* it returns.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from repro.exceptions import LLStarError, WorkerCrashError
from repro.runtime.budget import ParserBudget


class ParseTask:
    """Everything one parse request needs, in picklable form."""

    __slots__ = ("request_id", "grammar_text", "name", "cache_dir",
                 "options", "rule_name", "recover", "budget", "text",
                 "want_tree", "chaos")

    def __init__(self, request_id: str, grammar_text: str,
                 name: Optional[str], cache_dir: Optional[str],
                 text: str, rule_name: Optional[str] = None,
                 recover: bool = True,
                 budget: Optional[ParserBudget] = None,
                 want_tree: bool = False, options=None, chaos=None):
        self.request_id = request_id
        self.grammar_text = grammar_text
        self.name = name
        self.cache_dir = cache_dir
        self.options = options
        self.rule_name = rule_name
        self.recover = recover
        self.budget = budget
        self.text = text
        self.want_tree = want_tree
        self.chaos = chaos


#: Per-worker-process compiled hosts, keyed by grammar fingerprint.
_HOSTS: Dict[str, object] = {}


def _host_for(task: ParseTask):
    from repro.api import compile_grammar
    from repro.cache import grammar_fingerprint

    key = grammar_fingerprint(task.grammar_text, task.name)
    host = _HOSTS.get(key)
    if host is None:
        # With a cache_dir this is a warm start from the artifact the
        # parent's registry compile persisted; without one it is a cold
        # compile, paid once per (grammar, worker process).
        host = compile_grammar(task.grammar_text, name=task.name,
                               options=task.options,
                               cache_dir=task.cache_dir)
        _HOSTS[key] = host
    return host


def execute_parse(task: ParseTask, host=None, telemetry=None,
                  in_worker: bool = False) -> dict:
    """Run one parse task to a plain-dict outcome; never raises for
    input- or budget-level failures (they come back typed in the dict).
    """
    from repro.runtime.parser import ParserOptions

    started = time.perf_counter()
    outcome = {"ok": False, "error_type": None, "error": None,
               "syntax_errors": [], "tokens": 0, "elapsed": 0.0,
               "worker_pid": os.getpid(), "tree": None}
    if task.chaos is not None:
        from repro.runtime.chaos import KILL

        # In a pool worker a KILL fault hard-exits the process here;
        # inline it surfaces as a typed WorkerCrashError outcome so the
        # breaker still sees the crash without losing the service.
        fault = task.chaos.apply_before_parse(task.request_id,
                                              in_worker=in_worker)
        if fault == KILL:
            outcome["error_type"] = WorkerCrashError.__name__
            outcome["error"] = ("injected worker-kill fault on request %s"
                                % task.request_id)
            outcome["elapsed"] = time.perf_counter() - started
            return outcome
    try:
        if host is None:
            host = _host_for(task)
        stream = host.tokenize(task.text)
        outcome["tokens"] = max(0, len(stream.tokens()) - 1)  # minus EOF
        parser = host.parser(stream, options=ParserOptions(
            recover=task.recover, budget=task.budget, telemetry=telemetry,
            build_tree=task.want_tree))
        tree = parser.parse(task.rule_name)
        outcome["syntax_errors"] = [
            "%s: %s" % (e.position, e) for e in parser.errors]
        outcome["ok"] = not parser.errors
        if task.want_tree and tree is not None and not parser.errors:
            outcome["tree"] = tree.to_sexpr()
    except (LLStarError, RecursionError) as e:
        outcome["error_type"] = type(e).__name__
        outcome["error"] = str(e) or type(e).__name__
    outcome["elapsed"] = time.perf_counter() - started
    return outcome


def serve_parse(task: ParseTask) -> dict:
    """Top-level (picklable) pool entry point: warm host + execute."""
    return execute_parse(task, in_worker=True)
