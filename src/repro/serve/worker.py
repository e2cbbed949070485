"""Serve's unit of work for the shared worker pool (:mod:`repro.pool`).

One request travels as a picklable :class:`ParseTask` that carries the
input and the parse settings but no grammar: a pool worker boots the
grammar's host from its artifact key (:func:`repro.pool.worker_host`),
so a worker never runs static analysis.  The outcome comes back as a
plain dict (picklable, transport-agnostic).

:meth:`ParseTask.run` is the one code path of both execution modes, so
degradation to inline parsing changes *where* a request runs, never
*what* it returns.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.pool import parse_input
from repro.runtime.budget import ParserBudget


class ParseTask:
    """Everything one parse request needs besides the grammar's host, in
    picklable form.  ``chaos`` travels with each request, because the
    service arms and disarms it between requests."""

    __slots__ = ("request_id", "text", "rule_name", "recover", "budget",
                 "want_tree", "chaos")

    def __init__(self, request_id: str, text: str,
                 rule_name: Optional[str] = None, recover: bool = True,
                 budget: Optional[ParserBudget] = None,
                 want_tree: bool = False, chaos=None):
        self.request_id = request_id
        self.text = text
        self.rule_name = rule_name
        self.recover = recover
        self.budget = budget
        self.want_tree = want_tree
        self.chaos = chaos

    def run(self, host, in_worker: bool, telemetry=None) -> dict:
        """Parse on ``host`` to a plain-dict outcome; input- and
        budget-level failures come back typed in the dict, never
        raised."""
        started = time.perf_counter()
        parsed = parse_input(
            host, self.request_id, self.text, rule_name=self.rule_name,
            recover=self.recover, budget=self.budget, telemetry=telemetry,
            build_tree=self.want_tree, chaos=self.chaos, in_worker=in_worker)
        outcome = {"ok": False, "error_type": parsed.error_type,
                   "error": parsed.error, "syntax_errors": [],
                   "tokens": parsed.tokens, "elapsed": 0.0,
                   "worker_pid": os.getpid(), "tree": None}
        if parsed.error_type is None:
            outcome["syntax_errors"] = [
                "%s: %s" % (e.position, e) for e in parsed.errors]
            outcome["ok"] = not parsed.errors
            if self.want_tree and parsed.tree is not None and not parsed.errors:
                outcome["tree"] = parsed.tree.to_sexpr()
        outcome["elapsed"] = time.perf_counter() - started
        return outcome
