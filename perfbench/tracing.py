"""Traced runs: spans around each layer's public functions, GC pauses.

Spans are recorded from the benchmark's own files: :meth:`Tracer.install`
replaces public functions at each layer boundary with timing wrappers
(in the defining module and in every loaded ``repro`` module that
imported the name), and :meth:`Tracer.uninstall` puts them back.  No
program file changes.  Spans are aggregated as they close, per phase
(``setup``, ``run``, ``verify``) and per tag (the grammar an operation
used): count, total time and self time, where self time is a span's
duration minus the time its child spans cover.

Per-layer metrics are derived from those spans, from counts the program
already publishes (``BatchReport.metrics``, ``EditStats``, serve
response fields, ``/metrics`` and ``/grammars``), and from GC pauses
seen through ``gc.callbacks``.  Every workload reports every per-layer
metric; a layer a workload does not reach reads 0.  Prediction and
speculation *self time* need spans inside the program (``_adaptive_predict``
is private) and are left for later.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import threading
import time
from typing import Dict, List

from inputs import GRAMMARS

#: (span name, module, attribute path) for every wrapped function.
TARGETS = [
    ("grammar.parse", "repro.grammar.meta_parser", "parse_grammar"),
    ("grammar.leftrec", "repro.grammar.leftrec", "eliminate_left_recursion"),
    ("grammar.validate", "repro.grammar.validation", "validate_grammar"),
    ("atn.build", "repro.atn.builder", "build_atn"),
    ("analysis.create_dfa", "repro.analysis.construction",
     "DecisionAnalyzer.create_dfa"),
    ("lexgen.build", "repro.lexgen.builder", "build_lexer"),
    ("cache.load_mapped", "repro.cache.store", "ArtifactStore.load_mapped"),
    ("cache.analysis_from_dict", "repro.analysis.decisions",
     "AnalysisResult.from_dict"),
    ("cache.lexer_from_artifact", "repro.cache.serialize",
     "lexer_from_artifact"),
    ("host.tokenize", "repro.api", "ParserHost.tokenize"),
    ("parser.parse", "repro.runtime.parser", "LLStarParser.parse"),
    ("profiler.record", "repro.runtime.profiler", "DecisionProfiler.record"),
    ("stream.build", "repro.runtime.token_stream", "ListTokenStream.__init__"),
    ("incremental.edit", "repro.runtime.incremental", "EditSession.edit"),
    ("batch.run", "repro.batch.engine", "BatchEngine.run"),
]
#: Classes whose public methods (or ``record_*`` methods) are all wrapped.
METHOD_GROUPS = [
    ("trees.", "repro.runtime.trees", "TreeBuilder", ""),
    ("telemetry.", "repro.runtime.telemetry", "ParseTelemetry", "record_"),
]
#: Modules imported before patching so ``from x import f`` bindings exist.
PRELOAD = ["repro.api", "repro.batch.engine", "repro.batch.worker",
           "repro.runtime.incremental", "repro.serve", "repro.serve.service",
           "repro.serve.worker", "repro.cache", "repro.analysis.decisions",
           "repro.tools.cli"]

PER_LAYER = [
    # cold compile (batch) and warm boot (serve, edit), per grammar boot
    ("grammar.parse_ms", "ms"), ("grammar.prepare_ms", "ms"),
    ("atn.build_ms", "ms"), ("analysis.decide_ms", "ms"),
    ("analysis.dfa_states", "count"), ("lexgen.build_ms", "ms"),
    ("cache.map_ms", "ms"), ("cache.decode_ms", "ms"),
    ("serve.registry_boots", "count"),
    # parse path
    ("lexgen.tokenize_us_per_token", "us"),
    ("runtime.parser.self_us_per_token", "us"),
    ("runtime.trees.build_us_per_token", "us"),
    ("batch.overhead_ms_per_file", "ms"),
    # prediction and speculation counts
    ("runtime.parser.predictions_per_token", "count"),
    ("runtime.parser.dfa_hit_share", "share"),
    ("runtime.parser.backtrack_share", "share"),
    ("runtime.parser.speculated_tokens_per_token", "count"),
    ("runtime.parser.synpred_match_share", "share"),
] + [("runtime.parser.%s.%s" % (m, g), u) for m, u in (
    ("self_us_per_token", "us"), ("backtrack_share", "share"),
    ("speculated_tokens_per_token", "count")) for g in GRAMMARS] + [
    ("runtime.telemetry.us_per_token", "us"),
    ("runtime.errors.recovered_share", "share"),
    ("runtime.incremental.reuse_share", "share"),
    ("runtime.incremental.relexed_chars_per_edit", "count"),
    ("runtime.incremental.damaged_tokens_per_edit", "count"),
    ("runtime.incremental.cold_reparse_share", "share"),
    ("runtime.incremental.bookkeeping_ms_per_edit", "ms"),
    ("serve.transport_ms", "ms"), ("serve.dispatch_ms", "ms"),
    ("serve.worker_ms", "ms"), ("serve.worker_busy_share", "share"),
    ("gc.pause_ms_per_op", "ms"), ("gc.full_collections", "count"),
    ("gc.live_objects_after_setup", "count"),
] + [("trace.overhead.%s" % m, "share") for m in (
    "setup_s", "tokens_per_s", "requests_per_s", "p50_ms", "p99_ms",
    "peak_rss_mb")]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span and GC recorder for one traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        # (phase, tag) -> span name -> [count, total seconds, self seconds]
        self.spans: Dict[tuple, Dict[str, list]] = {}
        self._phase = "setup"
        self._cur = self.spans.setdefault((self._phase, ""), {})
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._gc_started = 0.0
        self.gc = {}            # phase -> [pause seconds, collections, full]
        self.counts: Dict[str, float] = {}
        self.registries: Dict[str, object] = {}
        self.live_after_setup = 0
        self.dfa_states = 0
        self.serve_trace = None

    # -- phases and tags --------------------------------------------------------

    def phase(self, name: str) -> None:
        self._phase = name
        self.tag("")

    def tag(self, tag: str) -> None:
        self._cur = self.spans.setdefault((self._phase, tag), {})

    def count(self, name: str, by: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        local = self._local
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats = tracer._cur.get(name)
                if stats is None:
                    stats = tracer._cur[name] = [0, 0.0, 0.0]
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
        return span

    def _patch(self, owner, attr: str, name: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(name, raw.__func__))
        else:
            new = self._wrap(name, raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))
        if isinstance(owner, type):
            return
        # Rebind ``from module import fn`` copies in other repro modules.
        for mod_name, mod in list(sys.modules.items()):
            if (mod is not owner and mod_name.startswith("repro")
                    and getattr(mod, attr, None) is raw):
                setattr(mod, attr, new)
                self._patches.append((mod, attr, raw))

    def install(self) -> None:
        for module in PRELOAD:
            importlib.import_module(module)
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, name)
        for prefix, module, cls_name, method_prefix in METHOD_GROUPS:
            cls = getattr(importlib.import_module(module), cls_name)
            for attr, value in list(cls.__dict__.items()):
                if (callable(value) and not attr.startswith("_")
                        and attr.startswith(method_prefix)):
                    self._patch(cls, attr, prefix + attr)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        stats = self.gc.setdefault(self._phase, [0.0, 0, 0])
        stats[0] += time.perf_counter() - self._gc_started
        stats[1] += 1
        if info.get("generation") == 2:
            stats[2] += 1

    # -- workload hooks ---------------------------------------------------------

    def after_setup(self, hosts_by_grammar) -> None:
        """Record live objects and DFA states once set-up is done."""
        gc.collect()
        self.live_after_setup = len(gc.get_objects())
        for item in hosts_by_grammar.values():
            host = getattr(item, "host", item)
            self.dfa_states += sum(r.table.n_states
                                   for r in host.analysis.records)

    def count_report(self, grammar: str, report) -> None:
        """Fold one ``BatchReport``'s metrics into the grammar's totals."""
        from repro.runtime.telemetry import MetricsRegistry

        reg = self.registries.get(grammar)
        if reg is None:
            reg = self.registries[grammar] = MetricsRegistry()
        reg.merge(report.metrics)
        self.count("files", len(report.results))
        self.count("tokens", report.total_tokens)
        self.count("tokens." + grammar, report.total_tokens)

    def count_edit(self, session) -> None:
        st = session.stats
        self.count("edits")
        self.count("reused_tokens", st.reused_tokens)
        self.count("total_tokens", st.total_tokens)
        self.count("relexed_chars", st.relexed_chars)
        self.count("damaged_tokens", st.damaged_tokens)
        if st.reused_nodes == 0:
            self.count("cold_reparses")
        if session.errors:
            self.count("recovered")

    def serve_samples(self, samples, wall: float, trace_file: str) -> None:
        transport = dispatch = worker = 0.0
        n = recovered = 0
        for s in samples:
            doc = s["doc"]
            if not doc or "service_elapsed" not in doc:
                continue
            n += 1
            transport += s["latency"] - doc["service_elapsed"]
            dispatch += doc["service_elapsed"] - doc["elapsed"]
            worker += doc["elapsed"]
            if doc.get("syntax_errors"):
                recovered += 1
        self.counts.update(serve_n=n, serve_transport=transport,
                           serve_dispatch=dispatch, serve_worker=worker,
                           recovered=recovered, serve_wall=wall)
        with open(trace_file) as f:
            self.serve_trace = json.load(f)

    # -- derivation -------------------------------------------------------------

    def _sum(self, phase: str, prefix: str, field: int = 2, tag=None) -> float:
        total = 0.0
        for (ph, tg), spans in self.spans.items():
            if ph != phase or (tag is not None and tg != tag):
                continue
            for name, stats in spans.items():
                if name == prefix or (prefix.endswith(".")
                                      and name.startswith(prefix)):
                    total += stats[field]
        return total

    def _calls(self, phase: str, name: str) -> int:
        return sum(spans.get(name, [0])[0]
                   for (ph, _t), spans in self.spans.items() if ph == phase)

    def per_layer(self, result, baseline) -> dict:
        v = {name: 0.0 for name, _u in PER_LAYER}
        c = self.counts

        def div(a, b):
            return a / b if b else 0.0

        # Boot layers: the set-up phase of batch (cold) and edit (warm);
        # serve reads them from the server process's own trace.
        boot = self
        boot_phase = "setup"
        if self.serve_trace is not None:
            boot = _Remote(self.serve_trace)
            boot_phase = "all"
        boots = boot._calls(boot_phase, "grammar.parse")
        ms = 1e3
        v["grammar.parse_ms"] = div(boot._sum(boot_phase, "grammar.parse"), boots) * ms
        v["grammar.prepare_ms"] = div(
            boot._sum(boot_phase, "grammar.leftrec")
            + boot._sum(boot_phase, "grammar.validate"), boots) * ms
        v["atn.build_ms"] = div(boot._sum(boot_phase, "atn.build"), boots) * ms
        v["analysis.decide_ms"] = div(
            boot._sum(boot_phase, "analysis.create_dfa"), boots) * ms
        v["lexgen.build_ms"] = div(boot._sum(boot_phase, "lexgen.build"), boots) * ms
        v["cache.map_ms"] = div(boot._sum(boot_phase, "cache.load_mapped"), boots) * ms
        v["cache.decode_ms"] = div(
            boot._sum(boot_phase, "cache.analysis_from_dict")
            + boot._sum(boot_phase, "cache.lexer_from_artifact"), boots) * ms
        v["analysis.dfa_states"] = (self.dfa_states if self.serve_trace is None
                                    else self.serve_trace["dfa_states"])

        # Parse path: tokens parsed (batch) or kept parsed per keystroke
        # (edit); serve parses in its untraced pool worker.
        tokens = c.get("tokens", 0) or c.get("total_tokens", 0)
        us = 1e6
        v["lexgen.tokenize_us_per_token"] = div(
            self._sum("run", "host.tokenize", field=1), tokens) * us
        v["runtime.parser.self_us_per_token"] = div(
            self._sum("run", "parser.parse"), tokens) * us
        v["runtime.trees.build_us_per_token"] = div(
            self._sum("run", "trees."), tokens) * us
        v["batch.overhead_ms_per_file"] = div(
            self._sum("run", "batch.run"), c.get("files", 0)) * ms
        v["runtime.telemetry.us_per_token"] = div(
            self._sum("run", "telemetry.") + self._sum("run", "profiler.record"),
            tokens) * us
        totals = _PredictionCounts()
        for g, reg in self.registries.items():
            one = _PredictionCounts(reg)
            totals.add(one)
            gt = c.get("tokens." + g, 0)
            v["runtime.parser.self_us_per_token." + g] = div(
                self._sum("run", "parser.parse", tag=g), gt) * us
            v["runtime.parser.backtrack_share." + g] = div(
                one.backtracks, one.predictions)
            v["runtime.parser.speculated_tokens_per_token." + g] = div(
                one.speculated, gt)
        v["runtime.parser.predictions_per_token"] = div(totals.predictions, tokens)
        v["runtime.parser.dfa_hit_share"] = div(totals.dfa_hits, totals.predictions)
        v["runtime.parser.backtrack_share"] = div(totals.backtracks,
                                                  totals.predictions)
        v["runtime.parser.speculated_tokens_per_token"] = div(totals.speculated,
                                                              tokens)
        v["runtime.parser.synpred_match_share"] = div(
            totals.synpred_matched, totals.synpred_matched + totals.synpred_failed)

        # Recovery, incremental (edit) and serve layers.
        v["runtime.errors.recovered_share"] = div(c.get("recovered", 0),
                                                  result.attempted)
        edits = c.get("edits", 0)
        v["runtime.incremental.reuse_share"] = div(c.get("reused_tokens", 0),
                                                   c.get("total_tokens", 0))
        v["runtime.incremental.relexed_chars_per_edit"] = div(
            c.get("relexed_chars", 0), edits)
        v["runtime.incremental.damaged_tokens_per_edit"] = div(
            c.get("damaged_tokens", 0), edits)
        v["runtime.incremental.cold_reparse_share"] = div(
            c.get("cold_reparses", 0), edits)
        # Bookkeeping is what an edit spends outside parsing and tree
        # building: relexing the damage window, splicing token records,
        # harvesting reuse candidates (``EditSession.edit`` self time),
        # and rebuilding the whole ``ListTokenStream`` on every edit.
        v["runtime.incremental.bookkeeping_ms_per_edit"] = div(
            self._sum("run", "incremental.edit")
            + self._sum("run", "stream.build"), edits) * ms
        n = c.get("serve_n", 0)
        v["serve.transport_ms"] = div(c.get("serve_transport", 0), n) * ms
        v["serve.dispatch_ms"] = div(c.get("serve_dispatch", 0), n) * ms
        v["serve.worker_ms"] = div(c.get("serve_worker", 0), n) * ms
        v["serve.worker_busy_share"] = div(c.get("serve_worker", 0),
                                           c.get("serve_wall", 0))
        v["serve.registry_boots"] = c.get("registry_boots", 0)

        # GC: the run phase of this process, or of the server for serve.
        if self.serve_trace is not None:
            pause, _n, full = self.serve_trace["gc_run"]
            v["gc.live_objects_after_setup"] = self.serve_trace["live_after_setup"]
        else:
            pause, _n, full = self.gc.get("run", [0.0, 0, 0])
            v["gc.live_objects_after_setup"] = self.live_after_setup
        v["gc.pause_ms_per_op"] = div(pause, result.attempted) * ms
        v["gc.full_collections"] = full

        # Tracing overhead: how much worse the traced value is than the
        # untraced one, as a share of the untraced value.
        reported = result.metrics()
        for name in ("setup_s", "tokens_per_s", "requests_per_s", "p50_ms",
                     "p99_ms", "peak_rss_mb"):
            traced, plain = reported[name]["value"], baseline[name]["value"]
            if name.endswith("_per_s"):
                traced, plain = plain, traced
            v["trace.overhead." + name] = div(traced, plain) - 1.0
        units = dict(PER_LAYER)
        return {name: {"value": float(value), "unit": units[name]}
                for name, value in v.items()}

    def report_lines(self, metrics: dict) -> List[str]:
        lines = ["per-layer (traced run of %s):" % self.workload]
        for name, m in metrics.items():
            lines.append("  %-52s %14.6g %s" % (name, m["value"], m["unit"]))
        return lines


class _Remote:
    """Span totals recorded by the traced server process."""

    def __init__(self, data: dict):
        self.spans = data["spans"]

    def _sum(self, _phase, name, field=2):
        return self.spans.get(name, [0, 0.0, 0.0])[field]

    def _calls(self, _phase, name):
        return self.spans.get(name, [0])[0]


class _PredictionCounts:
    def __init__(self, reg=None):
        self.predictions = self.dfa_hits = self.backtracks = 0
        self.speculated = 0.0
        self.synpred_matched = self.synpred_failed = 0
        if reg is None:
            return
        self.predictions = reg.value("llstar_predictions_total")
        self.dfa_hits = reg.value("llstar_dfa_hits_total")
        self.backtracks = reg.value("llstar_backtrack_events_total")
        depth = reg.get("llstar_backtrack_depth")
        self.speculated = depth.sum if depth is not None else 0.0
        self.synpred_matched = reg.value("llstar_synpred_outcomes_total",
                                         {"outcome": "matched"})
        self.synpred_failed = reg.value("llstar_synpred_outcomes_total",
                                        {"outcome": "failed"})

    def add(self, other) -> None:
        for name in ("predictions", "dfa_hits", "backtracks", "speculated",
                     "synpred_matched", "synpred_failed"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
