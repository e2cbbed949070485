"""Whole-grammar analysis facade and decision classification.

``analyze(grammar)`` produces an :class:`AnalysisResult`: the ATN, one
:class:`DecisionRecord` per decision (DFA + classification), and all
diagnostics.  Classification buckets follow Table 1 of the paper:

* **fixed** — acyclic DFA with no synpred edges: plain LL(k), with the
  record carrying k;
* **cyclic** — DFA with a cycle but no synpred edges: arbitrary
  regular lookahead, beyond any LL(k);
* **backtrack** — DFA with at least one syntactic-predicate edge: the
  decision *may* speculate at parse time.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.analysis.construction import AnalysisOptions, DecisionAnalyzer
from repro.analysis.dfa_model import DFA
from repro.analysis.diagnostics import AnalysisDiagnostic
from repro.atn.builder import build_atn
from repro.atn.states import ATN
from repro.grammar.model import Grammar
from repro.grammar.transforms import apply_peg_mode, erase_syntactic_predicates
from repro.tables.lookahead import DecisionTable, compile_decision_table
from repro.tables.pool import SemCtxPool
from repro.tables.tableset import TableSet

FIXED = "fixed"
CYCLIC = "cyclic"
BACKTRACK = "backtrack"


class DecisionRecord:
    """One decision's analysis outcome.

    The record holds *two* faces of the same lookahead machine: the
    object-graph :class:`DFA` (the analysis-time representation the
    DecisionAnalyzer builds and the diagnostics/tools walk) and the flat
    :class:`DecisionTable` (the execution core the parser, cache, and
    codegen share).  Either side can be absent and is derived from the
    other on demand — ``compile_decision_table`` going one way,
    ``DecisionTable.to_dfa`` (lossless) going back — so assigning
    :attr:`dfa` always invalidates the table and vice versa.
    """

    def __init__(self, decision: int, rule_name: str, kind: str, dfa: DFA):
        self.decision = decision
        self.rule_name = rule_name
        self.kind = kind  # DecisionKind: rule/block/optional/star/plus
        self._dfa: Optional[DFA] = dfa
        self._table: Optional[DecisionTable] = None
        self._pool: Optional[SemCtxPool] = None
        # Classification is lazy (see the ``category`` property): a warm
        # start materialises hundreds of records whose shape most parses
        # never ask about, and classifying a zero-copy table walks its
        # arrays — i.e. touches mmap pages.  Deferring it keeps warm
        # start O(decisions) dict work with no page faults.
        self._category: Optional[str] = None
        self._fixed_k: Optional[int] = None
        #: True when this record carries a placeholder DFA (its cached
        #: form was unusable); the parser rebuilds the real DFA on first
        #: use via DecisionAnalyzer and calls :meth:`replace_dfa`.
        self.degraded = False

    @classmethod
    def from_table(cls, decision: int, rule_name: str, kind: str,
                   table: DecisionTable) -> "DecisionRecord":
        """Warm-start construction straight from a deserialized table;
        the object-graph DFA is decompiled lazily if anything asks."""
        record = cls.__new__(cls)
        record.decision = decision
        record.rule_name = rule_name
        record.kind = kind
        record._dfa = None
        record._table = table
        record._pool = table.pool
        record._category = None  # classified lazily from table shape
        record._fixed_k = None
        record.degraded = False
        return record

    def _shape(self):
        """Whichever representation exists (both answer the same
        is_cyclic/fixed_k/uses_backtracking shape queries)."""
        return self._dfa if self._dfa is not None else self._table

    def _classify(self) -> str:
        shape = self._shape()
        if shape.uses_backtracking():
            return BACKTRACK
        if shape.is_cyclic():
            return CYCLIC
        return FIXED

    @property
    def category(self) -> str:
        """Table 1 bucket, derived from the machine's shape on first use
        (and then sticky — see the :attr:`dfa` setter)."""
        if self._category is None:
            self._category = self._classify()
            if self._category == FIXED:
                self._fixed_k = self._shape().fixed_k()
        return self._category

    @category.setter
    def category(self, value: str) -> None:
        self._category = value

    @property
    def fixed_k(self) -> Optional[int]:
        """Lookahead depth k for fixed decisions, None otherwise;
        forcing it classifies the record."""
        if self._category is None:
            _ = self.category
        return self._fixed_k

    @fixed_k.setter
    def fixed_k(self, value: Optional[int]) -> None:
        self._fixed_k = value

    # -- the two representations -------------------------------------------------

    @property
    def dfa(self) -> Optional[DFA]:
        if self._dfa is None and self._table is not None:
            self._dfa = self._table.to_dfa()
        return self._dfa

    @dfa.setter
    def dfa(self, dfa: Optional[DFA]) -> None:
        # Direct assignment (degraded-mode tests, tools) must never leave
        # a stale table behind; classification is NOT re-derived here,
        # matching the old plain-attribute semantics — use replace_dfa()
        # for a rebuild that should reclassify.  An unclassified record
        # pins the *outgoing* machine's classification first, so lazy
        # derivation can never silently read the swapped-in machine.
        if self._category is None and (self._dfa is not None
                                       or self._table is not None):
            _ = self.category
        self._dfa = dfa
        self._table = None

    @property
    def table(self) -> Optional[DecisionTable]:
        """The flat execution table, compiled on first use against the
        bound pool (or a private one).  None while the record is a
        degraded shell with no DFA either."""
        if self._table is None and self._dfa is not None:
            if self._pool is None:
                self._pool = SemCtxPool()
            self._table = compile_decision_table(self._dfa, self._pool)
        return self._table

    def bind_pool(self, pool: SemCtxPool) -> None:
        """Intern this record's gates into a shared pool and compile its
        table.  Called serially in decision order by
        :class:`AnalysisResult` so pool indices are deterministic no
        matter how many threads built the DFAs."""
        self._pool = pool
        if self._dfa is not None:
            self._table = compile_decision_table(self._dfa, pool)

    @property
    def can_backtrack(self) -> bool:
        return self.category == BACKTRACK

    def replace_dfa(self, dfa: DFA) -> None:
        """Swap in a freshly built DFA (degraded-mode rebuild at parse
        time) and re-derive the classification from its shape."""
        self.dfa = dfa  # property: invalidates the table
        self.category = self._classify()
        self.fixed_k = dfa.fixed_k() if self.category == FIXED else None
        self.degraded = False

    @classmethod
    def degraded_placeholder(cls, decision: int, rule_name: str, kind: str,
                             num_alternatives: int) -> "DecisionRecord":
        """A record whose DFA is an empty shell (``start`` is None); the
        parser detects it and rebuilds the DFA on first use."""
        record = cls(decision, rule_name, kind,
                     DFA(decision, rule_name, num_alternatives))
        record.degraded = True
        return record

    def to_dict(self) -> dict:
        """JSON-safe form; category/fixed_k are derived, not stored.

        The serialized body is the flat table (pool indices resolve
        against the owning :class:`AnalysisResult`'s shared pool, which
        serializes alongside the records).
        """
        return {
            "decision": self.decision,
            "rule_name": self.rule_name,
            "kind": self.kind,
            "table": self.table.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict, pool: SemCtxPool,
                  validate: bool = True) -> "DecisionRecord":
        # from_table re-classifies from table shape, so a cached record
        # can never disagree with the machine it carries.
        return cls.from_table(data["decision"], data["rule_name"],
                              data["kind"],
                              DecisionTable.from_dict(data["table"], pool,
                                                      validate=validate))

    def __repr__(self):
        extra = " k=%s" % self.fixed_k if self.fixed_k else ""
        return "DecisionRecord(%d in %s: %s%s)" % (
            self.decision, self.rule_name, self.category, extra)


class AnalysisResult:
    """Everything static analysis learned about a grammar."""

    def __init__(self, grammar: Grammar, atn: ATN, records: List[DecisionRecord],
                 diagnostics: List[AnalysisDiagnostic], elapsed_seconds: float,
                 pool: Optional[SemCtxPool] = None):
        self.grammar = grammar
        self.atn = atn
        self.records = records
        self.diagnostics = diagnostics
        self.elapsed_seconds = elapsed_seconds
        #: Shared interned-gate pool for every decision table.  Binding
        #: happens here, serially in decision order, so pool indices (and
        #: therefore serialized payloads) are bit-identical whether the
        #: DFAs were analyzed serially or on N threads.
        self.pool = pool if pool is not None else SemCtxPool()
        for record in records:
            if record._pool is not self.pool:
                record.bind_pool(self.pool)

    # -- lookups ----------------------------------------------------------------

    def dfa_for(self, decision: int) -> DFA:
        return self.records[decision].dfa

    def record(self, decision: int) -> DecisionRecord:
        return self.records[decision]

    def table_set(self, lexer=None) -> TableSet:
        """The grammar's complete execution core (see :mod:`repro.tables`)."""
        return TableSet(self.pool, [r.table for r in self.records], lexer)

    # -- Table 1 / Table 2 style aggregates ----------------------------------------

    @property
    def num_decisions(self) -> int:
        return len(self.records)

    def count(self, category: str) -> int:
        return sum(1 for r in self.records if r.category == category)

    def fixed_k_histogram(self) -> Dict[int, int]:
        """Number of fixed decisions per lookahead depth k (Table 2)."""
        hist: Dict[int, int] = {}
        for r in self.records:
            if r.category == FIXED and r.fixed_k is not None:
                hist[r.fixed_k] = hist.get(r.fixed_k, 0) + 1
        return dict(sorted(hist.items()))

    def percent(self, category: str) -> float:
        if not self.records:
            return 0.0
        return 100.0 * self.count(category) / len(self.records)

    def percent_ll1(self) -> float:
        if not self.records:
            return 0.0
        ll1 = sum(1 for r in self.records if r.category == FIXED and r.fixed_k == 1)
        return 100.0 * ll1 / len(self.records)

    def summary(self) -> str:
        lines = [
            "grammar %s: %d decisions" % (self.grammar.name, self.num_decisions),
            "  fixed LL(k): %d (%.1f%%)" % (self.count(FIXED), self.percent(FIXED)),
            "  cyclic:      %d (%.1f%%)" % (self.count(CYCLIC), self.percent(CYCLIC)),
            "  backtrack:   %d (%.1f%%)" % (self.count(BACKTRACK), self.percent(BACKTRACK)),
            "  analysis time: %.3fs" % self.elapsed_seconds,
        ]
        hist = self.fixed_k_histogram()
        if hist:
            lines.append("  fixed-k histogram: %s"
                         % " ".join("k=%d:%d" % kv for kv in hist.items()))
        for d in self.diagnostics:
            lines.append("  %r" % d)
        return "\n".join(lines)

    # -- artifact serialization (repro.cache) ------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form of everything analysis computed.

        The grammar and ATN are *not* stored: a warm start re-derives
        them from the grammar text (cheap, and they carry live Python
        objects like compiled actions), then grafts these records back on
        via :meth:`from_dict`.

        Records serialize as flat :class:`DecisionTable` dicts whose
        pool indices resolve against the shared ``pool`` entry; record
        serialization runs first because compiling a table may intern
        gates into the pool.
        """
        from repro.tables.tableset import TABLE_FORMAT_VERSION

        records = [r.to_dict() for r in self.records]
        return {
            "grammar_name": self.grammar.name,
            "elapsed_seconds": self.elapsed_seconds,
            "table_version": TABLE_FORMAT_VERSION,
            "pool": self.pool.to_dict(),
            "records": records,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    @classmethod
    def from_dict(cls, grammar: Grammar, atn: ATN, data: dict,
                  validate: bool = True) -> "AnalysisResult":
        """Rebuild a result against a freshly prepared ``grammar``/``atn``
        (see :meth:`GrammarAnalyzer.prepare_atn`).

        Deserialization is salvaged per decision: a record whose stored
        form is unusable (a table that does not rebuild, or that belongs
        to another decision) becomes a degraded placeholder plus a
        ``degraded`` diagnostic, instead of sinking the whole warm start;
        the parser rebuilds such DFAs on first use.  Payload-level
        inconsistencies (wrong decision count, missing keys) still raise
        — those mean the entry belongs to a different grammar, not a
        damaged copy of this one.

        ``validate=False`` (checksummed ``.llt`` images only) skips the
        per-table structural sweep and keeps array rows zero-copy.
        """
        from repro.exceptions import ArtifactFormatError
        from repro.tables.tableset import TABLE_FORMAT_VERSION

        if len(data["records"]) != len(atn.decisions):
            raise ValueError(
                "cache entry has %d decisions, grammar has %d"
                % (len(data["records"]), len(atn.decisions)))
        if data.get("table_version") != TABLE_FORMAT_VERSION:
            raise ArtifactFormatError("table format %r != %d"
                                      % (data.get("table_version"),
                                         TABLE_FORMAT_VERSION))
        pool = SemCtxPool.from_dict(data["pool"])
        records: List[DecisionRecord] = []
        diagnostics = [AnalysisDiagnostic.from_dict(dd)
                       for dd in data["diagnostics"]]
        for info, rd in zip(atn.decisions, data["records"]):
            try:
                record = DecisionRecord.from_dict(rd, pool, validate=validate)
                if (record.decision != info.decision
                        or record.rule_name != info.rule_name):
                    raise ValueError("record does not match its decision")
            except Exception as e:
                record = DecisionRecord.degraded_placeholder(
                    info.decision, info.rule_name, info.kind,
                    info.num_alternatives)
                diagnostics.append(AnalysisDiagnostic.degraded(
                    info.decision, "cached record unusable (%s)" % e))
            records.append(record)
        return cls(grammar, atn, records, diagnostics,
                   data["elapsed_seconds"], pool=pool)

    def __repr__(self):
        return "AnalysisResult(%s: %d decisions, %d diagnostics)" % (
            self.grammar.name, self.num_decisions, len(self.diagnostics))


class GrammarAnalyzer:
    """Runs the full static pipeline over a grammar.

    Steps: (1) PEG mode if ``backtrack=true``; (2) erase syntactic
    predicates into synpred rules; (3) build the ATN; (4) per decision,
    run :class:`DecisionAnalyzer`.  The input grammar is mutated by the
    transforms, which matches ANTLR (the grammar object *is* the
    compilation unit).
    """

    def __init__(self, grammar: Grammar, options: Optional[AnalysisOptions] = None):
        self.grammar = grammar
        self.options = options or AnalysisOptions()

    def prepare_atn(self) -> ATN:
        """Steps (1)-(3): mutate the grammar and build the ATN.

        Split out from :meth:`analyze` so a cache warm start
        (:mod:`repro.cache`) can run the identical grammar preparation and
        then attach deserialized decision records instead of re-running
        :class:`DecisionAnalyzer`.
        """
        k = self.grammar.option("k")
        if isinstance(k, int) and self.options.max_fixed_lookahead is None:
            self.options = self.options.replace(max_fixed_lookahead=k)
        if self.grammar.option("backtrack", False):
            apply_peg_mode(self.grammar)
        erase_syntactic_predicates(self.grammar)
        return build_atn(self.grammar)

    def analyze(self, parallel: Optional[int] = None) -> AnalysisResult:
        started = time.perf_counter()
        atn = self.prepare_atn()
        start_rule = self.grammar.start_rule
        if parallel is not None and parallel > 1 and len(atn.decisions) > 1:
            outcomes = self._analyze_parallel(atn, start_rule, parallel)
        else:
            outcomes = [self._analyze_decision(atn, info.decision, start_rule)
                        for info in atn.decisions]
        records: List[DecisionRecord] = []
        diagnostics: List[AnalysisDiagnostic] = []
        for record, decision_diags in outcomes:
            records.append(record)
            diagnostics.extend(decision_diags)
        elapsed = time.perf_counter() - started
        return AnalysisResult(self.grammar, atn, records, diagnostics, elapsed)

    def _analyze_decision(
            self, atn: ATN, decision: int, start_rule: Optional[str],
    ) -> Tuple[DecisionRecord, List[AnalysisDiagnostic]]:
        """One decision's full analysis: DFA plus its diagnostics, in the
        order the serial loop would have emitted them."""
        info = atn.decisions[decision]
        analyzer = DecisionAnalyzer(atn, decision, start_rule=start_rule,
                                    options=self.options)
        dfa = analyzer.create_dfa()
        diagnostics = list(analyzer.diagnostics)
        dead = dfa.unreachable_alts()
        if dead and not dfa.fell_back_to_ll1:
            diagnostics.append(AnalysisDiagnostic.dead_alternative(decision, dead))
        record = DecisionRecord(decision, info.rule_name, info.kind, dfa)
        return record, diagnostics

    def _analyze_parallel(self, atn: ATN, start_rule: Optional[str],
                          parallel: int) -> List[Tuple[DecisionRecord,
                                                       List[AnalysisDiagnostic]]]:
        """Analyze independent decisions concurrently.

        Each :class:`DecisionAnalyzer` owns all the state it mutates and
        only reads the shared ATN/grammar, so threads need no locking;
        results are collected in decision order, making records and
        diagnostics bit-for-bit identical to the serial loop regardless
        of scheduling.  On GIL builds the speedup for this pure-Python
        workload is modest; free-threaded interpreters scale with N.
        """
        from concurrent.futures import ThreadPoolExecutor

        workers = min(parallel, len(atn.decisions))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(self._analyze_decision, atn, info.decision,
                                   start_rule)
                       for info in atn.decisions]
            return [f.result() for f in futures]


def analyze(grammar: Grammar, options: Optional[AnalysisOptions] = None,
            parallel: Optional[int] = None) -> AnalysisResult:
    """Convenience wrapper: ``GrammarAnalyzer(grammar, options).analyze()``.

    ``parallel=N`` analyzes decisions on N threads; the result is
    identical to a serial run (see :meth:`GrammarAnalyzer._analyze_parallel`).
    """
    return GrammarAnalyzer(grammar, options).analyze(parallel=parallel)
