"""Whole-grammar analysis facade and decision classification.

``analyze(grammar)`` produces an :class:`AnalysisResult`: the ATN, one
:class:`DecisionRecord` per decision (its flat lookahead table and the
classification derived from it), and all diagnostics.  Classification
buckets follow Table 1 of the paper:

* **fixed** — acyclic DFA with no synpred edges: plain LL(k), with the
  record carrying k;
* **cyclic** — DFA with a cycle but no synpred edges: arbitrary
  regular lookahead, beyond any LL(k);
* **backtrack** — DFA with at least one syntactic-predicate edge: the
  decision *may* speculate at parse time.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.analysis.construction import AnalysisOptions, DecisionAnalyzer
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
    """One decision's analysis outcome: its flat lookahead
    :class:`DecisionTable` (the form the parser, cache, codegen and tools
    share) and the Table 1 bucket derived from that table's shape.

    ``table`` is None only while the record is *degraded*: its cached
    form was unusable, and :meth:`AnalysisResult.decision_table` rebuilds
    it from the ATN on first use.
    """

    def __init__(self, decision: int, rule_name: str, kind: str,
                 table: Optional[DecisionTable]):
        self.decision = decision
        self.rule_name = rule_name
        self.kind = kind  # DecisionKind: rule/block/optional/star/plus
        self.table = table
        # Classification is lazy (see the ``category`` property): a warm
        # start materialises hundreds of records whose shape most parses
        # never ask about, and classifying a zero-copy table walks its
        # arrays — i.e. touches mmap pages.  Deferring it keeps warm
        # start O(decisions) dict work with no page faults.
        self._category: Optional[str] = None
        self._fixed_k: Optional[int] = None

    @property
    def degraded(self) -> bool:
        """True while the record has no table (see the class docstring)."""
        return self.table is None

    @property
    def category(self) -> str:
        """Table 1 bucket, derived from the table's shape on first use.

        A degraded record has no shape to read: classify it through
        :meth:`AnalysisResult.classified`, which rebuilds it first."""
        if self._category is None:
            table = self.table
            if table is None:
                raise ValueError("decision %d is degraded; classify it "
                                 "through AnalysisResult.classified()"
                                 % self.decision)
            if table.uses_backtracking():
                self._category = BACKTRACK
            elif table.is_cyclic():
                self._category = CYCLIC
            else:
                self._category = FIXED
                self._fixed_k = table.fixed_k()
        return self._category

    @property
    def fixed_k(self) -> Optional[int]:
        """Lookahead depth k for fixed decisions, None otherwise;
        forcing it classifies the record."""
        if self._category is None:
            _ = self.category
        return self._fixed_k

    @property
    def can_backtrack(self) -> bool:
        return self.category == BACKTRACK

    def __repr__(self):
        if self.degraded:
            what = "degraded"
        else:
            what = self.category + (" k=%s" % self.fixed_k
                                    if self.fixed_k else "")
        return "DecisionRecord(%d in %s: %s)" % (
            self.decision, self.rule_name, what)


class AnalysisResult:
    """Everything static analysis learned about a grammar."""

    def __init__(self, grammar: Grammar, atn: ATN, records: List[DecisionRecord],
                 diagnostics: List[AnalysisDiagnostic], elapsed_seconds: float,
                 pool: SemCtxPool, options: AnalysisOptions):
        self.grammar = grammar
        self.atn = atn
        self.records = records
        self.diagnostics = diagnostics
        self.elapsed_seconds = elapsed_seconds
        #: Shared interned-gate pool every decision table indexes into.
        self.pool = pool
        #: The options the decisions were analysed with, including the
        #: grammar's ``k`` cap that :meth:`GrammarAnalyzer.prepare_atn`
        #: folds in; a degraded decision is rebuilt with exactly these.
        self.options = options

    # -- lookups ----------------------------------------------------------------

    def record(self, decision: int) -> DecisionRecord:
        return self.records[decision]

    def decision_table(self, decision: int) -> DecisionTable:
        """``decision``'s table, rebuilding a degraded record first.

        This is the one rebuild routine, shared by the parser (on first
        use), the tools and serialization: analyse the decision again on
        the ATN with the options and start rule the grammar was analysed
        with, compile the DFA into the shared pool, and install the table
        on the record, which later readers then find in place.
        """
        record = self.records[decision]
        if record.table is None:
            dfa = DecisionAnalyzer(self.atn, decision,
                                   start_rule=self.grammar.start_rule,
                                   options=self.options).create_dfa()
            record.table = compile_decision_table(dfa, self.pool)
        return record.table

    def table_set(self, lexer=None) -> TableSet:
        """The grammar's complete execution core (see :mod:`repro.tables`)."""
        return TableSet(self.pool, [self.decision_table(r.decision)
                                    for r in self.records], lexer)

    def classified(self) -> List[DecisionRecord]:
        """Every record, each with its table in place (a degraded one is
        rebuilt through :meth:`decision_table`), so that its
        :attr:`~DecisionRecord.category` reads the real machine.  Every
        Table 1-4 aggregate classifies through this."""
        for r in self.records:
            if r.table is None:
                self.decision_table(r.decision)
        return self.records

    # -- Table 1 / Table 2 style aggregates ----------------------------------------

    @property
    def num_decisions(self) -> int:
        return len(self.records)

    def count(self, category: str) -> int:
        return sum(1 for r in self.classified() if r.category == category)

    def fixed_k_histogram(self) -> Dict[int, int]:
        """Number of fixed decisions per lookahead depth k (Table 2)."""
        hist: Dict[int, int] = {}
        for r in self.classified():
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
        ll1 = sum(1 for r in self.classified()
                  if r.category == FIXED and r.fixed_k == 1)
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
        serialization runs first because rebuilding a degraded record
        may intern gates into the pool.
        """
        from repro.tables.tableset import TABLE_FORMAT_VERSION

        records = [dict(decision=r.decision, rule_name=r.rule_name,
                        kind=r.kind,
                        table=self.decision_table(r.decision).to_dict())
                   for r in self.records]
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
                  validate: bool = True,
                  options: Optional[AnalysisOptions] = None
                  ) -> "AnalysisResult":
        """Rebuild a result against a freshly prepared ``grammar``/``atn``
        (see :meth:`GrammarAnalyzer.prepare_atn`, whose effective
        ``options`` belong here too: a degraded record is rebuilt with
        them).

        Deserialization is salvaged per decision: a record whose stored
        form is unusable (a table that does not load, has no start state,
        or belongs to another decision) becomes a degraded record with no
        table plus a ``degraded`` diagnostic, instead of sinking the whole
        warm start; :meth:`decision_table` rebuilds it on first use.
        Payload-level inconsistencies (wrong decision count, missing
        keys) still raise — those mean the entry belongs to a different
        grammar, not a damaged copy of this one.

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
                decision, rule_name, kind = (rd["decision"], rd["rule_name"],
                                             rd["kind"])
                table = DecisionTable.from_dict(rd["table"], pool,
                                                validate=validate)
                if decision != info.decision or rule_name != info.rule_name:
                    raise ValueError("record does not match its decision")
                if table.start < 0:
                    raise ValueError("table has no start state")
            except Exception as e:
                kind, table = info.kind, None
                diagnostics.append(AnalysisDiagnostic.degraded(
                    info.decision, "cached record unusable (%s)" % e))
            # A loaded record is classified lazily from its table's
            # shape, so it can never disagree with the machine it carries.
            records.append(DecisionRecord(info.decision, info.rule_name,
                                          kind, table))
        return cls(grammar, atn, records, diagnostics,
                   data["elapsed_seconds"], pool,
                   options if options is not None else AnalysisOptions())

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

    def analyze(self) -> AnalysisResult:
        started = time.perf_counter()
        atn = self.prepare_atn()
        start_rule = self.grammar.start_rule
        pool = SemCtxPool()
        records: List[DecisionRecord] = []
        diagnostics: List[AnalysisDiagnostic] = []
        for info in atn.decisions:
            # One decision at a time, so each DFA is compiled (in decision
            # order, which fixes the pool indices) and dropped before the
            # next decision's construction starts.
            analyzer = DecisionAnalyzer(atn, info.decision,
                                        start_rule=start_rule,
                                        options=self.options)
            table = compile_decision_table(analyzer.create_dfa(), pool)
            diagnostics.extend(analyzer.diagnostics)
            dead = table.unreachable_alts()
            if dead and not table.fell_back_to_ll1:
                diagnostics.append(AnalysisDiagnostic.dead_alternative(
                    info.decision, dead))
            records.append(DecisionRecord(info.decision, info.rule_name,
                                          info.kind, table))
        elapsed = time.perf_counter() - started
        return AnalysisResult(self.grammar, atn, records, diagnostics, elapsed,
                              pool, self.options)


def analyze(grammar: Grammar, options: Optional[AnalysisOptions] = None
            ) -> AnalysisResult:
    """Convenience wrapper: ``GrammarAnalyzer(grammar, options).analyze()``."""
    return GrammarAnalyzer(grammar, options).analyze()
