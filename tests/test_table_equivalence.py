"""Equivalence sweep: flat execution tables vs the analyzer's DFAs.

After analysis a decision keeps only its flat
:class:`~repro.tables.lookahead.DecisionTable`.  For every grammar in
the paper suite this proves that the table is the automaton subset
construction built, using :class:`DecisionAnalyzer`'s own object-graph
DFA, rebuilt here with the host's analysis options, as the oracle:

1. **Lossless compilation** — compiling each freshly built DFA
   reproduces the record's table exactly (``to_dict`` equality), gate
   pool indices included.
2. **Rebuild and classification** — a degraded record rebuilt through
   the one rebuild routine gets the cold table back, and a record made
   from the stored table alone (the warm-start path) lands in the same
   category with the same fixed k.
3. **Prediction parity** — the table-walking parser and
   :class:`GraphWalkingParser`, which walks those object-graph DFAs
   directly, choose identical alternatives, shown by identical parse
   trees and decision event counts on the bundled sample and a
   generated workload.
"""

import pytest

from repro.analysis.decisions import AnalysisResult, DecisionRecord
from repro.exceptions import NoViableAltError
from repro.grammars import PAPER_ORDER, load
from repro.runtime.parser import LLStarParser, ParserOptions
from repro.runtime.telemetry import ParseTelemetry
from repro.tables import DecisionTable, SemCtxPool, compile_decision_table
from tests.dfa_oracle import build_dfa


class GraphWalkingParser(LLStarParser):
    """Test oracle: Figure-5 prediction over object-graph DFAs.

    Follows the states and edges of ``dfas`` (one freshly constructed
    DFA per decision) directly and tries each state's predicate edges in
    order, instead of executing the flat table.  Speculation and
    predicate evaluation are the parser's own; only the walk differs, so
    any disagreement with :class:`LLStarParser` is a table encoding or
    table-walk bug.
    """

    def __init__(self, analysis, stream, options, dfas):
        super().__init__(analysis, stream, options)
        self.dfas = dfas

    def _adaptive_predict(self, decision, frame):
        record = self.analysis.records[decision]
        state = self.dfas[decision].start
        offset = 0
        gated = backtracked = False
        backtrack_depth = 0

        def eval_leaf(predicate):
            nonlocal backtracked, backtrack_depth
            if not predicate.is_synpred:
                return self._eval_predicate(predicate, frame)
            backtracked = True
            error, depth = self._eval_synpred(predicate.synpred)
            backtrack_depth = max(backtrack_depth, depth)
            return error is None

        try:
            while not state.is_accept:
                nxt = state.edges.get(self.stream.la(offset + 1))
                if nxt is not None:
                    offset += 1
                    state = nxt
                    continue
                gated = bool(state.predicate_edges)
                for context, alt, _target in state.predicate_edges:
                    if context is None or context.evaluate(eval_leaf):
                        return alt
                raise NoViableAltError(decision, self.stream.lt(offset + 1),
                                       self.stream.index + offset,
                                       rule_name=record.rule_name)
            return state.predicted_alt
        finally:
            tel = self._telemetry
            if tel is not None and not self.speculating:
                tel.record_predict(decision, record.rule_name, max(offset, 1),
                                   not gated, backtracked, backtrack_depth,
                                   self.stream.index)


@pytest.fixture(scope="module", params=PAPER_ORDER)
def bench(request):
    return load(request.param)


@pytest.fixture(scope="module")
def host(bench):
    return bench.compile()


@pytest.fixture(scope="module")
def dfas(host):
    """Every decision's DFA, constructed afresh with the host's options."""
    return [build_dfa(host.analysis, record.decision)
            for record in host.analysis.records]


class TestRepresentationEquivalence:
    def test_every_decision_is_lossless(self, host, dfas):
        # Compile into a copy of the shared pool: equal gates intern to
        # the indices the records hold, and the host's pool stays as is.
        pool = SemCtxPool.from_dict(host.analysis.pool.to_dict())
        for record, dfa in zip(host.analysis.records, dfas):
            assert (compile_decision_table(dfa, pool).to_dict()
                    == record.table.to_dict()), (
                "decision %d in %s: table is not what construction built"
                % (record.decision, record.rule_name))
        assert len(pool) == len(host.analysis.pool)

    def test_rebuild_reproduces_every_table(self, host):
        """Every record salvaged as degraded and rebuilt through
        :meth:`AnalysisResult.decision_table` (the parser's and the
        tools' one rebuild routine) gets back the table the cold
        compile built, with no new gates in the pool."""
        payload = host.analysis.to_dict()
        for rd in payload["records"]:
            rd["table"] = None
        salvaged = AnalysisResult.from_dict(host.grammar, host.analysis.atn,
                                            payload,
                                            options=host.analysis.options)
        assert all(r.degraded for r in salvaged.records)
        for record in host.analysis.records:
            assert (salvaged.decision_table(record.decision).to_dict()
                    == record.table.to_dict()), record.decision
        assert len(salvaged.pool) == len(host.analysis.pool)

    def test_warm_record_classifies_identically(self, host):
        """A record rebuilt from the stored table alone (the warm-start
        path) must land in the same category with the same fixed k."""
        pool = host.analysis.pool
        for record in host.analysis.records:
            warm = DecisionRecord(
                record.decision, record.rule_name, record.kind,
                DecisionTable.from_dict(record.table.to_dict(), pool))
            assert warm.category == record.category, record.decision
            assert warm.fixed_k == record.fixed_k, record.decision


class TestPredictionEquivalence:
    def _parse_both(self, host, dfas, text):
        trees, events = [], []
        for make in (LLStarParser, lambda *args: GraphWalkingParser(*args, dfas)):
            telemetry = ParseTelemetry(capture_events=False)
            opts = ParserOptions(telemetry=telemetry)
            parser = make(host.analysis, host.tokenize(text), opts)
            trees.append(parser.parse())
            events.append(telemetry.profiler.total_events)
        assert trees[0].to_sexpr() == trees[1].to_sexpr()
        assert events[0] == events[1]

    def test_sample_parses_identically(self, host, dfas, bench):
        self._parse_both(host, dfas, bench.sample)

    def test_generated_workload_parses_identically(self, host, dfas, bench):
        self._parse_both(host, dfas, bench.generate_program(6, seed=3))


@pytest.fixture(scope="module")
def mmap_host(bench, host, tmp_path_factory):
    """The same grammar warm-started through the binary ``.llt`` sidecar:
    flat tables are zero-copy ``memoryview`` rows over the mapping.  The
    store is pre-seeded from the module's cold host so each suite grammar
    pays for analysis once."""
    import repro
    from repro.cache import (
        ArtifactStore,
        artifact_key,
        artifact_to_dict,
        grammar_fingerprint,
    )

    d = str(tmp_path_factory.mktemp("llt-%s" % bench.name))
    store = ArtifactStore(d)
    store.save(artifact_key(bench.grammar_text, None, None),
               artifact_to_dict(host.grammar, host.analysis,
                                host.lexer_spec,
                                grammar_fingerprint(bench.grammar_text)),
               source=bench.grammar_text)
    warm = repro.compile_grammar(bench.grammar_text, cache_dir=d)
    assert warm.from_cache and warm.mapped_artifact is not None
    return warm


class TestMmapEquivalence:
    """The full suite sweep against mmap-backed tables: classification
    and parse behavior must match the cold host exactly even though no
    structural validation ran (the image checksum vouches) and the hot
    arrays are views, not tuples."""

    def test_records_classify_identically(self, mmap_host, host):
        for cold, warm in zip(host.analysis.records, mmap_host.analysis.records):
            assert warm.category == cold.category, cold.decision
            assert warm.fixed_k == cold.fixed_k, cold.decision
            assert not warm.degraded

    def test_sample_parses_identically(self, mmap_host, host, bench):
        pc = ParseTelemetry(capture_events=False)
        pw = ParseTelemetry(capture_events=False)
        tc = host.parse(bench.sample, options=ParserOptions(telemetry=pc))
        tw = mmap_host.parse(bench.sample, options=ParserOptions(telemetry=pw))
        assert tc.to_sexpr() == tw.to_sexpr()
        assert {d: s.events for d, s in pc.profiler.stats.items()} \
            == {d: s.events for d, s in pw.profiler.stats.items()}

    def test_generated_workload_parses_identically(self, mmap_host, host, bench):
        text = bench.generate_program(6, seed=7)
        assert mmap_host.parse(text).to_sexpr() == host.parse(text).to_sexpr()

    def test_hot_rows_are_views(self, mmap_host):
        from repro.cache.binary import ZERO_COPY

        if not ZERO_COPY:  # pragma: no cover - big-endian fallback
            pytest.skip("platform decodes by copy")
        tables = [r.table for r in mmap_host.analysis.records if r.table]
        assert all(isinstance(t.edge_index, memoryview) for t in tables)
        if mmap_host.lexer_spec is not None:
            assert isinstance(mmap_host.lexer_spec.table.edge_lo, memoryview)
