"""Equivalence sweep: flat execution tables vs the object-graph reference.

For every grammar in the paper suite this proves the three properties
the flat-table refactor rests on:

1. **Lossless representation** — every decision's compiled
   :class:`~repro.tables.lookahead.DecisionTable` decompiles to a DFA
   whose serialized form is bit-identical to the analyzer's original.
2. **Classification parity** — the shape queries driving decision
   classification (``is_cyclic`` / ``fixed_k`` / ``uses_backtracking``)
   answer identically on both representations, so a warm-started record
   (table only, DFA never materialized) classifies exactly like a
   cold-compiled one.
3. **Prediction parity** — the table-walking parser and
   :class:`GraphWalkingParser`, a reference oracle that walks the
   object-graph DFA directly, choose identical alternatives, shown by
   identical parse trees and decision event counts on the bundled
   sample and a generated workload.
"""

import pytest

from repro.analysis.decisions import DecisionRecord
from repro.exceptions import NoViableAltError
from repro.grammars import PAPER_ORDER, load
from repro.runtime.parser import LLStarParser, ParserOptions
from repro.runtime.telemetry import ParseTelemetry


class GraphWalkingParser(LLStarParser):
    """Test oracle: Figure-5 prediction over the object-graph DFA.

    Follows ``record.dfa`` states and edges directly and tries each
    state's predicate edges in order, instead of executing the flat
    table.  Speculation and predicate evaluation are the parser's own;
    only the walk differs, so any disagreement with
    :class:`LLStarParser` is a table encoding or table-walk bug.
    """

    def _adaptive_predict(self, decision, frame):
        record = self.analysis.records[decision]
        dfa = record.dfa
        if dfa is None or dfa.start is None:
            dfa = self._materialize_dfa(decision, record)
        state = dfa.start
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


class TestRepresentationEquivalence:
    def test_every_decision_is_lossless(self, host):
        for record in host.analysis.records:
            assert record.table.equivalent_to(record.dfa), (
                "decision %d in %s round-trips lossily"
                % (record.decision, record.rule_name))

    def test_shape_queries_agree(self, host):
        for record in host.analysis.records:
            dfa, table = record.dfa, record.table
            assert table.is_cyclic() == dfa.is_cyclic(), record.decision
            assert table.fixed_k() == dfa.fixed_k(), record.decision
            assert table.uses_backtracking() == dfa.uses_backtracking(), \
                record.decision

    def test_warm_record_classifies_identically(self, host):
        """A record rebuilt from the table alone (the warm-start path —
        no DFA ever decompiled) must land in the same category with the
        same fixed k."""
        for record in host.analysis.records:
            warm = DecisionRecord.from_table(
                record.decision, record.rule_name, record.kind, record.table)
            assert warm.category == record.category, record.decision
            assert warm.fixed_k == record.fixed_k, record.decision


class TestPredictionEquivalence:
    def _parse_both(self, host, text):
        trees, events = [], []
        for parser_class in (LLStarParser, GraphWalkingParser):
            telemetry = ParseTelemetry(capture_events=False)
            opts = ParserOptions(telemetry=telemetry)
            parser = parser_class(host.analysis, host.tokenize(text), opts)
            trees.append(parser.parse())
            events.append(telemetry.profiler.total_events)
        assert trees[0].to_sexpr() == trees[1].to_sexpr()
        assert events[0] == events[1]

    def test_sample_parses_identically(self, host, bench):
        self._parse_both(host, bench.sample)

    def test_generated_workload_parses_identically(self, host, bench):
        self._parse_both(host, bench.generate_program(6, seed=3))


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
