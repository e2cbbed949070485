"""Round-trip suite for the compiled-artifact cache (repro.cache).

For every bundled benchmark grammar: encode the cold-compiled artifact
as a ``.llt`` image, boot a host from the mapped image against a freshly
parsed grammar, and prove the warm host is behaviorally identical — same
DFA state/edge sets, same decision classifications, same diagnostics,
same parse trees, same profiler events — without ever constructing a
DecisionAnalyzer.
"""

import json

import pytest

import repro
from repro.analysis.construction import DecisionAnalyzer
from repro.api import host_from_image
from repro.cache import (
    MappedArtifact,
    artifact_to_dict,
    encode_artifact,
    grammar_fingerprint,
)
from repro.grammars import PAPER_ORDER, load
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry


def _profile_stats(telemetry):
    """Comparable view of every recorded decision event aggregate."""
    return {
        d: (s.events, s.sum_depth, s.max_depth, s.backtrack_events,
            s.sum_backtrack_depth, s.max_backtrack_depth)
        for d, s in telemetry.profiler.stats.items()
    }


def _image(host, grammar_text):
    return encode_artifact(artifact_to_dict(
        host.grammar, host.analysis, host.lexer_spec,
        grammar_fingerprint(grammar_text)), grammar_text)


def _map(blob, directory):
    path = str(directory / "entry.llt")
    with open(path, "wb") as f:
        f.write(blob)
    return MappedArtifact(path)


@pytest.fixture(scope="module", params=PAPER_ORDER)
def pair(request, tmp_path_factory):
    """(bench, cold host, warm host) with the warm host booted from the
    mapped image."""
    bench = load(request.param)
    cold = bench.compile()
    mapped = _map(_image(cold, bench.grammar_text),
                  tmp_path_factory.mktemp(request.param))
    before = DecisionAnalyzer.invocations
    warm = host_from_image(mapped)
    assert DecisionAnalyzer.invocations == before, \
        "warm start must not construct a DecisionAnalyzer"
    return bench, cold, warm


class TestRoundTrip:
    def test_dfa_states_and_edges_identical(self, pair):
        _, cold, warm = pair
        for rc, rw in zip(cold.analysis.records, warm.analysis.records):
            assert rc.table.to_dict() == rw.table.to_dict(), \
                "decision %d DFA shape changed across round trip" % rc.decision

    def test_classifications_identical(self, pair):
        _, cold, warm = pair
        assert [(r.decision, r.rule_name, r.kind, r.category, r.fixed_k)
                for r in cold.analysis.records] \
            == [(r.decision, r.rule_name, r.kind, r.category, r.fixed_k)
                for r in warm.analysis.records]

    def test_diagnostics_identical(self, pair):
        _, cold, warm = pair
        assert [d.to_dict() for d in cold.analysis.diagnostics] \
            == [d.to_dict() for d in warm.analysis.diagnostics]

    def test_lexer_tables_identical(self, pair):
        _, cold, warm = pair
        assert cold.lexer_spec.table.to_dict() == warm.lexer_spec.table.to_dict()

    def test_sample_parse_tree_and_profile_identical(self, pair):
        bench, cold, warm = pair
        pc = ParseTelemetry()
        pw = ParseTelemetry()
        tc = cold.parse(bench.sample, options=ParserOptions(telemetry=pc))
        tw = warm.parse(bench.sample, options=ParserOptions(telemetry=pw))
        assert tc.to_sexpr() == tw.to_sexpr()
        assert _profile_stats(pc) == _profile_stats(pw)

    def test_generated_workload_identical(self, pair):
        bench, cold, warm = pair
        program = bench.generate_program(6, seed=3)
        pc = ParseTelemetry()
        pw = ParseTelemetry()
        tc = cold.parse(program, options=ParserOptions(telemetry=pc))
        tw = warm.parse(program, options=ParserOptions(telemetry=pw))
        assert tc.to_sexpr() == tw.to_sexpr()
        assert _profile_stats(pc) == _profile_stats(pw)

    def test_serialization_is_deterministic(self, pair):
        bench, cold, _ = pair
        one = _image(cold, bench.grammar_text)
        two = _image(cold, bench.grammar_text)
        assert one == two


class TestSuiteCoverage:
    def test_suite_exercises_backtrack_serialization(self):
        """The PEG-mode grammars must push synpred contexts (backtrack
        edges) through serialization, per the paper's Table 1 mix.

        In the flat payload a synpred gate is a pooled context (the
        shared ``pool`` entry) referenced by a ``pred_ctx`` index."""
        payloads = [artifact_to_dict(h.grammar, h.analysis, h.lexer_spec, "x")
                    for h in (load("java").compile(), load("rats_c").compile())]
        for p in payloads:
            pool = p["analysis"]["pool"]["contexts"]
            synpred_indexes = {
                i for i, ctx in enumerate(pool)
                if "synpred" in json.dumps(ctx)
            }
            assert synpred_indexes, "no synpred contexts in the pool"
            referenced = {
                c
                for record in p["analysis"]["records"]
                for c in record["table"]["pred_ctx"]
                if c >= 0
            }
            assert synpred_indexes & referenced, \
                "no predicate edge references a synpred gate"


class TestPredicatedRoundTrip:
    """User-predicate (semantic-context) serialization, including the
    hoisted OR-of-ANDs trees and the default (None) edge."""

    GRAMMAR = """
        grammar Pred;
        s : {state['one']}? A | {state['two']}? A | A ;
        A : 'a' ;
    """

    def _hosts(self, directory):
        cold = repro.compile_grammar(self.GRAMMAR)
        warm = host_from_image(_map(_image(cold, self.GRAMMAR), directory))
        return cold, warm

    def test_predicate_edges_round_trip(self, tmp_path):
        cold, warm = self._hosts(tmp_path)
        for rc, rw in zip(cold.analysis.records, warm.analysis.records):
            assert rc.table.to_dict() == rw.table.to_dict()
        assert any(r.table.has_predicate_edges() for r in warm.analysis.records)

    def test_predicates_still_evaluate(self, tmp_path):
        cold, warm = self._hosts(tmp_path)
        for flags, expected_alt in (({"one": True, "two": False}, 1),
                                    ({"one": False, "two": True}, 2),
                                    ({"one": False, "two": False}, 3)):
            opts_c = ParserOptions(user_state=dict(flags))
            opts_w = ParserOptions(user_state=dict(flags))
            tc = cold.parse("a", options=opts_c)
            tw = warm.parse("a", options=opts_w)
            assert tc.alt == tw.alt == expected_alt
