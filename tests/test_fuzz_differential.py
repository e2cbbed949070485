"""Sentence generator + differential harness.

Three layers of assurance:

* generator unit behavior — seeded determinism, budget compliance,
  coverage steering, text round-trips, mutation bookkeeping;
* the differential runner on a small grammar where every backend
  (including strict LL(k)) participates — zero disagreements, plus a
  synthetic-failure path proving judge/minimize actually fire;
* the bounded property suite: a small corpus through every paper
  benchmark grammar with every backend must produce zero disagreements
  and a clean BatchEngine cross-check.
"""

import json

import pytest

import repro
from repro.fuzz.differential import (
    ALL_BACKENDS,
    BackendResult,
    DifferentialRunner,
    TREE,
    run_suite,
    tree_digest,
)
from repro.fuzz.generator import SentenceGenerator
from repro.grammars import PAPER_ORDER
from repro.tools import cli

CALC = r"""
grammar FuzzCalc;
s : stmt+ ;
stmt : ID '=' expr ';' ;
expr : term (('+'|'-') term)* ;
term : ID | INT | '(' expr ')' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""


@pytest.fixture(scope="module")
def calc():
    return repro.compile_grammar(CALC)


class TestSentenceGenerator:
    def test_same_seed_same_corpus(self, calc):
        a = SentenceGenerator(calc, seed=11, max_depth=10, max_tokens=40)
        b = SentenceGenerator(calc, seed=11, max_depth=10, max_tokens=40)
        assert [s.token_names for s in a.generate(12)] == \
               [s.token_names for s in b.generate(12)]
        assert [s.text for s in a.generate(3)] == \
               [s.text for s in b.generate(3)]

    def test_different_seeds_differ(self, calc):
        corpora = {tuple(s.token_names
                         for s in SentenceGenerator(calc, seed=seed,
                                                    max_depth=10).generate(6))
                   for seed in range(5)}
        assert len(corpora) > 1

    def test_token_budget_bounds_sentences(self, calc):
        gen = SentenceGenerator(calc, seed=3, max_depth=30, max_tokens=25)
        for s in gen.generate(30):
            # Closing mode may overshoot by at most one minimal completion.
            assert s.size <= 25 + 16, s

    def test_sentences_parse_under_interpreter(self, calc):
        gen = SentenceGenerator(calc, seed=5, max_depth=10, max_tokens=40)
        for s in gen.generate(25):
            tree = calc.parse(calc.token_stream_from_types(s.token_names))
            assert tree is not None

    def test_rendered_text_round_trips(self, calc):
        gen = SentenceGenerator(calc, seed=9, max_depth=10, max_tokens=40)
        for s in gen.generate(10):
            assert s.text is not None
            assert calc.recognize(s.text)

    def test_coverage_steering_hits_every_alternative(self, calc):
        gen = SentenceGenerator(calc, seed=1, max_depth=12, max_tokens=60)
        gen.generate(40)
        coverage = gen.coverage_report()
        # rule `term` has three alternatives; steering must reach all.
        assert set(coverage["rule:term"]) == {0, 1, 2}

    def test_mutation_is_seeded_and_recorded(self, calc):
        gen = SentenceGenerator(calc, seed=2, max_depth=10, max_tokens=40)
        sentence = gen.sentence(0)
        m1 = gen.mutate(sentence)
        m2 = gen.mutate(sentence)
        assert m1.token_names == m2.token_names
        assert m1.mutations == m2.mutations and m1.mutations
        assert gen.mutate(sentence, salt=1).mutations != m1.mutations \
            or gen.mutate(sentence, salt=1).token_names != m1.token_names
        assert m1.mutated and not sentence.mutated

    def test_generator_rejects_bad_budgets(self, calc):
        with pytest.raises(ValueError):
            SentenceGenerator(calc, max_depth=0)


class TestDifferentialRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return DifferentialRunner(CALC)

    def test_all_backends_available_for_llk_grammar(self, runner):
        assert set(runner.backends) == set(ALL_BACKENDS)
        assert runner.skipped == {}

    def test_corpus_has_zero_disagreements(self, runner):
        report = runner.run_corpus(n=25, seed=42, max_depth=10,
                                   max_tokens=40, mutate=0.2)
        assert report.ok, report.summary()
        assert report.corpus_size == 30 and report.mutated_count == 5
        for name in ALL_BACKENDS:
            stats = report.backend_stats[name]
            assert stats["accepted"] + stats["rejected"] \
                + stats["indeterminate"] == report.corpus_size
        assert report.batch == {"checked": 30, "mismatches": 0}
        json.dumps(report.to_json())  # JSON-safe end to end

    def test_backend_subset_and_unknown_backend(self):
        runner = DifferentialRunner(CALC, backends=["interp", "earley"])
        assert runner.backends == ("interp", "earley")
        with pytest.raises(ValueError):
            DifferentialRunner(CALC, backends=["interp", "nope"])

    def test_judge_flags_tree_and_oracle_divergence(self, runner):
        ok = BackendResult("interp", TREE, True, digest="aaaa")
        bad = BackendResult("codegen", TREE, True, digest="bbbb")
        kinds, _ = runner.judge({"interp": ok, "codegen": bad})
        assert kinds == ["tree-digest"]
        kinds, _ = runner.judge({
            "interp": ok,
            "codegen": BackendResult("codegen", TREE, False)})
        assert kinds == ["tree-accept"]
        kinds, _ = runner.judge({
            "interp": ok,
            "earley": BackendResult("earley", "cfg", False)})
        assert "unsound" in kinds

    def test_minimization_shrinks_to_failure_core(self):
        class Rigged(DifferentialRunner):
            """Flags any sentence containing '(' as a disagreement."""

            def judge(self, results):
                return (["tree-accept"], []) if self._saw_paren else ([], [])

            def run_sentence(self, token_names):
                self._saw_paren = "'('" in token_names
                return {}

        runner = Rigged(CALC, backends=["interp"])
        sentence = ("ID", "'='", "'('", "ID", "')'", "';'")
        assert runner.minimize(sentence, ["tree-accept"]) == ("'('",)

    def test_disagreements_are_structured_and_minimized(self):
        class Rigged(DifferentialRunner):
            def judge(self, results):
                interp = results.get("interp")
                if interp is not None and interp.accepted \
                        and self._last_had_paren:
                    return ["tree-digest"], []
                return [], []

            def run_sentence(self, token_names):
                self._last_had_paren = "'('" in token_names
                return DifferentialRunner.run_sentence(self, token_names)

        runner = Rigged(CALC, backends=["interp"])
        report = runner.run_corpus(n=20, seed=0, max_depth=10,
                                   max_tokens=40, batch=False)
        assert not report.ok
        d = report.disagreements[0]
        assert d.kind == "tree-digest"
        assert d.grammar == "FuzzCalc" and d.seed == 0
        assert d.minimized is not None
        assert len(d.minimized) < len(d.token_names) or len(d.token_names) <= 2
        doc = d.to_dict()
        assert doc["backends"]["interp"]["accepted"] is True
        assert "disagreement" in d.summary()

    def test_tree_digest_is_stable(self, calc):
        t1 = calc.parse("x = 1;")
        t2 = calc.parse("x = 1;")
        assert tree_digest(t1) == tree_digest(t2)
        assert tree_digest(t1) != tree_digest(calc.parse("x = 2;"))


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_property_suite_bounded_corpus(name):
    """The acceptance property, bounded for tier 1: a seeded corpus per
    paper grammar through every backend, zero disagreements, and the
    batch pipeline agreeing with the in-process interpreter."""
    reports = run_suite([name], n=8, seed=42, max_depth=12, max_tokens=60,
                        mutate=0.25)
    report = reports[name]
    assert report.ok, report.summary()
    assert report.corpus_size == 10 and report.mutated_count == 2
    # The tree backends all ran (llk may be skipped with a recorded reason).
    for backend in ("interp", "codegen", "earley", "glr", "packrat"):
        assert backend in report.backend_stats
    if "llk" not in report.backend_stats:
        assert "llk" in report.skipped and report.skipped["llk"]
    assert report.batch is not None and report.batch["mismatches"] == 0
    # Unmutated sentences are valid by construction; the suite grammars
    # have no generation-visible predicates, so the interpreter accepts
    # them all (ll_rejected would mark generator/parser drift).
    assert report.stats.get("ll_rejected", 0) == 0


class TestFuzzCli:
    def test_fuzz_grammar_file(self, tmp_path, capsys):
        grammar = tmp_path / "calc.g"
        grammar.write_text(CALC)
        code = cli.main(["fuzz", str(grammar), "--n", "10", "--seed", "3",
                         "--mutate", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 disagreements" in out
        assert "batch cross-check" in out

    def test_fuzz_suite_subset_json(self, capsys):
        code = cli.main(["fuzz", "--suite", "--grammars", "sql",
                         "--n", "4", "--seed", "42", "--no-batch",
                         "--backends", "interp,codegen,earley", "--json"])
        assert code == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 1 and docs[0]["grammar"] == "sql"
        assert docs[0]["ok"] is True
        assert set(docs[0]["backends"]) == {"interp", "codegen", "earley"}

    def test_fuzz_requires_grammar_or_suite(self, capsys):
        assert cli.main(["fuzz"]) == 2
        grammar_and_suite = cli.main(["fuzz", "nope.g", "--suite"])
        assert grammar_and_suite == 2
