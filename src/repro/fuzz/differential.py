"""Cross-backend differential parsing harness.

The paper's central claim — LL(*) prediction is outcome-equivalent to
full backtracking at a fraction of the cost — is checked here by brute
force: every generated sentence is parsed by every available backend and
the results are compared under a policy that separates *bugs* from
*known semantic differences*:

* **Tree backends** (the interpreter, the generated codegen parser, and
  the strict LL(k) parser when :func:`repro.baselines.llk.llk_viability`
  admits the grammar) must agree exactly: same accept/reject verdict
  and, when accepting, identical ``to_spanned_sexpr()`` digests — shape
  *and* per-node token-index spans (``tree-accept`` / ``tree-digest``
  disagreements).
* **CFG backends** (GLR, Earley) must agree with each other
  (``cfg-accept``); Earley additionally serves as the context-free
  *oracle*: any other backend accepting a sentence the oracle rejects is
  an ``unsound`` disagreement.
* **Packrat** is a PEG: ordered choice legitimately rejects some
  sentences the CFG admits, so packrat-rejects-what-LL-accepts is
  counted as a ``peg_divergence`` statistic, not a disagreement; the
  reverse (packrat accepts, oracle rejects) is still ``unsound``.
* The interpreter rejecting an unmutated generated sentence is the
  ``ll_rejected`` statistic (the generator ignores predicates and
  ordered-choice ambiguity resolution), not a disagreement.

Each failing case is re-run through greedy token-deletion minimization
(ddmin-style, bounded) before being reported as a structured
:class:`Disagreement`.  A :class:`BatchEngine` pass cross-checks that
the batch pipeline's per-input verdicts match the in-process
interpreter on every text-renderable sentence (``batch`` disagreement).
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import compile_grammar
from repro.baselines.earley import EarleyParser
from repro.baselines.glr import GLRParser
from repro.baselines.llk import LLkParser
from repro.baselines.packrat import PackratParser
from repro.codegen import generate_python
from repro.codegen.support import GeneratedParser
from repro.exceptions import (
    BudgetExceededError,
    GrammarError,
    LLStarError,
    RecognitionError,
)
from repro.fuzz.generator import Sentence, SentenceGenerator
from repro.runtime.budget import ParserBudget
from repro.runtime.parser import ParserOptions

TREE = "tree"
CFG = "cfg"
PEG = "peg"

ALL_BACKENDS = ("interp", "codegen", "llk", "packrat", "glr", "earley")
_KIND = {"interp": TREE, "codegen": TREE, "llk": TREE,
         "packrat": PEG, "glr": CFG, "earley": CFG}


def tree_digest(tree) -> str:
    """Stable short digest of a parse tree's canonical *spanned*
    s-expression: shape, token identity, and every node's
    ``(start, stop)`` token-index span.  Two backends agreeing here
    agree not just on structure but on which stream positions each rule
    consumed — the provenance contract the rewriter depends on."""
    return hashlib.sha1(
        tree.to_spanned_sexpr().encode("utf-8")).hexdigest()[:16]


class BackendResult:
    """One backend's verdict on one sentence.

    ``accepted`` is True/False for a definite verdict and None when the
    backend could not decide (budget exhaustion, internal limits);
    indeterminate results are excluded from comparison.
    """

    __slots__ = ("name", "kind", "accepted", "digest", "error_type", "seconds")

    def __init__(self, name: str, kind: str, accepted: Optional[bool],
                 digest: Optional[str] = None,
                 error_type: Optional[str] = None, seconds: float = 0.0):
        self.name = name
        self.kind = kind
        self.accepted = accepted
        self.digest = digest
        self.error_type = error_type
        self.seconds = seconds

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "accepted": self.accepted, "digest": self.digest,
                "error_type": self.error_type,
                "seconds": round(self.seconds, 6)}

    def __repr__(self):
        verdict = {True: "accept", False: "reject", None: "?"}[self.accepted]
        return "BackendResult(%s=%s%s)" % (
            self.name, verdict, " %s" % self.digest if self.digest else "")


class Disagreement:
    """A policy violation: grammar + seed + sentence + per-backend views."""

    __slots__ = ("grammar", "seed", "index", "kind", "token_names",
                 "mutations", "backends", "minimized")

    def __init__(self, grammar: str, seed: int, index: int, kind: str,
                 token_names: Tuple[str, ...], mutations: Tuple[str, ...],
                 backends: Dict[str, BackendResult],
                 minimized: Optional[Tuple[str, ...]] = None):
        self.grammar = grammar
        self.seed = seed
        self.index = index
        self.kind = kind
        self.token_names = tuple(token_names)
        self.mutations = tuple(mutations)
        self.backends = backends
        self.minimized = minimized

    def to_dict(self) -> dict:
        return {
            "grammar": self.grammar,
            "seed": self.seed,
            "index": self.index,
            "kind": self.kind,
            "tokens": list(self.token_names),
            "mutations": list(self.mutations),
            "backends": {n: r.to_dict() for n, r in
                         sorted(self.backends.items())},
            "minimized": list(self.minimized) if self.minimized else None,
        }

    def summary(self) -> str:
        views = ", ".join(
            "%s=%s" % (n, {True: "accept", False: "reject", None: "?"}
                       [r.accepted] + (":" + r.digest if r.digest else ""))
            for n, r in sorted(self.backends.items()))
        lines = ["%s disagreement on %s (seed=%d, sentence #%d, %d tokens)"
                 % (self.kind, self.grammar, self.seed, self.index,
                    len(self.token_names)),
                 "  tokens: %s" % " ".join(self.token_names),
                 "  backends: %s" % views]
        if self.mutations:
            lines.append("  mutations: %s" % " ".join(self.mutations))
        if self.minimized is not None:
            lines.append("  minimized (%d tokens): %s"
                         % (len(self.minimized), " ".join(self.minimized)))
        return "\n".join(lines)


class DifferentialReport:
    """Aggregated outcome of one corpus run against one grammar."""

    def __init__(self, grammar: str, seed: int, n: int):
        self.grammar = grammar
        self.seed = seed
        self.n = n
        self.corpus_size = 0
        self.mutated_count = 0
        self.tokens_total = 0
        self.backend_stats: Dict[str, Dict[str, float]] = {}
        self.stats: Dict[str, int] = {}
        self.disagreements: List[Disagreement] = []
        self.skipped: Dict[str, str] = {}
        self.batch: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def bump(self, key: str, by: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + by

    def note_result(self, result: BackendResult) -> None:
        s = self.backend_stats.setdefault(result.name, {
            "accepted": 0, "rejected": 0, "indeterminate": 0, "seconds": 0.0})
        if result.accepted is True:
            s["accepted"] += 1
        elif result.accepted is False:
            s["rejected"] += 1
        else:
            s["indeterminate"] += 1
        s["seconds"] += result.seconds

    def to_json(self) -> dict:
        return {
            "grammar": self.grammar,
            "seed": self.seed,
            "n": self.n,
            "corpus_size": self.corpus_size,
            "mutated": self.mutated_count,
            "tokens_total": self.tokens_total,
            "ok": self.ok,
            "backends": {n: dict(s, seconds=round(s["seconds"], 6))
                         for n, s in sorted(self.backend_stats.items())},
            "skipped": dict(self.skipped),
            "stats": dict(self.stats),
            "batch": self.batch,
            "disagreements": [d.to_dict() for d in self.disagreements],
        }

    def summary(self) -> str:
        lines = ["%s: %d sentences (%d mutated, %d tokens), %d disagreement(s)"
                 % (self.grammar, self.corpus_size, self.mutated_count,
                    self.tokens_total, len(self.disagreements))]
        for name, s in sorted(self.backend_stats.items()):
            lines.append("  %-12s accept=%d reject=%d indeterminate=%d (%.3fs)"
                         % (name, s["accepted"], s["rejected"],
                            s["indeterminate"], s["seconds"]))
        for name, reason in sorted(self.skipped.items()):
            lines.append("  %-12s skipped: %s" % (name, reason))
        if self.stats:
            lines.append("  stats: " + ", ".join(
                "%s=%d" % kv for kv in sorted(self.stats.items())))
        if self.batch is not None:
            lines.append("  batch cross-check: %d inputs, %d mismatch(es)"
                         % (self.batch["checked"], self.batch["mismatches"]))
        for d in self.disagreements:
            lines.append(d.summary())
        return "\n".join(lines)


class DifferentialRunner:
    """Compiles a grammar once and fans sentences through every backend."""

    def __init__(self, grammar_text: str, name: Optional[str] = None,
                 backends: Optional[Sequence[str]] = None,
                 deadline: float = 20.0, max_k: int = 6):
        self.grammar_text = grammar_text
        self.host = compile_grammar(grammar_text, name=name)
        self.grammar_name = self.host.grammar.name
        self.deadline = deadline
        self.skipped: Dict[str, str] = {}
        requested = tuple(backends) if backends else ALL_BACKENDS
        unknown = [b for b in requested if b not in ALL_BACKENDS]
        if unknown:
            raise ValueError("unknown backend(s) %s; choose from %s"
                             % (", ".join(unknown), ", ".join(ALL_BACKENDS)))
        self._parsers: Dict[str, object] = {}
        for b in requested:
            try:
                self._parsers[b] = self._build_backend(b, max_k)
            except (GrammarError, LLStarError) as exc:
                self.skipped[b] = str(exc)
        self.backends = tuple(self._parsers)

    # -- backend construction ----------------------------------------------

    def _build_backend(self, name: str, max_k: int):
        if name == "interp":
            return None  # the host itself; options built per parse
        if name == "codegen":
            source = generate_python(self.host.analysis)
            namespace: Dict[str, object] = {}
            exec(compile(source, "<fuzz-generated>", "exec"), namespace)
            return [v for v in namespace.values()
                    if isinstance(v, type) and issubclass(v, GeneratedParser)
                    and v is not GeneratedParser][0]
        if name == "llk":
            return LLkParser(self.host.analysis, max_k=max_k)
        if name == "packrat":
            return PackratParser(self.host.grammar)
        if name == "glr":
            return GLRParser(self.host.grammar)
        if name == "earley":
            return EarleyParser(self.host.grammar)
        raise ValueError(name)

    # -- per-sentence execution --------------------------------------------

    def run_sentence(self, token_names: Sequence[str]
                     ) -> Dict[str, BackendResult]:
        results = {}
        for name in self.backends:
            results[name] = self._run_one(name, token_names)
        return results

    def run_backend(self, name: str, token_names: Sequence[str]
                    ) -> BackendResult:
        """Parse one sentence with one backend (leaderboard primitive)."""
        if name not in self._parsers:
            raise ValueError("backend %s unavailable (%s)"
                             % (name, self.skipped.get(name, "not requested")))
        return self._run_one(name, token_names)

    def _run_one(self, name: str, token_names: Sequence[str]) -> BackendResult:
        kind = _KIND[name]
        start = time.perf_counter()
        accepted: Optional[bool] = None
        digest = None
        error_type = None
        try:
            stream = self.host.token_stream_from_types(token_names)
            if name == "interp":
                options = ParserOptions(budget=ParserBudget.defensive(
                    deadline_seconds=self.deadline))
                tree = self.host.parse(stream, options=options)
                accepted, digest = True, tree_digest(tree)
            elif name == "codegen":
                tree = self._parsers[name](stream).parse()
                accepted, digest = True, tree_digest(tree)
            elif name == "llk":
                tree = self._parsers[name].parse(stream)
                accepted, digest = True, tree_digest(tree)
            elif name in ("packrat", "glr", "earley"):
                # The baselines build through the same unified
                # TreeBuilder, so they digest too: their spanned trees
                # are compared against the interpreter's as a soft
                # statistic (ambiguity legitimately picks different
                # derivations), not a hard disagreement.
                tree = self._parsers[name].parse(stream)
                accepted, digest = True, tree_digest(tree)
        except BudgetExceededError as exc:
            accepted, error_type = None, type(exc).__name__
        except RecognitionError as exc:
            accepted, error_type = False, type(exc).__name__
        except GrammarError as exc:
            accepted, error_type = None, type(exc).__name__
        return BackendResult(name, kind, accepted, digest, error_type,
                             time.perf_counter() - start)

    # -- comparison policy --------------------------------------------------

    def judge(self, results: Dict[str, BackendResult]
              ) -> Tuple[List[str], List[str]]:
        """(disagreement kinds, statistic keys) for one result set."""
        kinds: List[str] = []
        stats: List[str] = []
        tree = [r for r in results.values()
                if r.kind == TREE and r.accepted is not None]
        verdicts = {r.accepted for r in tree}
        if len(verdicts) > 1:
            kinds.append("tree-accept")
        elif verdicts == {True} and len({r.digest for r in tree}) > 1:
            kinds.append("tree-digest")
        glr, earley = results.get("glr"), results.get("earley")
        if (glr is not None and earley is not None
                and glr.accepted is not None and earley.accepted is not None
                and glr.accepted != earley.accepted):
            kinds.append("cfg-accept")
        if earley is not None and earley.accepted is False:
            accepting = [r.name for r in results.values()
                         if r.kind in (TREE, PEG) and r.accepted]
            if accepting:
                kinds.append("unsound")
        interp = results.get("interp")
        packrat = results.get("packrat")
        if (interp is not None and packrat is not None
                and interp.accepted is True and packrat.accepted is False):
            stats.append("peg_divergence")
        if interp is not None and interp.digest is not None:
            # Soft span-agreement statistic for the non-LL tree
            # producers: a different digest means a different (equally
            # valid) derivation, worth counting but not a bug.
            for other in (packrat, glr, earley):
                if (other is not None and other.digest is not None
                        and other.digest != interp.digest):
                    stats.append("%s_tree_divergence" % other.name)
        return kinds, stats

    # -- minimization -------------------------------------------------------

    def minimize(self, token_names: Sequence[str], kinds: Sequence[str],
                 max_evals: int = 200) -> Tuple[str, ...]:
        """Greedy ddmin-style token deletion preserving the failure kind."""
        target = set(kinds)

        def still_fails(candidate: Tuple[str, ...]) -> bool:
            found, _ = self.judge(self.run_sentence(candidate))
            return bool(target & set(found))

        names = list(token_names)
        evals = 0
        chunk = max(1, len(names) // 2)
        while chunk >= 1:
            i = 0
            while i < len(names):
                candidate = names[:i] + names[i + chunk:]
                evals += 1
                if evals > max_evals:
                    return tuple(names)
                if candidate != names and still_fails(tuple(candidate)):
                    names = candidate
                else:
                    i += chunk
            chunk //= 2
        return tuple(names)

    # -- corpus driver ------------------------------------------------------

    def run_corpus(self, n: int = 100, seed: int = 42, max_depth: int = 20,
                   max_tokens: int = 160, mutate: float = 0.0,
                   minimize: bool = True, batch: bool = True,
                   jobs: int = 0, max_reports: int = 5
                   ) -> DifferentialReport:
        report = DifferentialReport(self.grammar_name, seed, n)
        report.skipped = dict(self.skipped)
        generator = SentenceGenerator(self.host, seed=seed,
                                      max_depth=max_depth,
                                      max_tokens=max_tokens)
        corpus: List[Sentence] = generator.generate(n)
        if mutate > 0.0:
            extra = max(1, int(round(n * mutate)))
            corpus.extend(generator.mutate(s) for s in corpus[:extra])
        report.corpus_size = len(corpus)
        report.mutated_count = sum(1 for s in corpus if s.mutated)
        interp_verdicts: List[Optional[bool]] = []
        for sentence in corpus:
            report.tokens_total += sentence.size
            results = self.run_sentence(sentence.token_names)
            for r in results.values():
                report.note_result(r)
            kinds, stats = self.judge(results)
            for key in stats:
                report.bump(key)
            interp = results.get("interp")
            interp_verdicts.append(interp.accepted if interp is not None
                                   else None)
            if (not sentence.mutated and interp is not None
                    and interp.accepted is False):
                report.bump("ll_rejected")
            for kind in kinds:
                minimized = None
                if minimize and len(report.disagreements) < max_reports:
                    minimized = self.minimize(sentence.token_names, [kind])
                report.disagreements.append(Disagreement(
                    self.grammar_name, seed, sentence.index, kind,
                    sentence.token_names, sentence.mutations, results,
                    minimized=minimized))
        if sum(1 for s in corpus if s.text is not None):
            report.bump("rendered_texts",
                        sum(1 for s in corpus if s.text is not None))
        if batch and "interp" in self.backends:
            self._batch_cross_check(corpus, interp_verdicts, report, jobs)
        return report

    def _batch_cross_check(self, corpus: List[Sentence],
                           interp_verdicts: List[Optional[bool]],
                           report: DifferentialReport, jobs: int) -> None:
        """The batch pipeline must agree with the in-process interpreter
        on every sentence that renders to source text."""
        from repro.batch import BatchEngine

        renderable = [(i, s) for i, s in enumerate(corpus)
                      if s.text is not None and interp_verdicts[i] is not None]
        if not renderable:
            report.batch = {"checked": 0, "mismatches": 0}
            return
        engine = BatchEngine(self.grammar_text, name=self.grammar_name,
                             jobs=jobs)
        batch_report = engine.run([("s%d" % i, s.text)
                                   for i, s in renderable])
        mismatches = 0
        by_id = {r.input_id: r for r in batch_report.results}
        for i, sentence in renderable:
            result = by_id.get("s%d" % i)
            if result is None or result.error_type == "BudgetExceededError":
                continue
            if bool(result.ok) != interp_verdicts[i]:
                mismatches += 1
                report.disagreements.append(Disagreement(
                    self.grammar_name, report.seed, sentence.index, "batch",
                    sentence.token_names, sentence.mutations,
                    {"batch": BackendResult("batch", TREE, bool(result.ok),
                                            error_type=result.error_type)}))
        report.batch = {"checked": len(renderable), "mismatches": mismatches}


def run_suite(grammar_names: Optional[Sequence[str]] = None,
              backends: Optional[Sequence[str]] = None,
              **corpus_kwargs) -> Dict[str, DifferentialReport]:
    """Run the differential corpus over the paper's benchmark grammars."""
    from repro.grammars import PAPER_ORDER, load

    reports = {}
    for name in grammar_names or PAPER_ORDER:
        bench = load(name)
        runner = DifferentialRunner(bench.grammar_text, name=name,
                                    backends=backends)
        reports[name] = runner.run_corpus(**corpus_kwargs)
    return reports
