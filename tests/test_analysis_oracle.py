"""Independent oracle for the fixed-k lookahead depths Table 2 reports.

LL(*) analysis classifies a decision FIXED when its lookahead DFA is
acyclic, and reports the DFA's depth as the decision's ``fixed_k``.  The
golden digests compare the analyzer only with its own past; this test
checks the claim against an exact, independent computation instead:
:class:`~repro.baselines.llk.FixedKAnalyzer` enumerates explicit FIRST_k
token tuples per alternative from the ATN and finds the smallest k at
which they are disjoint (Belcak, "The LL(finite) strategy for optimal
LL(k) parsing").

* A FIXED decision without an ambiguity diagnostic must be exactly
  LL(``fixed_k``): deterministic at ``fixed_k``, not at any smaller k.
* A FIXED decision with an ambiguity diagnostic was resolved by
  production order, so no k up to ``fixed_k + 1`` makes it
  deterministic.
"""

import pytest

from repro.analysis.decisions import FIXED
from repro.analysis.diagnostics import AnalysisDiagnostic
from repro.baselines.llk import FixedKAnalyzer
from repro.grammars import PAPER_ORDER, load


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_fixed_k_matches_exact_ll_k(name):
    analysis = load(name).compile().analysis
    ambiguous = {d.decision for d in analysis.diagnostics
                 if d.kind == AnalysisDiagnostic.AMBIGUITY}
    oracle = FixedKAnalyzer(analysis.atn)
    fixed = [r for r in analysis.records if r.category == FIXED]
    assert fixed, "suite grammar %s has no fixed-k decisions" % name
    mismatches = []
    for record in fixed:
        expected = None if record.decision in ambiguous else record.fixed_k
        exact = oracle.ll_k_for(record.decision, max_k=record.fixed_k + 1)
        if exact != expected:
            mismatches.append((record.decision, record.rule_name,
                               record.fixed_k, exact))
    assert mismatches == [], \
        "(decision, rule, analysis fixed_k, exact LL(k)) disagree"
