"""The analyzer's object-graph DFA, rebuilt for tests.

After analysis a decision keeps only its flat
:class:`~repro.tables.lookahead.DecisionTable`.  Tests that inspect what
subset construction built (states, token edges, predicate edges), and
the table≡DFA sweep that checks tables against an independent graph
walk, take a DFA that :class:`DecisionAnalyzer` constructs afresh with
the options and start rule the analysis ran with.
"""

from repro.analysis.construction import DecisionAnalyzer


def build_dfa(analysis, decision):
    """Construct ``decision``'s lookahead DFA the way ``analysis`` did."""
    return DecisionAnalyzer(analysis.atn, decision,
                            start_rule=analysis.grammar.start_rule,
                            options=analysis.options).create_dfa()
