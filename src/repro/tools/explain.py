"""Decision explanation: narrate a lookahead-DFA walk step by step.

The paper's case for top-down parsing is that programmers can see what
the parser will do (Section 1: one-to-one grammar/parser mapping,
source-level debugging).  The lookahead DFA is the one opaque artifact,
so ``llstar explain`` makes it transparent: given a decision and an
input, print every edge the DFA takes, where it accepts, and which
predicate or synpred edges it would consult.
"""

from __future__ import annotations

from typing import List, Optional

from repro.runtime.token_stream import TokenStream


def source_excerpt(source: str, start: int, stop: Optional[int] = None,
                   prefix: str = "") -> str:
    """Compiler-style excerpt: the source line containing char offset
    ``start`` with a caret underline covering ``start..stop`` (``stop``
    exclusive; defaults to one caret).

    Offsets come from token ``start``/``stop`` or a tree node's
    :meth:`~repro.runtime.trees.ParseTree.source_span` — the exact
    char-offset provenance the span-carrying tree core records.
    Returns ``""`` when ``start`` is out of range (e.g. the ``-1`` of a
    recovery-synthesized token), so callers can print unconditionally.
    """
    if source is None or not 0 <= start <= len(source):
        return ""
    if stop is None or stop <= start:
        stop = start + 1
    line_start = source.rfind("\n", 0, start) + 1
    line_end = source.find("\n", start)
    if line_end == -1:
        line_end = len(source)
    line = source[line_start:line_end]
    caret_at = start - line_start
    # Tabs in the prefix keep their width in the underline so the
    # carets land under the right columns.
    pad = "".join("\t" if ch == "\t" else " " for ch in line[:caret_at])
    width = max(1, min(stop, line_end) - start)
    return ("%s%s\n%s%s%s" % (prefix, line, prefix, pad, "^" * width))


def token_excerpt(source: str, token, prefix: str = "") -> str:
    """:func:`source_excerpt` for one token's char-offset range."""
    return source_excerpt(source, token.start, token.stop, prefix=prefix)


class PredictionTrace:
    """Step-by-step record of one DFA walk."""

    def __init__(self, decision: int, rule_name: str, category: str):
        self.decision = decision
        self.rule_name = rule_name
        self.category = category
        self.steps: List[str] = []
        self.predicted_alt: Optional[int] = None
        self.lookahead_used = 0
        self.stopped_at_predicates = False

    def render(self) -> str:
        lines = ["decision %d (rule %s, %s)" % (self.decision, self.rule_name,
                                                self.category)]
        lines.extend("  " + s for s in self.steps)
        if self.predicted_alt is not None:
            lines.append("=> predict alternative %d after %d token(s) of lookahead"
                         % (self.predicted_alt, self.lookahead_used))
        elif self.stopped_at_predicates:
            lines.append("=> resolution requires runtime predicate/synpred "
                         "evaluation (listed above)")
        else:
            lines.append("=> no viable alternative: the DFA has no edge for "
                         "the next token")
        return "\n".join(lines)


def explain_prediction(analysis, decision: int, stream: TokenStream) -> PredictionTrace:
    """Walk the decision's DFA table against ``stream`` without consuming it.

    A degraded decision is rebuilt first, exactly as the parser would on
    first use.  Predicate edges are *described*, not evaluated
    (evaluation needs a live parser frame); the trace shows exactly what
    the parser would test and in which order.
    """
    table = analysis.decision_table(decision)
    record = analysis.records[decision]
    vocabulary = analysis.grammar.vocabulary
    trace = PredictionTrace(decision, record.rule_name, record.category)

    _fast, rows = table.execution_index()
    contexts = table.pool.contexts
    state = table.start
    offset = 0
    while True:
        alt = table.accept_alt[state]
        if alt:
            trace.predicted_alt = alt
            trace.lookahead_used = offset
            trace.steps.append("D%d is an accept state for alternative %d"
                               % (state, alt))
            return trace
        token = stream.lt(offset + 1)
        token_name = vocabulary.name_of(token.type)
        nxt = rows[state].get(token.type)
        if nxt is not None:
            trace.steps.append("D%d --%s (%r)--> D%d"
                               % (state, token_name, token.text, nxt))
            state = nxt
            offset += 1
            continue
        gates = range(table.pred_index[state], table.pred_index[state + 1])
        if gates:
            trace.stopped_at_predicates = True
            trace.lookahead_used = offset
            for i in gates:
                ctx, alt = table.pred_ctx[i], table.pred_alt[i]
                if ctx < 0:
                    trace.steps.append(
                        "D%d: default edge -> alternative %d" % (state, alt))
                else:
                    trace.steps.append(
                        "D%d: if %r -> alternative %d"
                        % (state, contexts[ctx], alt))
            return trace
        trace.lookahead_used = offset
        trace.steps.append("D%d has no edge on %s (%r)"
                           % (state, token_name, token.text))
        return trace


def explain_all_matching(analysis, stream: TokenStream,
                         rule_name: Optional[str] = None) -> List[PredictionTrace]:
    """Explain every decision of ``rule_name`` (or all rules) against the
    stream's current position."""
    traces = []
    for record in analysis.records:
        if rule_name is not None and record.rule_name != rule_name:
            continue
        traces.append(explain_prediction(analysis, record.decision, stream))
    return traces
