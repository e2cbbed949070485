"""Figure-5 prediction: the one lookahead-DFA executor every parser uses.

At a decision point the parser runs the decision's lookahead DFA (the
paper's Figure 5 configuration-change rules): follow token edges while
they match; on an accept state, predict that alternative.  A state
carrying predicate edges evaluates them in alternative order — a user
predicate is evaluated against the calling rule's locals, a synpred
launches a speculative parse of its fragment rule (backtracking), and a
``None`` predicate is the ordered-choice default.  ANTLR 3 works the
same way: each generated parser embeds its DFA tables and calls one
runtime ``DFA.predict``.

:class:`Predictor` is that runtime.  The interpreter
(:class:`~repro.runtime.parser.LLStarParser`) and generated parsers
(:class:`~repro.codegen.support.GeneratedParser`) both extend it and
supply only what differs between them:

* :meth:`Predictor._decision_table` — where a decision's flat
  :class:`~repro.tables.lookahead.DecisionTable` comes from;
* :meth:`Predictor._run_synpred` — how a synpred fragment rule runs;
* :meth:`Predictor._eval_predicate` — how predicate code is evaluated.

The walk executes the table through its derived execution index: a
fixed-k=1 prediction (the common case per the paper's Table 2) is a
single dict probe, and deeper walks touch only list indexing and
per-state ``token -> target`` dicts — no attribute chases, no
allocation.

Failed predictions are reported at the token that killed the DFA, or at
the deepest token a failed speculation reached when every gate failed
beyond it (Section 4.4).

The predictor also owns the parse's one ``(rule name, start index)``
memo (Section 6.2): what one invocation of a parameterless rule did at
that index.  Speculation reads and writes it, which keeps nested
backtracking linear; an incremental reparse seeds it with the previous
tree's reusable subtrees (see :mod:`repro.runtime.incremental`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import (
    BudgetExceededError,
    NoViableAltError,
    RecognitionError,
)
from repro.runtime.telemetry import ParseTally

#: A memo entry's stop index for an invocation that failed.
_MEMO_FAILED = -2


class Predictor:
    """Per-parse prediction state plus the Figure-5 table walk.

    ``budget`` and ``telemetry`` are the optional instruments of
    :class:`~repro.runtime.parser.ParserOptions`; ``None`` keeps each
    hook a single check on the hot path.  With a telemetry attached the
    parse counts its committed predictions, rules and speculations in a
    :class:`~repro.runtime.telemetry.ParseTally`, which the subclass's
    ``parse`` folds in when it returns or raises (:meth:`_report_parse`);
    a ``per_event`` telemetry (a trace) gets each prediction and
    speculation as it happens instead.

    ``seed`` (a mapping ``(rule name, start index) -> RuleNode``, possibly
    empty) starts the memo with subtrees from a previous parse and turns
    on reach tracking; ``None`` leaves both off.
    """

    def __init__(self, stream, n_decisions: int, budget=None, telemetry=None,
                 seed=None):
        self.stream = stream
        self._budget = budget
        self._telemetry = telemetry
        self._tally = None
        self._per_event = False
        if telemetry is not None:
            self._tally = ParseTally(n_decisions)
            self._per_event = telemetry.per_event
        self._speculating = 0
        # Highest stream index any active speculation has consumed up
        # to; synpred depth is measured from it.
        self._deepest_spec_index = -1
        # Budget accounting (limits live in ``budget``).
        self._dfa_steps = 0
        self._synpred_calls = 0
        self._deadline: Optional[float] = None
        # Per-decision (table, start, arrays...) rows, unpacked lazily on
        # first prediction so the hot path pays one list index + tuple
        # unpack instead of a property call and six attribute fetches.
        self._table_rows: List[Optional[tuple]] = [None] * n_decisions
        # The (rule name, start index) memo.  An entry is the stop index
        # of a match (the stream index after it) or _MEMO_FAILED; with
        # reach tracking on, a (stop, reach) pair; or a RuleNode seeded
        # from a previous parse (stop ``node.stop + 1``, reach
        # ``node.look_stop``).
        self._memo: Dict[Tuple[str, int], Any] = (
            {} if seed is None else dict(seed))
        # Reach tracking, for incremental reparsing: ``_reach`` is the
        # highest token index the innermost open rule invocation has
        # examined so far (its predictions and speculations, its nested
        # rules, replayed memo hits); the invocation saves and resets it
        # on entry and raises the saved value by its own reach on exit.
        self._track_look = seed is not None
        self._reach = -1

    @property
    def speculating(self) -> bool:
        return self._speculating > 0

    # -- what subclasses supply ------------------------------------------------

    def _decision_table(self, decision: int):
        """``(table, degraded)`` for ``decision``: its flat table, and
        whether it had to be rebuilt at parse time."""
        raise NotImplementedError

    def _run_synpred(self, name: str) -> None:
        """Run synpred fragment rule ``name`` at the current position;
        raise :class:`~repro.exceptions.RecognitionError` on failure."""
        raise NotImplementedError

    def _eval_predicate(self, predicate, frame: Dict[str, Any]) -> bool:
        """Evaluate a semantic predicate's code against ``frame``."""
        raise NotImplementedError

    # -- the (rule, start) memo ------------------------------------------------

    def _memo_replay(self, entry, rule_name: str) -> None:
        """Replay memo ``entry`` for a speculative invocation of
        ``rule_name`` at the current index: raise the reach by the
        entry's, then seek past a match or raise the memoized failure."""
        if self._track_look:
            if type(entry) is tuple:
                stop, reach = entry
            else:  # a subtree seeded from a previous parse
                stop, reach = entry.stop + 1, entry.look_stop
            if reach > self._reach:
                self._reach = reach
        else:  # without reach tracking an entry is a bare stop index
            stop = entry
        if stop == _MEMO_FAILED:
            raise RecognitionError(
                "memoized failure of rule %s" % rule_name,
                token=self.stream.lt(1), index=self.stream.index)
        self.stream.seek(stop)

    def _memo_enter(self, rule_name: str) -> bool:
        """A generated rule method's memo probe: True when a memoized
        match moved the stream past the rule; raises on a memoized
        failure.  Only speculation reads the memo."""
        if self._speculating:
            entry = self._memo.get((rule_name, self.stream.index))
            if entry is not None:
                self._memo_replay(entry, rule_name)
                return True
        return False

    def _memo_exit(self, rule_name: str, start_index: int,
                   failed: bool) -> None:
        """A generated rule method's memo write: only speculation
        records outcomes."""
        if self._speculating:
            self._memo[(rule_name, start_index)] = (
                _MEMO_FAILED if failed else self.stream.index)

    # -- telemetry -------------------------------------------------------------

    def _report_parse(self) -> None:
        """Fold this parse's tally into the telemetry (one lock
        acquisition); the tally starts again from zero."""
        if self._tally is not None:
            self._telemetry.record_parse(self._tally)

    def _report_prediction(self, decision: int, k: int,
                           used_predicates: bool, backtracked: bool,
                           backtrack_depth: int, degraded: bool) -> None:
        """Count a committed prediction other than a one-token DFA hit,
        or deliver any prediction to a ``per_event`` telemetry."""
        fallbacks = ()
        if used_predicates:
            fallbacks = ("synpred",) if backtracked else ("predicates",)
        if degraded:
            fallbacks += ("degraded",)
        if self._per_event:
            self._telemetry.record_predict(
                decision, k, not fallbacks, backtracked, backtrack_depth,
                fallbacks)
            return
        key = (decision, k, backtracked, backtrack_depth, fallbacks)
        predictions = self._tally.predictions
        predictions[key] = predictions.get(key, 0) + 1

    # -- prediction ------------------------------------------------------------

    def _check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceededError(
                "deadline", self._budget.deadline_limit,
                token=self.stream.lt(1), index=self.stream.index)

    def _adaptive_predict(self, decision: int, frame: Dict[str, Any]) -> int:
        """Run the lookahead DFA for ``decision`` (Figure 5 rules).

        Returns the predicted 1-based alternative.  Counts a committed
        prediction in the tally, with the lookahead depth used, any
        backtracking, and why it left the DFA.
        """
        degraded = False
        row = self._table_rows[decision]
        if row is None:
            table, degraded = self._decision_table(decision)
            fast, rows = table.execution_index()
            row = (table, table.start, fast.get, rows, table.accept_alt,
                   table.pred_index)
            self._table_rows[decision] = row
        # Bind everything the hot loop touches to locals once.
        table, start, fast_get, rows, accept_alt, pred_index = row
        la = self.stream.la
        budget = self._budget
        max_steps = budget.max_dfa_steps if budget is not None else None
        deadline = self._deadline
        steps = self._dfa_steps  # local counter, written back in finally
        offset = 0  # tokens of lookahead consumed along DFA edges
        probed = 0  # deepest la() offset actually examined
        backtracked = False
        backtrack_depth = 0
        used_predicates = False
        try:
            # One-probe fast path: start-state edges landing directly on
            # an accept state (the fixed-k=1 majority).  Step/budget
            # accounting matches the two loop iterations it replaces.
            alt = fast_get(la(1))
            if alt is not None:
                offset = 1
                probed = 1
                steps += 2
                if max_steps is not None and steps > max_steps:
                    raise BudgetExceededError(
                        "dfa steps", max_steps, spent=steps,
                        token=self.stream.lt(1), index=self.stream.index)
                if deadline is not None and steps & 63 == 0:
                    self._check_deadline()
                return alt
            probed = 1  # the fast-path miss still examined la(1)
            state = start
            while True:
                steps += 1
                if max_steps is not None and steps > max_steps:
                    raise BudgetExceededError(
                        "dfa steps", max_steps, spent=steps,
                        token=self.stream.lt(offset + 1),
                        index=self.stream.index + offset)
                if deadline is not None and steps & 63 == 0:
                    self._check_deadline()
                alt = accept_alt[state]
                if alt > 0:
                    return alt
                token_type = la(offset + 1)
                if offset >= probed:
                    probed = offset + 1
                nxt = rows[state].get(token_type)
                if nxt is not None:
                    offset += 1
                    state = nxt
                    continue
                stop = self.stream.index + offset
                if pred_index[state] != pred_index[state + 1]:
                    used_predicates = True
                    # Gates can speculate (nested predictions read the
                    # shared step counter) — sync it around the call.
                    self._dfa_steps = steps
                    alt, backtracked, backtrack_depth, failure = \
                        self._evaluate_gates(table, state, frame)
                    steps = self._dfa_steps
                    if alt is not None:
                        return alt
                    if failure is not None and (failure.index or 0) > stop:
                        # Every gate failed, and a speculation got past
                        # the token that stopped the DFA: its deepest
                        # failure is the more precise error location.
                        raise NoViableAltError(decision, failure.token,
                                               failure.index,
                                               rule_name=table.rule_name)
                raise NoViableAltError(decision, self.stream.lt(offset + 1),
                                       stop, rule_name=table.rule_name)
        finally:
            self._dfa_steps = steps
            if self._track_look and probed:
                # Tokens [index, index + probed - 1] were examined here;
                # the gates' speculations raised the reach themselves
                # (each is a rule invocation that closes into it).
                reach = self.stream.index + probed - 1
                if reach > self._reach:
                    self._reach = reach
            tally = self._tally
            if tally is not None and not self._speculating:
                if (offset > 1 or used_predicates or degraded
                        or self._per_event):
                    self._report_prediction(
                        decision, max(offset, 1), used_predicates,
                        backtracked, backtrack_depth, degraded)
                else:
                    tally.dfa_k1[decision] += 1

    def _evaluate_gates(self, table, state: int, frame: Dict[str, Any]):
        """Try ``state``'s predicate edges in stored (evaluation) order;
        the first passing gate predicts.

        Each edge carries a hoisted semantic context (AND/OR tree over
        predicates, interned in the table's pool); synpred leaves
        evaluate by speculative parsing.  Returns ``(alt, backtracked,
        depth, failure)``: ``alt`` is None when every gate failed, and
        ``failure`` is then the deepest error a failed speculation of
        *this* evaluation reached (None if none speculated).
        """
        backtracked = False
        deepest = 0
        failure: Optional[RecognitionError] = None

        def eval_leaf(predicate) -> bool:
            nonlocal backtracked, deepest, failure
            if not predicate.is_synpred:
                return self._eval_predicate(predicate, frame)
            backtracked = True
            error, depth = self._eval_synpred(predicate.synpred)
            if depth > deepest:
                deepest = depth
            if error is not None and (
                    failure is None or (error.index or 0) >= (failure.index or 0)):
                failure = error
            return error is None

        contexts = table.pool.contexts
        pred_ctx = table.pred_ctx
        pred_alt = table.pred_alt
        for i in range(table.pred_index[state], table.pred_index[state + 1]):
            c = pred_ctx[i]
            # A negative context is the default edge: ordered-choice fallback.
            if c < 0 or contexts[c].evaluate(eval_leaf):
                return pred_alt[i], backtracked, deepest, None
        return None, backtracked, deepest, failure

    def _eval_synpred(self, name: str) -> Tuple[Optional[RecognitionError], int]:
        """Speculatively parse the synpred fragment rule ``name``.

        Returns ``(error, depth)``: the error that ended a failed
        speculation (None when the fragment matched) and the speculation
        depth in tokens — the deepest index reached, nested speculation
        included.  The stream is always rewound; actions stay off.
        """
        budget = self._budget
        if budget is not None:
            self._synpred_calls += 1
            if (budget.max_synpred_invocations is not None
                    and self._synpred_calls > budget.max_synpred_invocations):
                raise BudgetExceededError(
                    "synpred invocations", budget.max_synpred_invocations,
                    spent=self._synpred_calls, token=self.stream.lt(1),
                    index=self.stream.index)
            if (budget.max_backtrack_depth is not None
                    and self._speculating + 1 > budget.max_backtrack_depth):
                raise BudgetExceededError(
                    "backtrack depth", budget.max_backtrack_depth,
                    spent=self._speculating + 1, token=self.stream.lt(1),
                    index=self.stream.index)
            self._check_deadline()
        stream = self.stream
        mark = stream.mark()
        self._speculating += 1
        prev_deepest = self._deepest_spec_index
        self._deepest_spec_index = mark
        tel = self._telemetry
        if tel is not None:
            # Two clock reads, or a span when its order is observable.
            if self._per_event:
                spec_span = tel.start_span("synpred:" + name, mark)
            else:
                started = tel.clock()
        error = None
        matched = False
        try:
            self._run_synpred(name)
            matched = True
        except RecognitionError as e:
            error = e
        finally:
            depth = max(self._deepest_spec_index, stream.index) - mark
            self._deepest_spec_index = max(prev_deepest, self._deepest_spec_index)
            self._speculating -= 1
            if tel is not None:
                tally = self._tally
                if self._per_event:
                    tel.end_span(spec_span, stream.index, not matched)
                else:
                    tally.synpred_seconds.append(tel.clock() - started)
                if matched:
                    tally.synpreds_matched += 1
                else:
                    tally.synpreds_failed += 1
            # The memo table persists for the whole parse (ANTLR policy):
            # repeated speculation of the same rule at the same position
            # across decisions is what makes nested backtracking linear.
            stream.seek(mark)
            release = getattr(stream, "release", None)
            if release is not None:
                release(mark)  # lets streaming streams shrink their window
        return error, depth
