"""The LL(*) parser: a rule-program interpreter with DFA-driven prediction.

The interpreter runs each parser rule as its lowered
:class:`~repro.atn.program.RuleProgram` (Section 4's parser shape:
straight-line matches and calls, one prediction switch per decision),
built once per ATN on the first parse.  At every PREDICT op it asks
:class:`~repro.runtime.predict.Predictor`, the one Figure-5 executor
shared with generated parsers, to run the decision's lookahead DFA
table.  This module supplies the interpreter's side of that contract:
tables come from the analysis records (a degraded decision is rebuilt
on the fly), synpred fragments run through :meth:`LLStarParser._run_rule`,
and predicate code is ``eval``-ed against the action environment.

Error recovery is the parser's own, and reads only the ATN: the ops keep
their ATN transitions, and the continuation sets
(:class:`~repro.analysis.sets.GrammarSets`) are keyed by ATN states.  A
parse without ``recover`` raises at the first mismatch and computes no
set.  With it, a mismatched MATCH is repaired inline (single-token
deletion, then insertion); any other error is reported and resynced in
panic mode, and reports are cascade-aware (ANTLR's
``beginErrorCondition``/``reportMatch`` protocol).  Every repair is
recorded as an :class:`~repro.runtime.trees.ErrorNode` in the tree.

Speculation machinery (Section 4):

* actions are disabled while speculating, except ``{{...}}``
  always-exec actions (Section 4.3);
* rule invocations are memoized per ``(rule, token index)`` *only while
  speculating* (the paper's policy: "ANTLR only memoizes while
  speculating"), turning nested backtracking from exponential to linear
  like a packrat parser; the table is the predictor's, which an
  incremental reparse seeds with reusable subtrees;
* prediction errors are reported at the specific token that killed the
  DFA or the deepest token a failed speculation reached (Section 4.4).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.atn.program import (
    CALL,
    MATCH,
    MATCH_SET,
    PREDICATE,
    PREDICT,
    RuleProgram,
    rule_programs,
)
from repro.exceptions import (
    ActionError,
    BudgetExceededError,
    FailedPredicateError,
    GrammarError,
    MismatchedTokenError,
    RecognitionError,
)
from repro.runtime.budget import ParserBudget
from repro.runtime.predict import _MEMO_FAILED, Predictor
from repro.runtime.token import EOF, Token
from repro.runtime.token_stream import TokenStream
from repro.runtime.trees import ErrorNode, RuleNode, TreeBuilder

_EOF_ONLY: FrozenSet[int] = frozenset([EOF])


class ParserOptions:
    """Runtime knobs.

    ``memoize``: cache speculative rule invocations (packrat-style);
    off, speculation reads no memo entry, seeded ones included.
    ``build_tree``: construct a parse tree (off for pure recognition).
    ``user_state``: arbitrary object exposed to actions/predicates as
    ``state``.
    ``action_globals``: extra names visible to embedded Python code.
    ``recover``: repair errors instead of raising (see below).
    ``budget``: a :class:`~repro.runtime.budget.ParserBudget` of resource
    limits; crossing one raises
    :class:`~repro.exceptions.BudgetExceededError`.
    ``telemetry``: a :class:`~repro.runtime.telemetry.ParseTelemetry`,
    the parser's one observer: per-decision statistics (Tables 3-4),
    metrics, spans and, as a ``TraceTelemetry``, a trace.
    ``reuse``: a mapping ``(rule name, start index) -> RuleNode`` of
    subtrees from a previous parse of (mostly) the same tokens, which
    seeds the parser's rule memo.  Speculation seeks past a seeded
    subtree as past a memoized match; the committed parse grafts it and
    advances the stream past it.  Passing a mapping, even an empty one,
    also turns on the purity and reach bookkeeping that makes the *new*
    tree reusable in turn.
    """

    def __init__(self, memoize: bool = True, build_tree: bool = True,
                 user_state: Any = None,
                 action_globals: Optional[Dict[str, Any]] = None,
                 recover: bool = False, budget: Optional[ParserBudget] = None,
                 telemetry=None, reuse=None):
        self.memoize = memoize
        self.build_tree = build_tree
        self.user_state = user_state
        self.action_globals = dict(action_globals) if action_globals else {}
        # Recovery: inline repair of a mismatched token (single-token
        # deletion or insertion); failing that, panic mode — on an
        # error inside rule A (outside speculation), report it, consume
        # tokens until a token some rule on the invocation stack can
        # use (sync-and-return), and continue — so one parse surfaces
        # *all* the input's errors, the deterministic-LL error-handling
        # advantage of Section 1.  Without it a parse fails fast.
        self.recover = recover
        self.budget = budget
        self.telemetry = telemetry
        self.reuse = reuse


class LLStarParser(Predictor):
    """Interpreted LL(*) parser over an analysed grammar.

    Build one per parse (it owns per-parse state: memo table, error
    list, speculation depth).  ``analysis`` is the result of
    :func:`repro.analysis.analyze`; ``stream`` a rewindable token
    stream.
    """

    def __init__(self, analysis, stream: TokenStream,
                 options: Optional[ParserOptions] = None):
        options = options or ParserOptions()
        super().__init__(stream, len(analysis.records),
                         budget=options.budget, telemetry=options.telemetry,
                         seed=options.reuse)
        self.analysis = analysis
        self.grammar = analysis.grammar
        self.atn = analysis.atn
        self.options = options
        self.vocabulary = self.grammar.vocabulary
        # Rule name -> lowered program, shared by every parser of the ATN.
        self._programs = rule_programs(self.atn, self.grammar)
        # Per-parse copies of the options the rule loop reads on every
        # invocation (``recognize`` switches ``_build_tree`` off).
        self._build_tree = options.build_tree
        self._memoize = options.memoize
        self._recover_errors = options.recover
        self.errors: List[RecognitionError] = []
        self._last_recovery_index = -1
        # While True, subsequent errors are cascades of one mistake and
        # are resynced silently; cleared when a token matches for real.
        self._error_recovery_mode = False
        # Invocation stack of (follow_state, caller_rule) pairs, one per
        # active rule call; error recovery derives per-ATN-state resync
        # sets from it (ANTLR's combined-follow computation).
        self._follow_stack: List[Tuple[Any, str]] = []
        # All tree construction goes through the builder: it assigns
        # token-index spans, parent pointers, and the source-text record
        # (see DESIGN.md "Tree core & transformation layer").  Its
        # innermost open rule is also where inline and panic-mode
        # repairs attach their ErrorNodes.
        self._builder = TreeBuilder(source=stream.source)
        # Budget accounting beyond prediction's (limits live in
        # options.budget).
        self._rule_depth = 0
        self._recovery_attempts: Dict[int, int] = {}
        # Structured degradation events (missing DFAs rebuilt on the fly).
        self.degradations: List[Any] = []
        # Incremental-reparse state (see repro.runtime.incremental).
        # ``_seeded``: the memo holds subtrees the committed parse may
        # graft.  ``_impure_ops`` counts derivation-affecting side
        # operations (actions, predicates, repairs); a rule whose
        # open/close counts match derived itself purely from tokens.
        # ``reused_nodes``/``reused_tokens`` count this parse's grafts.
        self._seeded = bool(self._memo)
        self._impure_ops = 0
        self.reused_nodes = 0
        self.reused_tokens = 0

    # -- public entry points --------------------------------------------------------

    def parse(self, rule_name: Optional[str] = None, require_eof: bool = True):
        """Parse from ``rule_name`` (default: grammar start rule).

        Returns the parse tree root (or None when tree building is off).
        Raises :class:`RecognitionError` subclasses on bad input, and
        :class:`~repro.exceptions.GrammarError` when ``rule_name`` is not
        a parser rule.  Either way the parse's tally reaches the
        telemetry.
        """
        try:
            return self._parse(rule_name, require_eof)
        finally:
            self._report_parse()

    def _parse(self, rule_name: Optional[str], require_eof: bool):
        if rule_name is None:
            rule_name = self.grammar.start_rule
        program = self._program(rule_name)
        budget = self._budget
        if budget is not None:
            self._deadline = budget.deadline_from_now()
        node = self._run_rule(program, ())
        if require_eof and self.stream.la(1) != EOF:
            error = MismatchedTokenError("EOF", self.stream.lt(1),
                                         self.stream.index, rule_name=rule_name)
            if not self._recover_errors:
                raise error
            reported = self._report(error)
            skipped = self._resync(_EOF_ONLY)
            if self._telemetry is not None:
                self._telemetry.record_recovery("eof-drain", len(skipped))
            if node is not None and (reported or skipped):
                # The root is already closed; extend its span over the
                # drained tail so it still covers the whole tree.
                err = ErrorNode(error=error if reported else None,
                                tokens=skipped, at=self.stream.index)
                node.add(err)
                node.look_stop = -1  # repaired: not reusable
                if err.stop > node.stop:
                    node.stop = err.stop
        return node

    def recognize(self, rule_name: Optional[str] = None, require_eof: bool = True) -> bool:
        """Pure recognition: True iff the input parses."""
        saved = self._build_tree
        self._build_tree = False
        try:
            self.parse(rule_name, require_eof=require_eof)
            return True
        except RecognitionError:
            return False
        finally:
            self._build_tree = saved

    # -- core interpreter ---------------------------------------------------------------

    def _program(self, rule_name: str) -> RuleProgram:
        program = self._programs.get(rule_name)
        if program is None:
            self.grammar.rule(rule_name)  # unknown name: "no rule named ..."
            raise GrammarError("rule %s is a lexer rule, not a parser rule"
                               % rule_name)
        return program

    def _run_rule(self, program: RuleProgram, arg_values) -> Optional[RuleNode]:
        rule_name = program.name
        memo_key = None
        # The one probe of the (rule, start) memo, for a parameterless
        # rule (a parameterized one may depend on its arguments).
        # Speculation replays any entry: a memoized match or failure, or
        # a subtree seeded from a previous parse, which derived this
        # rule here from tokens that have not changed.  The committed
        # path of a seeded parse grafts such a subtree and removes its
        # entry — except in recovery mode, where grafting would skip the
        # match that ends cascade suppression.
        if ((self._memoize if self._speculating else self._seeded)
                and not program.params):
            memo_key = (rule_name, self.stream.index)
            entry = self._memo.get(memo_key)
            if entry is not None:
                if self._speculating:
                    self._memo_replay(entry, rule_name)
                    return None  # tree building is off while speculating
                if (type(entry) is RuleNode and self._build_tree
                        and not self._error_recovery_mode):
                    del self._memo[memo_key]
                    return self._graft(entry)

        # The builder opens a node at the entry stream position; the
        # node attaches to its parent only at close, so a failed rule
        # (no recovery) leaves nothing behind in the tree.
        node = (self._builder.open_rule(rule_name, self.stream.index)
                if self._build_tree and not self._speculating
                else None)
        if program.params:
            frame: Dict[str, Any] = dict(zip(program.params, arg_values))
            frame["ctx"] = node
        else:
            frame = {"ctx": node}
        failed = True
        track = self._track_look
        if track:
            impure_mark = self._impure_ops
            outer_reach = self._reach
            self._reach = -1
        tel = self._telemetry
        rule_span = None
        if tel is not None and not self._speculating:
            self._tally.rules += 1
            if tel.trace_rules:
                rule_span = tel.start_span("rule:" + rule_name,
                                           self.stream.index)
        self._rule_depth += 1
        try:
            budget = self._budget
            if budget is not None:
                if (budget.max_rule_depth is not None
                        and self._rule_depth > budget.max_rule_depth):
                    raise BudgetExceededError(
                        "rule depth", budget.max_rule_depth,
                        spent=self._rule_depth, token=self.stream.lt(1),
                        index=self.stream.index)
                self._check_deadline()
            try:
                self._walk(program, frame, node)
                failed = False
            except RecognitionError as error:
                if track:
                    reach = self._close_reach(outer_reach, self.stream.index)
                    if memo_key is not None and self._speculating:
                        self._memo[memo_key] = (_MEMO_FAILED, reach)
                elif memo_key is not None:
                    self._memo[memo_key] = _MEMO_FAILED
                if self._recover_errors and not self._speculating:
                    self._recover(error)
                    if node is not None:
                        self._builder.close_rule(self.stream.index)
                    return node
                raise
        except BaseException:
            # A rule that recovered closed its node and returned.
            if node is not None:
                self._builder.abandon_rule()
            raise
        finally:
            self._rule_depth -= 1
            if rule_span is not None:
                tel.end_span(rule_span, self.stream.index, failed)
        # Only speculation records outcomes.  Without reach tracking
        # nothing is seeded, so only speculation probed (set memo_key).
        if track:
            reach = self._close_reach(outer_reach, self.stream.index - 1)
            if memo_key is not None and self._speculating:
                self._memo[memo_key] = (self.stream.index, reach)
            if (node is not None and not program.params
                    and self._impure_ops == impure_mark):
                # Pure derivation: tokens [start, look_stop] fully
                # determine this subtree.
                node.look_stop = reach
        elif memo_key is not None:
            self._memo[memo_key] = self.stream.index
        if node is not None:
            self._builder.close_rule(self.stream.index)
        return node

    def _close_reach(self, outer_reach: int, last: int) -> int:
        """Close a rule invocation's reach: the largest index its
        predictions, speculations and nested rules examined, or ``last``
        — its last consumed token, or the token at which it failed.  The
        enclosing invocation's reach (``outer_reach`` so far) covers it.
        Only a parse with reach tracking calls this; an exception other
        than a recognition error ends the parse, so it skips this."""
        reach = self._reach if self._reach > last else last
        self._reach = reach if reach > outer_reach else outer_reach
        return reach

    def _graft(self, node: RuleNode) -> RuleNode:
        """Splice a subtree reused from a previous parse into the tree
        under construction and advance the stream past its span."""
        self.stream.seek(node.stop + 1)
        if node.look_stop > self._reach:
            self._reach = node.look_stop
        self.reused_nodes += 1
        self.reused_tokens += node.stop - node.start + 1
        builder = self._builder
        if builder.attach(node):
            # A node that used to be a root (whole-tree reuse in some
            # earlier edit) must not shadow the new root's source record.
            node.source = None
        else:
            # Nothing open: the whole previous tree survived the edit.
            builder.root = node
            node.parent = None
            node.source = builder.source
        return node

    def _walk(self, program: RuleProgram, frame: Dict[str, Any],
              node: Optional[RuleNode]) -> None:
        """Execute ``program`` from its entry until it returns."""
        code = program.code
        pc = program.entry
        rule_name = program.name
        stream = self.stream
        while pc >= 0:
            op, a, b, nxt = code[pc]
            if op == PREDICT:
                alt = self._adaptive_predict(a, frame)
                if nxt and node is not None:  # the rule-start decision
                    node.alt = alt
                pc = b[alt - 1]
            elif op == CALL:
                args = [self._eval_expr(e, frame) for e in b.args] if b.args else ()
                self._follow_stack.append((b.follow_state, rule_name))
                try:
                    # The child attaches to ``node`` via the builder when
                    # it closes; nothing to do here on success.
                    self._run_rule(a, args)
                finally:
                    self._follow_stack.pop()
                pc = nxt
            elif op == MATCH:
                token = stream.lt(1)
                if token.type == a:
                    stream.consume()
                    if self._speculating:
                        if stream.index > self._deepest_spec_index:
                            self._deepest_spec_index = stream.index
                    else:
                        self._error_recovery_mode = False
                else:
                    token = self._match(b, a, rule_name)
                if node is not None:
                    self._builder.add_token(token)
                pc = nxt
            elif op == MATCH_SET:
                token = self._match(b, None, rule_name)
                if node is not None:
                    self._builder.add_token(token)
                pc = nxt
            elif op == PREDICATE:
                if not self._eval_predicate(a, frame):
                    raise FailedPredicateError(
                        a, token=stream.lt(1), index=stream.index,
                        rule_name=rule_name)
                pc = nxt
            else:  # ACTION
                self._execute_action(a, frame)
                pc = nxt

    def _match(self, transition, expected_type: Optional[int], rule_name: str):
        """Consume the current token if ``transition`` matches it, else
        repair or fail.  MATCH ops pass their token type as
        ``expected_type`` (inline repair needs one); MATCH_SET ops pass
        None."""
        token = self.stream.lt(1)
        if transition.matches(token.type):
            self.stream.consume()
            if self._speculating:
                if self.stream.index > self._deepest_spec_index:
                    self._deepest_spec_index = self.stream.index
            else:
                self._error_recovery_mode = False
            return token
        if expected_type is None:
            raise MismatchedTokenError(repr(transition), token,
                                       self.stream.index, rule_name=rule_name)
        error = MismatchedTokenError(self.vocabulary.name_of(expected_type),
                                     token, self.stream.index,
                                     rule_name=rule_name)
        if self._recover_errors and not self._speculating:
            repaired = self._repair_inline(error, transition.target,
                                           expected_type)
            if repaired is not None:
                return repaired
        raise error

    def _repair_inline(self, error: MismatchedTokenError, state,
                       expected_type: int) -> Optional[Token]:
        """ANTLR's single-token repairs of a mismatched MATCH, returning
        the token the op then matches, or None when neither applies (the
        caller raises ``error`` for panic mode).

        Deletion wins when the token *after* the offender is the
        expected one: the offender is extraneous, and is dropped.
        Otherwise, when the offender is viable right after the expected
        token at ``state`` (the expected token is missing), a token of
        the expected type is synthesized — text ``<missing X>``, stream
        index -1, positioned at the offender — and returned without
        consuming anything, so the parse continues as if it had been
        present.  Cascade suppression stays on after a deletion: the
        token it matches does not count as a real match (ANTLR 3's
        ``recoverFromMismatchedToken``)."""
        stream = self.stream
        token = error.token
        if stream.la(2) == expected_type:
            self._report(error)
            deleted = stream.consume()
            self._attach_error_node(ErrorNode(error=error, tokens=[deleted]))
            if self._telemetry is not None:
                self._telemetry.record_recovery("delete", 1)
            return stream.consume()
        if (expected_type != EOF
                and token.type in self._viable_after(state, error.rule_name)):
            self._report(error)
            missing = Token(expected_type, "<missing %s>" % error.expecting,
                            line=token.line, column=token.column)
            # The insertion consumed nothing: empty span at the repair point.
            self._attach_error_node(
                ErrorNode(error=error, inserted=missing, at=stream.index))
            if self._telemetry is not None:
                self._telemetry.record_recovery("insert")
            return missing
        return None

    def _recover(self, error: RecognitionError) -> None:
        """Panic-mode sync-and-return (ANTLR's ``recover``): report, then
        consume tokens until one that some rule on the invocation stack
        can use right after its pending call returns.  The resync set is
        the union of per-ATN-state continuation sets over the whole
        follow stack (ANTLR's combined-follow computation) plus EOF —
        finer than rule-level FOLLOW because it reflects this exact call
        chain, not every call site in the grammar."""
        # Recovery outcomes depend on parser-global state (cascade
        # suppression, last-recovery position), so every rule open while
        # it runs derives impurely — none of them may be reused.
        self._impure_ops += 1
        budget = self.options.budget
        if budget is not None and budget.max_recovery_attempts is not None:
            at = self.stream.index
            attempts = self._recovery_attempts.get(at, 0) + 1
            self._recovery_attempts[at] = attempts
            if attempts > budget.max_recovery_attempts:
                raise BudgetExceededError(
                    "recovery attempts", budget.max_recovery_attempts,
                    spent=attempts, token=self.stream.lt(1), index=at)
        reported = self._report(error)
        skipped = self._resync(self._recovery_set())
        if (self.stream.index == self._last_recovery_index
                and self.stream.la(1) != EOF):
            # No progress since the previous recovery at this position:
            # drop one token so cascading errors cannot loop forever
            # (ANTLR's single-token failsafe).
            skipped.append(self.stream.consume())
        self._last_recovery_index = self.stream.index
        if self._telemetry is not None:
            self._telemetry.record_recovery("panic", len(skipped))
        if reported or skipped:
            self._attach_error_node(ErrorNode(
                error=error if reported else None, tokens=skipped))

    # -- recovery support -------------------------------------------------------

    def _report(self, error: RecognitionError) -> bool:
        """Record ``error`` unless the parse is already recovering from an
        earlier one at this trouble spot (cascade suppression; a token
        that matches for real ends it).  Returns True when recorded."""
        if self._error_recovery_mode:
            return False
        self.errors.append(error)
        self._error_recovery_mode = True
        return True

    def _resync(self, resync) -> List[Token]:
        """Consume tokens until one in ``resync`` (which holds EOF), and
        return them.  Resync can skip arbitrarily far on corrupted input
        (or forever on an unbounded stream), so the deadline is checked
        per skipped token, not just at rule boundaries."""
        stream = self.stream
        skipped = []
        while stream.la(1) not in resync:
            self._check_deadline()
            skipped.append(stream.consume())
        return skipped

    def _viable_after(self, state, rule_name: str) -> Set[int]:
        """Token types legal immediately after the expected token at
        ``state``, given the live invocation stack; drives single-token
        insertion (is the offending token usable once the missing one is
        synthesized?)."""
        cont = self.analysis.grammar_sets()
        tokens, reaches_end = cont.continuation(state, rule_name)
        viable = set(tokens)
        if reaches_end:
            for follow_state, caller in reversed(self._follow_stack):
                more, reaches_end = cont.continuation(follow_state, caller)
                viable |= more
                if not reaches_end:
                    break
            else:
                viable.add(EOF)
        return viable

    def _recovery_set(self) -> Set[int]:
        """ANTLR's combined follow set: union, over every invocation on
        the stack, of what that caller can match once its pending rule
        call returns — plus EOF so recovery can always park at end of
        input."""
        cont = self.analysis.grammar_sets()
        resync = {EOF}
        for follow_state, caller in self._follow_stack:
            tokens, _ = cont.continuation(follow_state, caller)
            resync |= tokens
        return resync

    def _attach_error_node(self, node: ErrorNode) -> None:
        """Record a repair in the current rule's tree node (no-op when
        tree building is off)."""
        self._impure_ops += 1  # a repaired subtree is never reusable
        self._builder.attach(node)

    # -- prediction hooks (the walk itself lives in repro.runtime.predict) ----------------

    def _decision_table(self, decision: int):
        record = self.analysis.records[decision]
        if record.table is not None:
            return record.table, False
        # Degraded mode: this decision has no usable table (a damaged
        # cache entry was salvaged around it).  The analysis rebuilds it
        # for just this decision and keeps it, so later parses hit the
        # fast path; the parse records a structured degradation event
        # instead of failing.
        from repro.runtime.telemetry import DegradationEvent

        table = self.analysis.decision_table(decision)
        self.degradations.append(DegradationEvent(
            decision, record.rule_name, "decision DFA rebuilt at parse time"))
        if self._telemetry is not None:
            self._telemetry.record_degradation()
        return table, True

    def _run_synpred(self, name: str) -> None:
        self._run_rule(self._programs[name], ())

    # -- embedded host-language code ---------------------------------------------------------

    def _action_env(self) -> Dict[str, Any]:
        env = {
            "state": self.options.user_state,
            "parser": self,
            "stream": self.stream,
            "LA": self.stream.la,
            "LT": self.stream.lt,
            "TT": self._token_type_named,
        }
        env.update(self.options.action_globals)
        return env

    def _token_type_named(self, name: str) -> int:
        """Resolve a token display name to its type (``TT`` in actions).

        Accepts both bare token names (``ID``) and quoted literals
        (``"'*'"``); used by generated precedence predicates.
        """
        if name.startswith("'"):
            t = self.vocabulary.type_of_literal(name[1:-1])
        else:
            t = self.vocabulary.type_of(name)
        if t is None:
            raise ActionError("TT(%r)" % name, KeyError(name))
        return t

    def _eval_predicate(self, predicate, frame: Dict[str, Any]) -> bool:
        self._impure_ops += 1  # may read user state the tokens don't capture
        try:
            return bool(eval(predicate.code, self._action_env(), frame))
        except RecognitionError:
            raise
        except Exception as e:
            raise ActionError(predicate.code, e) from e

    def _eval_expr(self, expr: str, frame: Dict[str, Any]) -> Any:
        self._impure_ops += 1  # rule-argument expressions can touch state
        try:
            return eval(expr, self._action_env(), frame)
        except Exception as e:
            raise ActionError(expr, e) from e

    def _execute_action(self, action, frame: Dict[str, Any]) -> None:
        if self.speculating and not action.always_exec:
            return  # mutators are deactivated during speculation (Section 4.3)
        self._impure_ops += 1  # grafting would skip re-running this code
        try:
            exec(action.code, self._action_env(), frame)
        except RecognitionError:
            raise
        except Exception as e:
            raise ActionError(action.code, e) from e
