"""Lookahead-DFA construction: Algorithms 8-11 of the paper.

``DecisionAnalyzer`` runs the modified subset construction for one
decision: ``create_dfa`` (Alg. 8) drives a work list of DFA states, each
the closure (Alg. 9) of the ATN configurations reachable after some
lookahead prefix; ``resolve`` (Alg. 10) detects ambiguous states and
either resolves them with predicates (Alg. 11) or statically in favour of
the lowest-numbered alternative.

Termination safety (Sections 5.3-5.4):

* recursion deeper than ``m`` (``max_recursion_depth``) marks the state
  as overflowed and stops pursuing that configuration;
* recursion discovered in more than one alternative aborts construction
  (``LikelyNonLLRegularError``) — the caller falls back to LL(1);
* a hard cap on DFA states (``max_dfa_states``) defuses the exponential
  "land mine" of classic subset construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.config import ATNConfig, EMPTY_STACK
from repro.analysis.dfa_model import DFA, DFAState
from repro.analysis.diagnostics import AnalysisDiagnostic
from repro.analysis.semctx import SemanticContext, context_for_alt
from repro.atn.states import ATN, ATNState, RuleStopState
from repro.atn.transitions import (
    ActionTransition,
    AtomTransition,
    EpsilonTransition,
    PredicateTransition,
    RuleTransition,
    SetTransition,
)
from repro.exceptions import AnalysisTimeoutError, LikelyNonLLRegularError


class AnalysisOptions:
    """Tunables for DFA construction.

    ``max_recursion_depth`` is the paper's internal constant *m*: how
    many times closure may re-enter the same rule invocation before
    marking recursion overflow.  Choosing m = k guarantees LL(*) covers
    a strict superset of LL(k); the default 4 mirrors ANTLR's
    conservative setting (the paper's Figure 2 example sets it to 1).
    """

    def __init__(self, max_recursion_depth: int = 4, max_dfa_states: int = 2000,
                 abort_on_multi_alt_recursion: bool = True,
                 max_fixed_lookahead: Optional[int] = None):
        if max_recursion_depth < 1:
            raise ValueError("max_recursion_depth must be >= 1")
        if max_fixed_lookahead is not None and max_fixed_lookahead < 1:
            raise ValueError("max_fixed_lookahead must be >= 1 or None")
        self.max_recursion_depth = max_recursion_depth
        self.max_dfa_states = max_dfa_states
        self.abort_on_multi_alt_recursion = abort_on_multi_alt_recursion
        # The grammar option ``k=N`` / ANTLR's per-decision lookahead cap
        # ("manually set their lookahead parameters", Section 6.1): states
        # deeper than N tokens resolve immediately instead of expanding.
        self.max_fixed_lookahead = max_fixed_lookahead

    def replace(self, **kwargs) -> "AnalysisOptions":
        merged = dict(max_recursion_depth=self.max_recursion_depth,
                      max_dfa_states=self.max_dfa_states,
                      abort_on_multi_alt_recursion=self.abort_on_multi_alt_recursion,
                      max_fixed_lookahead=self.max_fixed_lookahead)
        merged.update(kwargs)
        return AnalysisOptions(**merged)

    def fingerprint(self) -> str:
        """Canonical string over every field that affects analysis output;
        part of the compiled-artifact cache key (:mod:`repro.cache.store`),
        so two option sets with equal fingerprints must produce identical
        DFAs."""
        return "m=%d;states=%d;abort=%s;maxk=%s" % (
            self.max_recursion_depth, self.max_dfa_states,
            self.abort_on_multi_alt_recursion, self.max_fixed_lookahead)

    def __repr__(self):
        return ("AnalysisOptions(m=%d, max_states=%d, abort=%s)"
                % (self.max_recursion_depth, self.max_dfa_states,
                   self.abort_on_multi_alt_recursion))


class DecisionAnalyzer:
    """Builds the lookahead DFA for one decision state of the ATN."""

    #: Process-wide count of analyzer constructions.  The compiled-artifact
    #: cache promises that a warm start never re-analyzes; tests and the
    #: warm-start benchmark assert this counter stays put across a cache hit.
    invocations = 0

    def __init__(self, atn: ATN, decision: int, start_rule: Optional[str] = None,
                 options: Optional[AnalysisOptions] = None):
        DecisionAnalyzer.invocations += 1
        self.atn = atn
        self.info = atn.decisions[decision]
        self.decision = decision
        self.start_rule = start_rule
        self.options = options or AnalysisOptions()
        self.diagnostics: List[AnalysisDiagnostic] = []
        self.dfa = DFA(decision, self.info.rule_name, self.info.num_alternatives)
        #: accept states reachable only via predicate edges, per alt
        self._pred_accepts: Dict[int, DFAState] = {}
        self._states_by_key: Dict[frozenset, DFAState] = {}

    # ------------------------------------------------------------------ Alg. 8

    def create_dfa(self) -> DFA:
        """Algorithm 8 (createDFA): worklist subset construction.

        Falls back to :meth:`create_ll1_dfa` when the decision looks
        non-LL-regular or the state budget is exhausted.
        """
        try:
            return self._create_full_dfa()
        except LikelyNonLLRegularError as e:
            self.diagnostics.append(AnalysisDiagnostic.non_ll_regular(self.decision, e.alts))
            return self.create_ll1_dfa("recursion in alternatives %s" % e.alts)
        except AnalysisTimeoutError as e:
            self.diagnostics.append(AnalysisDiagnostic.state_budget(self.decision, str(e)))
            return self.create_ll1_dfa(str(e))
        finally:
            self._release()

    def _release(self) -> None:
        """Drop construction-only state once the decision is done.

        Configurations, busy sets, and the dedup table are what subset
        construction works on; compiling the finished DFA into its table
        reads only edges, predicate edges, accept markers and the
        overflow/recursion flags.  Keeping them would pin tens of
        thousands of configurations per grammar until the DFA is
        dropped.
        """
        for state in self.dfa.states:
            state.configs = None
            state.busy = None
        self._states_by_key = {}

    def _create_full_dfa(self) -> DFA:
        dfa = self.dfa = DFA(self.decision, self.info.rule_name, self.info.num_alternatives)
        self._pred_accepts = {}
        self._states_by_key = {}

        d0 = dfa.new_state()
        for alt, transition in enumerate(self.info.state.transitions, start=1):
            seed = ATNConfig(transition.target, alt, EMPTY_STACK)
            self._add_closure(d0, seed, collect_preds=True)
        dfa.start = d0
        self._states_by_key[d0.config_key()] = d0
        # Per Algorithm 8, resolve() runs on *successor* states, not D0:
        # conflicting configurations in D0 must flow into the move/closure
        # successors, where one token of context separates e.g. the
        # dangling-else 'else' edge (ambiguous, resolve greedily) from
        # every other FOLLOW token (unambiguous exit).  The exception is
        # recursion overflow in D0 itself: lookahead paths were cut short,
        # so D0 must resolve with predicates/backtracking immediately.
        if d0.overflowed:
            self._resolve(d0)

        work: List[DFAState] = []
        alts0 = {c.alt for c in d0.configs}
        if len(alts0) == 1:
            d0.is_accept = True
            d0.predicted_alt = alts0.pop()
        elif d0.configs:
            work.append(d0)

        depth: Dict[int, int] = {d0.id: 0}
        max_k = self.options.max_fixed_lookahead
        while work:
            d = work.pop(0)
            if max_k is not None and depth.get(d.id, 0) >= max_k:
                self._force_resolve(d)
                continue
            for token_type, moved in self._moves(d):
                candidate = self.dfa.new_state()
                for config in moved:
                    self._add_closure(candidate, config)
                key = candidate.config_key()
                existing = self._states_by_key.get(key)
                if existing is not None:
                    self.dfa.states.pop()  # discard the duplicate shell
                    d.edges[token_type] = existing
                    continue
                if len(self.dfa.states) > self.options.max_dfa_states:
                    raise AnalysisTimeoutError(
                        "decision %d exceeded DFA state budget (%d states)"
                        % (self.decision, self.options.max_dfa_states))
                self._states_by_key[key] = candidate
                self._resolve(candidate)
                d.edges[token_type] = candidate
                depth[candidate.id] = depth.get(d.id, 0) + 1
                predicted = {c.alt for c in candidate.configs}
                if len(predicted) == 1:
                    candidate.is_accept = True
                    candidate.predicted_alt = predicted.pop()
                elif candidate.configs:
                    work.append(candidate)
                # else: fully resolved by predicates -> terminal pred state
        return dfa

    def _force_resolve(self, d: DFAState) -> None:
        """Lookahead cap hit: settle this state now (preds or min alt)."""
        alts = {c.alt for c in d.configs}
        if len(alts) <= 1:
            if alts:
                d.is_accept = True
                d.predicted_alt = alts.pop()
            return
        if self._resolve_with_preds(d, alts):
            d.configs = []
            return
        min_alt = min(alts)
        self.diagnostics.append(AnalysisDiagnostic.ambiguity(
            self.decision, sorted(alts), min_alt))
        self.dfa.statically_resolved_alts.update(alts - {min_alt})
        d.configs = []
        d.is_accept = True
        d.predicted_alt = min_alt

    # ---------------------------------------------------------------- move

    def _moves(self, d: DFAState) -> List[Tuple[int, List[ATNConfig]]]:
        """move(d, t) for every token type t in T_D, in token-type order.

        One pass over d's configurations.  Each token's list keeps
        d's configuration order: closure adds successors in that order,
        which fixes DFA state numbering and so the analysis output.  A
        set edge's moved configuration is shared by every token in the
        set (configurations are immutable).
        """
        moves: Dict[int, List[ATNConfig]] = {}
        for config in d.configs:
            for t in config.state.transitions:
                if isinstance(t, AtomTransition):
                    moves.setdefault(t.token_type, []).append(
                        config.with_state(t.target))
                elif isinstance(t, SetTransition):
                    moved = config.with_state(t.target)
                    for token_type in t.token_set:
                        moves.setdefault(token_type, []).append(moved)
        return sorted(moves.items())

    # ---------------------------------------------------------------- Alg. 9

    def _add_closure(self, d: DFAState, config: ATNConfig,
                     collect_preds: bool = False) -> None:
        """Algorithm 9 (closure): chase every non-terminal edge.

        Adds all reachable configurations to ``d.configs``; uses the
        per-state busy set to terminate and the recursion-depth guard to
        bound stack growth.

        ``collect_preds`` is True only while building D0: predicates live
        on production left edges (Section 3's formal model), so the ones
        reachable *before any token is consumed* gate the decision; a
        predicate first seen after a move() belongs k tokens into an
        alternative and evaluating it at the decision origin would be
        unsound, so successor-state closure ignores it (the parser
        enforces user predicates when it actually reaches them).
        """
        key = config.key
        if key in d.busy:
            return
        d.busy.add(key)
        d.configs.append(config)

        state = config.state
        if isinstance(state, RuleStopState):
            self._closure_at_stop(d, config, collect_preds)
            return
        for t in state.transitions:
            if isinstance(t, RuleTransition):
                depth = config.stack.count(t.follow_state)
                if depth == 1:
                    d.recursive_alts.add(config.alt)
                    if (len(d.recursive_alts) > 1
                            and self.options.abort_on_multi_alt_recursion):
                        raise LikelyNonLLRegularError(self.decision, d.recursive_alts)
                if depth >= self.options.max_recursion_depth:
                    d.overflowed = True
                    self.dfa.had_overflow = True
                    return  # stop pursuing paths from this configuration
                self._add_closure(d, config.push(t.target, t.follow_state),
                                  collect_preds)
            elif isinstance(t, PredicateTransition):
                nxt = (config.adding_pred(t.predicate) if collect_preds else config)
                self._add_closure(d, nxt.with_state(t.target), collect_preds)
            elif isinstance(t, (EpsilonTransition, ActionTransition)):
                self._add_closure(d, config.with_state(t.target), collect_preds)
            # Atom/Set transitions are move's job, not closure's.

    def _closure_at_stop(self, d: DFAState, config: ATNConfig,
                         collect_preds: bool) -> None:
        """Stop-state closure: pop, or chase all call sites on empty stack."""
        if config.stack:
            self._add_closure(d, config.pop(), collect_preds)
            return
        rule = config.state.rule_name
        sites = self.atn.call_sites.get(rule, [])
        for t in sites:
            self._add_closure(d, config.with_empty_stack_at(t.follow_state),
                              collect_preds)
        if not sites or rule == self.start_rule:
            # Lookahead may run off the end of the grammar: match EOF.
            self._add_closure(d, config.with_empty_stack_at(self.atn.eof_state),
                              collect_preds)

    # ---------------------------------------------------------------- Alg. 10

    def _resolve(self, d: DFAState) -> None:
        """Algorithm 10 (resolve): detect and fix ambiguous DFA states."""
        conflicts = self._conflict_set(d)
        if not conflicts and not d.overflowed:
            return
        target_alts = conflicts if conflicts else {c.alt for c in d.configs}
        if len(target_alts) > 1 and self._resolve_with_preds(d, target_alts):
            return
        if len(target_alts) <= 1:
            return  # overflow with a single alt left: nothing to disambiguate
        min_alt = min(target_alts)
        removed = {a for a in target_alts if a != min_alt}
        d.configs = [c for c in d.configs if c.alt not in removed]
        self.dfa.statically_resolved_alts.update(removed)
        if d.overflowed:
            self.diagnostics.append(AnalysisDiagnostic.overflow(
                self.decision, sorted(target_alts), min_alt))
        else:
            self.diagnostics.append(AnalysisDiagnostic.ambiguity(
                self.decision, sorted(target_alts), min_alt))

    def _conflict_set(self, d: DFAState) -> Set[int]:
        """Definition 7: alts involved in same-state, equivalent-stack clashes."""
        conflicts: Set[int] = set()
        by_state: Dict[ATNState, List[ATNConfig]] = {}
        for c in d.configs:
            by_state.setdefault(c.state, []).append(c)
        for configs in by_state.values():
            if len(configs) < 2:
                continue
            alt = configs[0].alt
            if all(c.alt == alt for c in configs):
                continue  # one alternative cannot conflict with itself
            for i, c1 in enumerate(configs):
                for c2 in configs[i + 1:]:
                    if c1.conflicts_with(c2):
                        conflicts.add(c1.alt)
                        conflicts.add(c2.alt)
        return conflicts

    # ---------------------------------------------------------------- Alg. 11

    def _resolve_with_preds(self, d: DFAState, conflict_alts: Set[int]) -> bool:
        """Algorithm 11 (resolveWithPreds) with hoisting and a default edge.

        Each conflicting alternative's gate is the hoisted semantic
        context of *all* its configurations (Section 5.5): OR over
        configurations, AND within one configuration's collected
        predicates.  An alternative with an unpredicated path cannot be
        gated; only the highest-numbered conflicting alternative may be
        ungated, in which case it becomes the default edge (ordered
        choice falls through to it, as PEG mode requires).
        """
        contexts: Dict[int, SemanticContext] = {}
        for alt in sorted(conflict_alts):
            ctx = context_for_alt([c for c in d.configs if c.alt == alt])
            if ctx is not None:
                contexts[alt] = ctx
        ungated = [a for a in sorted(conflict_alts) if a not in contexts]
        if ungated and ungated != [max(conflict_alts)]:
            return False
        d.predicate_edges = [(contexts.get(alt), alt, self._pred_accept(alt))
                             for alt in sorted(conflict_alts)]
        d.configs = [c for c in d.configs if c.alt not in conflict_alts]
        return True

    def _pred_accept(self, alt: int) -> DFAState:
        acc = self._pred_accepts.get(alt)
        if acc is None:
            acc = self.dfa.new_state()
            acc.is_accept = True
            acc.predicted_alt = alt
            self._pred_accepts[alt] = acc
        return acc

    # ---------------------------------------------------------------- fallback

    def create_ll1_dfa(self, reason: str) -> DFA:
        """LL(1) fallback (Section 5.4).

        One token of lookahead: closure of the decision's left edges with
        the multi-alt-recursion abort disabled, then a single layer of
        move edges.  Tokens predicting several alternatives resolve with
        predicates (synpreds -> backtracking) or statically by order.
        """
        dfa = self.dfa = DFA(self.decision, self.info.rule_name, self.info.num_alternatives)
        dfa.fell_back_to_ll1 = True
        dfa.gave_up_reason = reason
        self._pred_accepts = {}

        relaxed = self.options.replace(abort_on_multi_alt_recursion=False,
                                       max_recursion_depth=1)
        saved = self.options
        self.options = relaxed
        try:
            d0 = dfa.new_state()
            for alt, transition in enumerate(self.info.state.transitions, start=1):
                self._add_closure(d0, ATNConfig(transition.target, alt, EMPTY_STACK),
                                  collect_preds=True)
            dfa.start = d0
            accepts: Dict[int, DFAState] = {}
            for token_type, moved in self._moves(d0):
                alts = sorted({c.alt for c in moved})
                if len(alts) == 1:
                    alt = alts[0]
                    if alt not in accepts:
                        acc = dfa.new_state()
                        acc.is_accept = True
                        acc.predicted_alt = alt
                        accepts[alt] = acc
                    d0.edges[token_type] = accepts[alt]
                    continue
                # Conflicting token: build an intermediate state and resolve.
                mid = dfa.new_state()
                mid.configs = moved
                if not self._resolve_with_preds(mid, set(alts)):
                    min_alt = min(alts)
                    self.diagnostics.append(AnalysisDiagnostic.ambiguity(
                        self.decision, alts, min_alt))
                    mid.is_accept = True
                    mid.predicted_alt = min_alt
                mid.configs = []
                d0.edges[token_type] = mid
        finally:
            self.options = saved
        return dfa
