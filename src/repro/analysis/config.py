"""ATN configurations and Definition-6 stack equivalence.

An ATN configuration is the tuple ``(p, i, gamma, pi)``: ATN state,
predicted production, call stack of return states, and the semantic
context (predicates collected along the closure path).  Stacks are
immutable tuples with the **top of stack at index 0**, so the "suffix"
of Definition 6 (shared older frames) is a trailing slice.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.atn.states import ATNState
from repro.atn.transitions import Predicate

#: A call stack: tuple of follow (return) states, top first.
Stack = Tuple[ATNState, ...]

EMPTY_STACK: Stack = ()


def stacks_equivalent(g1: Stack, g2: Stack) -> bool:
    """Definition 6: equal, at least one empty, or one a suffix of the other.

    An empty stack is a wildcard: closure reached a rule stop state
    without knowing the caller, so it stands for *any* invocation
    context.  A shared suffix means both configurations were reached
    through the same most-recent chain of submachine invocations.
    """
    if not g1 or not g2:
        return True
    if len(g1) == len(g2):
        return g1 == g2
    shorter, longer = (g1, g2) if len(g1) < len(g2) else (g2, g1)
    return longer[len(longer) - len(shorter):] == shorter


class ATNConfig:
    """One configuration ``(p, i, gamma, pi)`` inside a DFA state.

    ``preds`` is the tuple of predicates (conjunction) collected along
    the closure path; empty tuple means unpredicated.

    Configurations are immutable.  ``key`` is their identity, computed
    once at construction: closure's busy set and the DFA-state
    dedup table hash it millions of times per grammar.  It holds the
    ATN state objects themselves (identity-hashed), so no per-call id
    tuple is built.
    """

    __slots__ = ("state", "alt", "stack", "preds", "in_follow", "key")

    def __init__(self, state: ATNState, alt: int, stack: Stack = EMPTY_STACK,
                 preds: Tuple[Predicate, ...] = (), in_follow: bool = False):
        self.state = state
        self.alt = alt
        self.stack = stack
        self.preds = preds
        # True once closure popped past the decision's own frame (chased
        # grammar-wide call sites).  Predicates found beyond that point
        # belong to *caller* frames and must not be hoisted into this
        # decision's gate — evaluating them in the current frame would be
        # unsound (e.g. the precedence-climbing loop's `_p`).
        self.in_follow = in_follow
        self.key = (state, alt, stack, preds, in_follow)

    # -- derivation helpers (closure uses these) --------------------------------

    def with_state(self, state: ATNState) -> "ATNConfig":
        return ATNConfig(state, self.alt, self.stack, self.preds, self.in_follow)

    def push(self, state: ATNState, return_state: ATNState) -> "ATNConfig":
        return ATNConfig(state, self.alt, (return_state,) + self.stack, self.preds,
                         self.in_follow)

    def pop(self) -> "ATNConfig":
        return ATNConfig(self.stack[0], self.alt, self.stack[1:], self.preds,
                         self.in_follow)

    def with_empty_stack_at(self, state: ATNState) -> "ATNConfig":
        return ATNConfig(state, self.alt, EMPTY_STACK, self.preds, in_follow=True)

    def adding_pred(self, pred: Predicate) -> "ATNConfig":
        if self.in_follow or pred in self.preds:
            return self
        if pred.is_synpred and any(p.is_synpred for p in self.preds):
            # An outer synpred subsumes inner ones: speculating the outer
            # fragment re-speculates everything nested inside it, so only
            # the first syntactic predicate on a path is useful for
            # resolution.  Dropping the rest also keeps PEG-mode closure
            # finite — otherwise every nested decision's auto-synpred
            # accumulates into the predicate tuple and DFA states never
            # converge (each loop iteration would mint a fresh config).
            return self
        return ATNConfig(self.state, self.alt, self.stack, self.preds + (pred,),
                         self.in_follow)

    # -- identity ---------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ATNConfig) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def conflicts_with(self, other: "ATNConfig") -> bool:
        """Definition 7: same state, different alt, equivalent stacks."""
        return (self.state is other.state
                and self.alt != other.alt
                and stacks_equivalent(self.stack, other.stack))

    @property
    def predicate(self) -> Optional[Predicate]:
        """The single effective predicate, if exactly one was collected."""
        if len(self.preds) == 1:
            return self.preds[0]
        return None

    def __repr__(self):
        stack = "[%s]" % " ".join("s%d" % s.id for s in self.stack)
        preds = "".join(repr(p) for p in self.preds)
        return "(%r, %d, %s%s)" % (self.state, self.alt, stack, preds)
