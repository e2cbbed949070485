"""Runtime base class for generated parsers.

Generated modules contain plain recursive-descent methods; everything
decision-related stays in the runtime so the generated code stays
readable.  Prediction (DFA walk per Figure 5, synpred speculation,
telemetry, and the speculation memo behind the ``_memo_enter``/
``_memo_exit`` hooks) is :class:`~repro.runtime.predict.Predictor`, the
executor the interpreter uses too; this module adds rule scaffolding and
matching.

Lookahead machines are embedded as the same versioned flat-table dicts
the artifact cache stores (see :mod:`repro.tables`)::

    TABLES = {
      "version": 1,
      "pool": {"contexts": [...]},       # interned semantic contexts
      "decisions": [ {...DecisionTable dict...}, ... ],
    }

On first prediction the class reconstitutes live
:class:`~repro.tables.lookahead.DecisionTable` objects (once per
generated class, cached on it), which ``_adaptive_predict`` executes.
Predicate ``code`` strings are evaluated against the calling rule
method's locals (passed in by generated code as ``frame``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import (
    FailedPredicateError,
    MismatchedTokenError,
    RecognitionError,
)
from repro.runtime.predict import Predictor
from repro.runtime.token import EOF
from repro.runtime.token_stream import TokenStream
from repro.runtime.trees import RuleNode, TreeBuilder


class GeneratedParser(Predictor):
    """Base for generated parsers.  Subclasses define:

    * ``TABLES`` — the flat execution core (pool + one table per decision);
    * ``TOKEN_NAMES`` — type -> display name (errors);
    * ``TOKEN_TYPES`` — display name -> type (``self._tt``);
    * ``START_RULE`` — default entry rule name;
    * one ``rule_<name>`` method per parser rule and ``synpredN``
      methods for erased syntactic predicates.
    """

    TABLES: Dict[str, Any] = {"version": 1, "pool": {"contexts": []},
                              "decisions": []}
    TOKEN_NAMES: Dict[int, str] = {}
    TOKEN_TYPES: Dict[str, int] = {}
    START_RULE = ""

    @classmethod
    def _live_tables(cls):
        """Reconstitute (pool, [DecisionTable, ...]) from ``TABLES``,
        cached on the generated class itself (not this base)."""
        cached = cls.__dict__.get("_tables_cache")
        if cached is None:
            from repro.tables.lookahead import DecisionTable
            from repro.tables.pool import SemCtxPool
            from repro.tables.tableset import TABLE_FORMAT_VERSION

            data = cls.TABLES
            if data.get("version") != TABLE_FORMAT_VERSION:
                raise ValueError("generated table format %r != %d"
                                 % (data.get("version"), TABLE_FORMAT_VERSION))
            pool = SemCtxPool.from_dict(data["pool"])
            cached = (pool, [DecisionTable.from_dict(d, pool)
                             for d in data["decisions"]])
            cls._tables_cache = cached
        return cached

    def __init__(self, stream: TokenStream, state: Any = None,
                 build_tree: bool = True, telemetry=None):
        super().__init__(stream, len(self._live_tables()[1]),
                         telemetry=telemetry)
        self.state = state
        self.build_tree = build_tree
        self.errors: List[RecognitionError] = []
        # Trees are built through the shared TreeBuilder (same span and
        # attach-on-close contract as the interpreted parser).  One
        # (rule_name, opened) frame per active rule method; ``opened``
        # records whether that frame opened a tree node, so _exit knows
        # whether to close/abandon and token matches know whether to
        # attach leaves.
        self._builder = TreeBuilder(source=stream.source)
        self._frames: List[Tuple[str, bool]] = []

    # -- entry ----------------------------------------------------------------------

    def parse(self, rule_name: Optional[str] = None, require_eof: bool = True):
        rule_name = rule_name or self.START_RULE
        method = getattr(self, "rule_" + rule_name, None)
        if method is None:
            raise AttributeError("no generated rule method for %r" % rule_name)
        try:
            tree = method()
            if require_eof and self.stream.la(1) != EOF:
                raise MismatchedTokenError("EOF", self.stream.lt(1),
                                           self.stream.index, rule_name=rule_name)
            return tree
        finally:
            self._report_parse()

    # -- rule scaffolding (called by generated code) --------------------------------------

    def _enter(self, rule_name: str) -> Optional[RuleNode]:
        if not self._speculating:
            if self._tally is not None:
                self._tally.rules += 1  # a committed rule invocation
            if self.build_tree:
                node = self._builder.open_rule(rule_name, self.stream.index)
                self._frames.append((rule_name, True))
                return node
        self._frames.append((rule_name, False))
        return None

    def _exit(self, ok: bool = True) -> None:
        """Leave the current rule method.  ``ok`` False (the rule raised)
        abandons the node instead of closing it, so failed rules leave
        nothing behind in the tree (attach happens at close)."""
        _rule_name, opened = self._frames.pop()
        if opened:
            if ok:
                self._builder.close_rule(self.stream.index)
            else:
                self._builder.abandon_rule()

    def _match(self, token_type: int):
        token = self.stream.lt(1)
        if token.type != token_type:
            raise MismatchedTokenError(
                self.TOKEN_NAMES.get(token_type, str(token_type)), token,
                self.stream.index, rule_name=self._current_rule())
        return self._consume(token)

    def _match_any(self, allowed) -> object:
        token = self.stream.lt(1)
        if token.type not in allowed or token.type == EOF:
            raise MismatchedTokenError(
                "one of %s" % sorted(allowed), token, self.stream.index,
                rule_name=self._current_rule())
        return self._consume(token)

    def _consume(self, token):
        """Step past a matched token: attach it to the open tree node,
        or, while speculating, lift the speculation high-water mark
        (synpred depth is measured from it)."""
        stream = self.stream
        stream.consume()
        if self._speculating:
            if stream.index > self._deepest_spec_index:
                self._deepest_spec_index = stream.index
        elif self._frames and self._frames[-1][1]:
            self._builder.add_token(token)
        return token

    def _current_rule(self) -> Optional[str]:
        for name, opened in reversed(self._frames):
            if opened:
                return name
        return None

    def _fail_predicate(self, code: str) -> None:
        raise FailedPredicateError(code, token=self.stream.lt(1),
                                   index=self.stream.index,
                                   rule_name=self._current_rule())

    def _tt(self, name: str) -> int:
        return self.TOKEN_TYPES[name]

    # -- prediction hooks (the walk itself lives in repro.runtime.predict) ----------------

    def _decision_table(self, decision: int):
        return self._live_tables()[1][decision], False

    def _run_synpred(self, name: str) -> None:
        getattr(self, "rule_" + name)()

    def _eval_predicate(self, predicate, frame: Dict[str, Any]) -> bool:
        env = {"state": self.state, "parser": self, "stream": self.stream,
               "LA": self.stream.la, "LT": self.stream.lt, "TT": self._tt}
        return bool(eval(predicate.code, env, dict(frame)))
