"""Parse-time error strategies.

The paper argues (Section 1) that reducing uncertainty during the parse
is the key to good error recovery: deterministic LL decisions know
exactly what they expected.  Strategies provided:

* :class:`BailErrorStrategy` — raise immediately (a parse without
  ``recover``; speculation never repairs either);
* :class:`DefaultErrorStrategy` — full ANTLR-style inline recovery (a
  parse with ``recover``): single-token deletion when the *next* token
  matches, single-token *insertion* (synthesize the missing token) when
  the current token is viable right after the expected one.  Every repair is recorded as an
  :class:`~repro.runtime.trees.ErrorNode` in the parse tree.

Reporting is cascade-aware: once a strategy reports, the parser enters
error-recovery mode and subsequent reports at the same trouble spot are
suppressed until a token matches for real (ANTLR's
``beginErrorCondition``/``reportMatch`` protocol).
"""

from __future__ import annotations

from typing import FrozenSet

from repro.exceptions import MismatchedTokenError, RecognitionError
from repro.runtime.token import EOF, Token
from repro.runtime.trees import ErrorNode

_EMPTY: FrozenSet[int] = frozenset()


class ErrorStrategy:
    """Hook interface; ``recover_inline`` may consume tokens and return
    the matched token, or raise.

    ``following`` is the set of token types viable immediately after the
    expected token at this exact ATN position (computed by the parser
    from per-state continuation sets); strategies use it to decide
    whether synthesizing the missing token would let the parse proceed.
    """

    def recover_inline(self, parser, expected_type: int, rule_name: str,
                       following: FrozenSet[int] = _EMPTY):
        raise NotImplementedError

    def report(self, parser, error: RecognitionError) -> bool:
        """Record ``error`` unless the parser is already recovering from
        an earlier one at this trouble spot (cascade suppression).
        Returns True when the error was actually recorded."""
        if parser._error_recovery_mode:
            return False
        parser.errors.append(error)
        parser._error_recovery_mode = True
        return True


class BailErrorStrategy(ErrorStrategy):
    """Fail fast: every mismatch is fatal."""

    def recover_inline(self, parser, expected_type: int, rule_name: str,
                       following: FrozenSet[int] = _EMPTY):
        token = parser.stream.lt(1)
        raise MismatchedTokenError(
            parser.vocabulary.name_of(expected_type), token, parser.stream.index,
            rule_name=rule_name)


class DefaultErrorStrategy(ErrorStrategy):
    """ANTLR's combined inline recovery: deletion, then insertion.

    Deletion wins when the token *after* the offender is the expected
    one (the offender is extraneous).  Insertion wins when the current
    token could legally appear right after the expected one (the
    expected token is missing): a token of the expected type is
    synthesized — text ``<missing X>``, stream index -1, positioned at
    the current token — reported, recorded as an :class:`ErrorNode`,
    and returned without consuming anything, so the parse continues as
    if the token had been present.  When neither repair applies the
    mismatch is re-raised for rule-level (panic-mode) recovery.
    """

    def recover_inline(self, parser, expected_type: int, rule_name: str,
                       following: FrozenSet[int] = _EMPTY):
        stream = parser.stream
        token = stream.lt(1)
        if stream.la(2) == expected_type:
            return self._delete(parser, expected_type, rule_name)
        if token.type in following and expected_type != EOF:
            return self._insert(parser, expected_type, rule_name)
        raise MismatchedTokenError(
            parser.vocabulary.name_of(expected_type), token, stream.index,
            rule_name=rule_name)

    def _delete(self, parser, expected_type: int, rule_name: str):
        """Drop the extraneous current token, match the one behind it."""
        stream = parser.stream
        token = stream.lt(1)
        error = MismatchedTokenError(
            parser.vocabulary.name_of(expected_type), token, stream.index,
            rule_name=rule_name)
        self.report(parser, error)
        deleted = stream.consume()
        parser._attach_error_node(ErrorNode(error=error, tokens=[deleted]))
        telemetry = getattr(parser, "_telemetry", None)
        if telemetry is not None:
            telemetry.record_recovery("delete", 1)
        return stream.consume()

    def _insert(self, parser, expected_type: int, rule_name: str):
        stream = parser.stream
        token = stream.lt(1)
        name = parser.vocabulary.name_of(expected_type)
        error = MismatchedTokenError(name, token, stream.index,
                                     rule_name=rule_name)
        self.report(parser, error)
        missing = Token(expected_type, "<missing %s>" % name,
                        line=token.line, column=token.column)
        # The insertion consumed nothing: empty span at the repair point.
        parser._attach_error_node(
            ErrorNode(error=error, inserted=missing, at=stream.index))
        telemetry = getattr(parser, "_telemetry", None)
        if telemetry is not None:
            telemetry.record_recovery("insert")
        return missing

