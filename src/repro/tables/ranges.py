"""Sorted-range lookup over the flat lexer table's interval rows.

A :class:`~repro.tables.lexer.LexerTable` stores each state's edges as
one row of sorted, disjoint inclusive codepoint intervals in the
parallel ``edge_lo`` / ``edge_hi`` arrays, with per-state
``[row_start, row_end)`` ranges in a CSR-style index array.
:func:`find_interval_index` is the one lookup over that encoding;
:meth:`~repro.tables.lexer.LexerTable.next_state` calls it and the
tokenizer's scan loop inlines the same ``bisect_right`` probe, so the
range-boundary semantics live in one place.  Parser decision tables
instead derive dict-based execution indexes from their arrays (token
alphabets are exact-match, not ranges; see
:meth:`repro.tables.lookahead.DecisionTable.execution_index`).

The probe is a bisect over plain int arrays: no tuples are built per
character (the old lexer lookup bisected a list of ``(lo, hi)`` pairs,
allocating a probe tuple and comparing tuples on every character).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence


def find_interval_index(los: Sequence[int], his: Sequence[int], point: int,
                        lo: int, hi: int) -> int:
    """Index of the interval containing ``point`` among the sorted,
    disjoint intervals ``zip(los, his)[lo:hi]`` (inclusive bounds), or -1.

    Boundary semantics: a point equal to an interval's ``lo`` or ``hi``
    is inside it; a point between two intervals, below the first ``lo``,
    or above the last ``hi`` is not.
    """
    i = bisect_right(los, point, lo, hi) - 1
    if i >= lo and point <= his[i]:
        return i
    return -1
