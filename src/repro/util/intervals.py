"""Sets of integers stored as sorted disjoint closed intervals.

Character classes (``[a-zA-Z_]``) and token sets compress naturally into
interval sets; the lexer DFA keys its transitions on them.  Intervals are
closed on both ends: ``(97, 122)`` is ``a..z``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple


class IntervalSet:
    """Immutable-ish sorted set of closed integer intervals.

    Mutating operations (:meth:`add_range`) are only used while building;
    all algebra (union/intersection/complement) returns new sets.
    """

    __slots__ = ("_ivals",)

    def __init__(self, intervals: Iterable[Tuple[int, int]] = ()):
        self._ivals: List[Tuple[int, int]] = []
        for lo, hi in intervals:
            self.add_range(lo, hi)

    # -- construction ------------------------------------------------------

    @classmethod
    def of(cls, *values: int) -> "IntervalSet":
        s = cls()
        for v in values:
            s.add_range(v, v)
        return s

    @classmethod
    def of_chars(cls, chars: str) -> "IntervalSet":
        s = cls()
        for ch in chars:
            o = ord(ch)
            s.add_range(o, o)
        return s

    @classmethod
    def char_range(cls, lo: str, hi: str) -> "IntervalSet":
        return cls([(ord(lo), ord(hi))])

    def add_range(self, lo: int, hi: int) -> None:
        """Insert [lo, hi], merging with touching/overlapping intervals."""
        if hi < lo:
            raise ValueError("empty interval [%d,%d]" % (lo, hi))
        out: List[Tuple[int, int]] = []
        placed = False
        for a, b in self._ivals:
            if b + 1 < lo:  # strictly left, no touch
                out.append((a, b))
            elif hi + 1 < a:  # strictly right
                if not placed:
                    out.append((lo, hi))
                    placed = True
                out.append((a, b))
            else:  # overlap or adjacency: merge
                lo = min(lo, a)
                hi = max(hi, b)
        if not placed:
            out.append((lo, hi))
        self._ivals = out

    def add(self, value: int) -> None:
        self.add_range(value, value)

    # -- queries -----------------------------------------------------------

    def __contains__(self, value: int) -> bool:
        lo, hi = 0, len(self._ivals)
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = self._ivals[mid]
            if value < a:
                hi = mid
            elif value > b:
                lo = mid + 1
            else:
                return True
        return False

    def contains_char(self, ch: str) -> bool:
        return bool(ch) and ord(ch) in self

    def __bool__(self) -> bool:
        return bool(self._ivals)

    def __len__(self) -> int:
        return sum(b - a + 1 for a, b in self._ivals)

    def __iter__(self) -> Iterator[int]:
        for a, b in self._ivals:
            yield from range(a, b + 1)

    def intervals(self) -> List[Tuple[int, int]]:
        return list(self._ivals)

    def min(self) -> int:
        return self._ivals[0][0]

    def max(self) -> int:
        return self._ivals[-1][1]

    # -- algebra -----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        out = IntervalSet(self._ivals)
        for a, b in other._ivals:
            out.add_range(a, b)
        return out

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out = IntervalSet()
        i = j = 0
        a, b = self._ivals, other._ivals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.add_range(lo, hi)
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return out

    def complement(self, universe_lo: int, universe_hi: int) -> "IntervalSet":
        """Everything in [universe_lo, universe_hi] not in this set."""
        out = IntervalSet()
        cur = universe_lo
        for a, b in self._ivals:
            if a > universe_hi:
                break
            if cur < a:
                out.add_range(cur, min(a - 1, universe_hi))
            cur = max(cur, b + 1)
        if cur <= universe_hi:
            out.add_range(cur, universe_hi)
        return out

    def overlaps(self, other: "IntervalSet") -> bool:
        return bool(self.intersection(other))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivals == other._ivals

    def __hash__(self):
        return hash(tuple(self._ivals))

    def __repr__(self):
        def show(v):
            if 32 <= v < 127:
                return repr(chr(v))
            return str(v)

        parts = []
        for a, b in self._ivals:
            parts.append(show(a) if a == b else "%s-%s" % (show(a), show(b)))
        return "IntervalSet{%s}" % ", ".join(parts)
