"""Small shared utilities: integer interval sets."""

from repro.util.intervals import IntervalSet

__all__ = ["IntervalSet"]
