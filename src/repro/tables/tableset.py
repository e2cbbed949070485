"""The versioned bundle every consumer ships: pool + decision tables
(+ optional lexer table).

One :class:`TableSet` is the complete execution core for a compiled
grammar.  The code generator embeds its dict form in generated modules
and rebuilds the live tables through :meth:`from_dict`; the artifact
cache stores the same pool and table dicts inside its ``.llt`` image.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exceptions import ArtifactFormatError
from repro.tables.lexer import LexerTable
from repro.tables.lookahead import DecisionTable
from repro.tables.pool import SemCtxPool

#: Version of the flat-table encoding.  Any change to the array layout of
#: DecisionTable/LexerTable/SemCtxPool dicts must bump this (and with it
#: :data:`repro.cache.SCHEMA_VERSION`); readers reject unknown versions.
TABLE_FORMAT_VERSION = 1


class TableSet:
    """All flat tables for one grammar, sharing one interned gate pool."""

    __slots__ = ("pool", "decisions", "lexer")

    def __init__(self, pool: SemCtxPool, decisions: List[DecisionTable],
                 lexer: Optional[LexerTable] = None):
        self.pool = pool
        self.decisions = decisions
        self.lexer = lexer

    def to_dict(self) -> dict:
        return {
            "version": TABLE_FORMAT_VERSION,
            "pool": self.pool.to_dict(),
            "decisions": [t.to_dict() for t in self.decisions],
            "lexer": self.lexer.to_dict() if self.lexer is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict, validate: bool = True) -> "TableSet":
        version = data.get("version")
        if version != TABLE_FORMAT_VERSION:
            raise ArtifactFormatError("table format %r != %d"
                                      % (version, TABLE_FORMAT_VERSION))
        pool = SemCtxPool.from_dict(data["pool"])
        decisions = [DecisionTable.from_dict(d, pool, validate=validate)
                     for d in data["decisions"]]
        lexer = (LexerTable.from_dict(data["lexer"], validate=validate)
                 if data.get("lexer") is not None else None)
        return cls(pool, decisions, lexer)

    def __repr__(self):
        return "TableSet(%d decisions%s, %d pooled contexts)" % (
            len(self.decisions),
            ", lexer" if self.lexer is not None else "",
            len(self.pool))
