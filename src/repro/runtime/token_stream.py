"""Rewindable token streams.

LL(*) prediction scans arbitrarily far ahead and backtracking rewinds to
the decision point, so the token stream must support ``mark``/``seek``
cheaply.  We buffer the whole token sequence (as ANTLR's
CommonTokenStream effectively does for backtracking grammars) and expose
O(1) lookahead and rewind.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.runtime.token import EOF, Token, DEFAULT_CHANNEL


class TokenStream:
    """Abstract interface the parser and lookahead DFA run against."""

    # The original input text the tokens were lexed from, when known.
    # The tree builder records it on parse-tree roots so nodes can slice
    # exact ``source_text``; the rewriter requires it for byte-exact
    # rendering.  Streams that never saw source (e.g. bare token-type
    # streams) leave it None.
    source: "str | None" = None

    def la(self, offset: int = 1) -> int:
        """Token *type* ``offset`` tokens ahead (1 == current)."""
        raise NotImplementedError

    def lt(self, offset: int = 1) -> Token:
        """Token object ``offset`` tokens ahead (1 == current)."""
        raise NotImplementedError

    def consume(self) -> Token:
        raise NotImplementedError

    def mark(self) -> int:
        """Checkpoint the current position; pair with :meth:`seek`."""
        raise NotImplementedError

    def seek(self, index: int) -> None:
        raise NotImplementedError

    @property
    def index(self) -> int:
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise NotImplementedError


class ListTokenStream(TokenStream):
    """Token stream over a fully materialised token list.

    Only ``DEFAULT_CHANNEL`` tokens are visible; off-channel tokens
    (whitespace routed to hidden, per lexer commands) are filtered out up
    front but kept accessible via :meth:`hidden_tokens`.  The visible
    sequence is always terminated by an EOF token (one is synthesised if
    the input lacks it).
    """

    def __init__(self, tokens: Iterable[Token], channel: int = DEFAULT_CHANNEL,
                 source: "str | None" = None):
        self.source = source
        all_tokens = list(tokens)
        self._hidden: List[Token] = [t for t in all_tokens if t.channel != channel]
        visible = [t for t in all_tokens if t.channel == channel]
        if not visible or visible[-1].type != EOF:
            last = visible[-1] if visible else None
            visible.append(Token.eof(
                line=last.line if last else 1,
                column=(last.column + len(last.text)) if last else 0,
                start=(last.stop if last else 0),
            ))
        for i, t in enumerate(visible):
            t.index = i
        self._tokens = visible
        self._index = 0

    @classmethod
    def from_lexer(cls, lexer) -> "ListTokenStream":
        """Drain a lexer (anything iterable over Tokens) into a stream."""
        return cls(iter(lexer))

    # -- TokenStream interface -------------------------------------------

    def la(self, offset: int = 1) -> int:
        return self.lt(offset).type

    def lt(self, offset: int = 1) -> Token:
        if offset == 0:
            raise ValueError("lt(0) is undefined; use lt(-1) for previous token")
        if offset < 0:
            i = self._index + offset
        else:
            i = self._index + offset - 1
        if i < 0:
            i = 0
        if i >= len(self._tokens):
            i = len(self._tokens) - 1  # sticky EOF
        return self._tokens[i]

    def consume(self) -> Token:
        t = self._tokens[self._index]
        if t.type != EOF:
            self._index += 1
        return t

    def mark(self) -> int:
        return self._index

    def seek(self, index: int) -> None:
        self._index = max(0, min(index, len(self._tokens) - 1))

    @property
    def index(self) -> int:
        return self._index

    @property
    def size(self) -> int:
        return len(self._tokens)

    # -- extras ------------------------------------------------------------

    def get(self, i: int) -> Token:
        return self._tokens[i]

    def tokens(self) -> List[Token]:
        return list(self._tokens)

    def hidden_tokens(self) -> List[Token]:
        return list(self._hidden)

    def text_between(self, start: int, stop: int) -> str:
        """Source-order text of visible tokens in stream-index [start, stop)."""
        return " ".join(t.text for t in self._tokens[start:stop] if t.type != EOF)

    def __len__(self):
        return len(self._tokens)

    def __repr__(self):
        return "ListTokenStream(%d tokens, at %d)" % (len(self._tokens), self._index)
