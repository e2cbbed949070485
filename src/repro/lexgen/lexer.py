"""Maximal-munch DFA tokenizer.

Longest match wins; ties break by rule priority (implicit literals
first, then lexer-rule definition order).  ``-> skip`` drops the token;
``-> channel(HIDDEN)`` / ``-> hidden`` routes it off the parser channel.

The scan loop is alphabet-compressed for ASCII (the dominant case in
real corpora): :meth:`~repro.tables.lexer.LexerTable.ascii_index` maps a
codepoint to its equivalence class and the state's dense class row to
the target, two array indexes per character.  Codepoints >= 128 fall
back to the interval bisect, and ``use_char_classes=False`` forces the
bisect walk everywhere (the reference path the fast path is checked
against in ``tests/test_lexer_fastpath.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Optional, Tuple

from repro.exceptions import LexerError
from repro.runtime.char_stream import CharStream
from repro.runtime.token import DEFAULT_CHANNEL, HIDDEN_CHANNEL, Token, Vocabulary
from repro.tables.lexer import ASCII_LIMIT, LexerTable

#: Channel slot in the accept dispatch marking a ``-> skip`` rule.
_SKIP_CHANNEL = -1


class LexerSpec:
    """Compiled lexer: the flat :class:`~repro.tables.lexer.LexerTable`
    the tokenizer executes, plus the vocabulary mapping rule names to
    token types.  A cold compile passes the table :func:`build_lexer`
    compiled; a cache warm start passes the deserialized one, so nothing
    is recompiled.
    """

    def __init__(self, table: LexerTable, vocabulary: Vocabulary):
        self.table = table
        self.vocabulary = vocabulary
        # (token type, channel) per accepts-pool index; channel -1 means
        # the rule is skipped.  Resolved once per spec, so the hot loop
        # does one tuple index per token instead of a method call, a dict
        # probe, and a commands scan.
        self._dispatch: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def accept_dispatch(self) -> Tuple[Tuple[int, int], ...]:
        """``(token_type, channel)`` per accept-pool index (channel -1 for
        ``-> skip``), aligned with ``table.accepts``."""
        dispatch = self._dispatch
        if dispatch is None:
            entries = []
            for _, name, commands in self.table.accepts:
                channel = DEFAULT_CHANNEL
                for cmd in commands:
                    if cmd == "skip":
                        channel = _SKIP_CHANNEL
                        break
                    if cmd == "hidden" or cmd == "channel(HIDDEN)":
                        channel = HIDDEN_CHANNEL
                entries.append((self.token_type_for(name), channel))
            dispatch = self._dispatch = tuple(entries)
        return dispatch

    def tokenizer(self, text: str, name: str = "<input>",
                  use_char_classes: bool = True) -> "DFATokenizer":
        return DFATokenizer(self, CharStream(text, name),
                            use_char_classes=use_char_classes)

    def tokenize(self, text: str, include_hidden: bool = False):
        """All tokens for ``text`` (skipped rules never appear)."""
        tokens = list(self.tokenizer(text))
        if include_hidden:
            return tokens
        return [t for t in tokens if t.channel == DEFAULT_CHANNEL]

    def token_type_for(self, accept_name: str) -> int:
        """Map an accept-rule display name to its token type."""
        if accept_name.startswith("'"):
            t = self.vocabulary.type_of_literal(accept_name[1:-1])
        else:
            t = self.vocabulary.type_of(accept_name)
        if t is None:
            raise LexerError(accept_name, 0, 0, 0)
        return t


class DFATokenizer:
    """Iterator of Tokens over a char stream, driven by the lexer DFA."""

    def __init__(self, spec: LexerSpec, stream: CharStream,
                 use_char_classes: bool = True):
        self.spec = spec
        self.stream = stream
        self.use_char_classes = use_char_classes
        self._emitted_eof = False
        # Exclusive char offset one past the furthest character the most
        # recent next_token() scan *examined* (not just consumed):
        # maximal munch reads one char beyond the accepted lexeme before
        # it can stop.  The incremental relexer uses this to decide which
        # old lexemes an edit can possibly have changed.
        self.last_scan_end = 0

    def __iter__(self) -> Iterator[Token]:
        return self

    def __next__(self) -> Token:
        if self._emitted_eof:
            raise StopIteration
        token = self.next_token()
        while token is None:  # skipped rule: keep scanning
            token = self.next_token()
        if token.type == -1:
            self._emitted_eof = True
        return token

    def next_token(self) -> Optional[Token]:
        """Scan one token; None for skipped rules; EOF token at end.

        The maximal-munch loop walks the flat lexer table: for ASCII,
        two array indexes per character (equivalence class, then the
        state's dense class row); otherwise one ``bisect_right`` probe
        over the state's sorted interval row.  All array indexing, no
        per-character allocation.
        """
        stream = self.stream
        if stream.at_eof:
            self.last_scan_end = stream.index + 1  # "examined" end-of-input
            line, col = stream.line_column()
            return Token.eof(line=line, column=col, start=stream.index)

        spec = self.spec
        table = spec.table
        edge_index = table.edge_index
        edge_lo = table.edge_lo
        edge_hi = table.edge_hi
        edge_targets = table.edge_targets
        accept_idx = table.accept_idx
        start_index = stream.index
        state = table.start
        last_end = -1
        last_accept = -1  # index into the accepts pool
        index = start_index
        text = stream.text
        n = len(text)
        if self.use_char_classes:
            class_of, class_rows = table.ascii_index()
            while index < n:
                cp = ord(text[index])
                if cp < ASCII_LIMIT:
                    target = class_rows[state][class_of[cp]]
                    if target < 0:
                        break
                else:
                    lo = edge_index[state]
                    i = bisect_right(edge_lo, cp, lo, edge_index[state + 1]) - 1
                    if i < lo or cp > edge_hi[i]:
                        break
                    target = edge_targets[i]
                state = target
                index += 1
                ai = accept_idx[state]
                if ai >= 0:
                    last_end = index
                    last_accept = ai
        else:
            while index < n:
                cp = ord(text[index])
                lo = edge_index[state]
                i = bisect_right(edge_lo, cp, lo, edge_index[state + 1]) - 1
                if i < lo or cp > edge_hi[i]:
                    break
                state = edge_targets[i]
                index += 1
                ai = accept_idx[state]
                if ai >= 0:
                    last_end = index
                    last_accept = ai

        # ``index`` stopped either on the first character with no DFA
        # edge (examined, not consumed) or at end of input (the scan
        # examined the EOF boundary); either way the scan looked at
        # everything strictly before index + 1.
        self.last_scan_end = index + 1

        if last_accept < 0:
            line, col = stream.line_column(start_index)
            raise LexerError(text[start_index], line, col, start_index)

        token_type, channel = spec.accept_dispatch[last_accept]
        end_index = last_end
        stream.seek(end_index)
        if channel == _SKIP_CHANNEL:
            return None
        line, col = stream.line_column(start_index)
        return Token(
            token_type,
            text[start_index:end_index],
            line=line,
            column=col,
            channel=channel,
            start=start_index,
            stop=end_index,
        )
