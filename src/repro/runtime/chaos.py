"""Fault injection for parser robustness testing.

The recovery, budget, and degradation machinery in this runtime exists
for inputs no clean test corpus contains: editors hand parsers half-typed
files, pipelines hand them truncated downloads.  This module manufactures
such inputs *deterministically* — every corruption is driven by a seeded
RNG and recorded as a :class:`CorruptionEvent` — so the robustness test
driver (``tests/test_chaos.py``) can assert, over hundreds of corrupted
variants per grammar, that a recovering parse always terminates, raises
only typed errors, and marks every repair with an
:class:`~repro.runtime.trees.ErrorNode`.

Three injection points:

* :class:`ChaosTokenStream` — corrupts a lexed token sequence (drop,
  duplicate, substitute, truncate), modelling damage *between* lexer and
  parser;
* :class:`ChaosCharStream` — corrupts raw text before lexing, modelling
  damage on disk or in transit;
* :class:`ServiceChaos` — injects *service-layer* faults (worker kills,
  slow parses, malformed request bytes) into the batch engine and the
  ``llstar serve`` request path, so the robustness suite can assert the
  system degrades instead of collapsing.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from typing import Iterable, List, Optional

from repro.runtime.token import DEFAULT_CHANNEL, EOF, Token
from repro.runtime.token_stream import ListTokenStream

DROP = "drop"
DUPLICATE = "duplicate"
SUBSTITUTE = "substitute"
TRUNCATE = "truncate"


class CorruptionEvent:
    """One injected fault: what happened, where, and to what."""

    __slots__ = ("kind", "index", "original", "replacement")

    def __init__(self, kind: str, index: int, original=None, replacement=None):
        self.kind = kind
        self.index = index  # position in the *original* sequence
        self.original = original
        self.replacement = replacement

    def __repr__(self):
        detail = ""
        if self.original is not None:
            detail = " %r" % (self.original,)
        if self.replacement is not None:
            detail += " -> %r" % (self.replacement,)
        return "CorruptionEvent(%s @%d%s)" % (self.kind, self.index, detail)


def _clone(token: Token, like: Token) -> Token:
    """A copy of ``token`` positioned where ``like`` sat (corruptions
    keep plausible coordinates so error messages stay meaningful)."""
    return Token(token.type, token.text, line=like.line, column=like.column,
                 channel=like.channel)


class ChaosTokenStream(ListTokenStream):
    """A token stream whose contents were deterministically damaged.

    Each input token (EOF excluded) independently suffers at most one
    fault: dropped with probability ``drop_rate``, duplicated with
    ``duplicate_rate``, or replaced by a clone of a *different* randomly
    chosen input token with ``substitute_rate``.  Afterwards, with
    probability ``truncate_rate`` the sequence is cut at a random point
    (simulating a half-written file).  All randomness comes from
    ``random.Random(seed)``; the same seed always yields the same damage,
    recorded in :attr:`events`.
    """

    def __init__(self, tokens: Iterable[Token],
                 drop_rate: float = 0.0,
                 duplicate_rate: float = 0.0,
                 substitute_rate: float = 0.0,
                 truncate_rate: float = 0.0,
                 seed: int = 0,
                 channel: int = DEFAULT_CHANNEL):
        rng = random.Random(seed)
        source = [t for t in tokens if t.type != EOF]
        out: List[Token] = []
        events: List[CorruptionEvent] = []
        for i, token in enumerate(source):
            roll = rng.random()
            if roll < drop_rate:
                events.append(CorruptionEvent(DROP, i, original=token.text))
                continue
            roll -= drop_rate
            if roll < duplicate_rate:
                out.append(token)
                out.append(_clone(token, token))
                events.append(CorruptionEvent(DUPLICATE, i, original=token.text))
                continue
            roll -= duplicate_rate
            if roll < substitute_rate and len(source) > 1:
                other = source[rng.randrange(len(source))]
                replacement = _clone(other, token)
                out.append(replacement)
                events.append(CorruptionEvent(
                    SUBSTITUTE, i, original=token.text,
                    replacement=replacement.text))
                continue
            out.append(token)
        if truncate_rate and out and rng.random() < truncate_rate:
            cut = rng.randrange(len(out))
            events.append(CorruptionEvent(
                TRUNCATE, cut, original="%d tokens" % (len(out) - cut)))
            del out[cut:]
        self.events = events
        super().__init__(out, channel=channel)

    @property
    def corrupted(self) -> bool:
        return bool(self.events)


class ChaosCharStream:
    """Deterministically damaged source text, for lexer-level injection.

    Same fault model as :class:`ChaosTokenStream`, applied per character;
    substitutions draw from ``alphabet`` (default: the distinct characters
    of the input itself, which keeps the text lexable more often and so
    exercises the *parser's* recovery rather than only the lexer's).
    Use ``str(stream)`` (or :attr:`text`) to feed the result to a lexer.
    """

    def __init__(self, text: str,
                 drop_rate: float = 0.0,
                 duplicate_rate: float = 0.0,
                 substitute_rate: float = 0.0,
                 truncate_rate: float = 0.0,
                 seed: int = 0,
                 alphabet: Optional[str] = None):
        rng = random.Random(seed)
        if alphabet is None:
            alphabet = "".join(sorted(set(text))) or " "
        out: List[str] = []
        events: List[CorruptionEvent] = []
        for i, ch in enumerate(text):
            roll = rng.random()
            if roll < drop_rate:
                events.append(CorruptionEvent(DROP, i, original=ch))
                continue
            roll -= drop_rate
            if roll < duplicate_rate:
                out.append(ch)
                out.append(ch)
                events.append(CorruptionEvent(DUPLICATE, i, original=ch))
                continue
            roll -= duplicate_rate
            if roll < substitute_rate:
                replacement = alphabet[rng.randrange(len(alphabet))]
                out.append(replacement)
                events.append(CorruptionEvent(
                    SUBSTITUTE, i, original=ch, replacement=replacement))
                continue
            out.append(ch)
        if truncate_rate and out and rng.random() < truncate_rate:
            cut = rng.randrange(len(out))
            events.append(CorruptionEvent(
                TRUNCATE, cut, original="%d chars" % (len(out) - cut)))
            del out[cut:]
        self.text = "".join(out)
        self.events = events

    @property
    def corrupted(self) -> bool:
        return bool(self.events)

    def __str__(self):
        return self.text

    def __repr__(self):
        return "ChaosCharStream(%d chars, %d faults)" % (
            len(self.text), len(self.events))


# -- service-layer fault injection ---------------------------------------------------

KILL = "worker-kill"
SLOW = "slow-parse"
MALFORM = "malformed-request"


class ServiceChaos:
    """Deterministic service-layer fault policy.

    Unlike the stream corruptors above, which walk one seeded RNG over a
    sequence, service faults must be *stable per request*: a chunk the
    batch engine retries after a pool rebuild, or a request the serve
    layer replays, must meet the same fault again (or provably not).  So
    every decision hashes ``(seed, request_id)`` — order-independent,
    process-independent, replayable.

    ``kill_rate`` / ``slow_rate`` / ``malform_rate``
        Probabilities (evaluated in that order from one hash draw) that
        a given request id is assigned the fault.
    ``kill_ids``
        Request ids that *always* draw :data:`KILL` (deterministic
        crash placement for targeted tests).
    ``slow_seconds``
        How long a :data:`SLOW` fault stalls.
    ``armed``
        Master switch; a disarmed policy injects nothing.  Tests flip it
        off to model "faults clear" and assert recovery.

    The object is picklable (plain attributes only) so it can ride into
    pool workers with each unit of work: a batch
    :class:`~repro.batch.worker.ChunkTask` or a serve
    :class:`~repro.serve.worker.ParseTask`.
    """

    __slots__ = ("seed", "kill_rate", "slow_rate", "malform_rate",
                 "slow_seconds", "kill_ids", "armed")

    def __init__(self, seed: int = 0, kill_rate: float = 0.0,
                 slow_rate: float = 0.0, malform_rate: float = 0.0,
                 slow_seconds: float = 0.05,
                 kill_ids: Iterable[str] = (), armed: bool = True):
        self.seed = seed
        self.kill_rate = kill_rate
        self.slow_rate = slow_rate
        self.malform_rate = malform_rate
        self.slow_seconds = slow_seconds
        self.kill_ids = frozenset(kill_ids)
        self.armed = armed

    def _draw(self, request_id: str) -> float:
        digest = hashlib.blake2b(
            ("%d:%s" % (self.seed, request_id)).encode("utf-8"),
            digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def fault_for(self, request_id: str) -> Optional[str]:
        """The fault (if any) assigned to this request id."""
        if not self.armed:
            return None
        if request_id in self.kill_ids:
            return KILL
        roll = self._draw(request_id)
        if roll < self.kill_rate:
            return KILL
        roll -= self.kill_rate
        if roll < self.slow_rate:
            return SLOW
        roll -= self.slow_rate
        if roll < self.malform_rate:
            return MALFORM
        return None

    def apply_before_parse(self, request_id: str, in_worker: bool) -> Optional[str]:
        """Execute the request's pre-parse fault, returning its kind.

        A :data:`KILL` hard-exits the process — but only when
        ``in_worker`` is true: killing is meaningful for pool workers
        (the parent sees a broken pool and must rebuild or degrade),
        while an inline executor reports it as a typed crash instead of
        taking the whole service down with it.
        """
        fault = self.fault_for(request_id)
        if fault == KILL and in_worker:
            os._exit(1)
        if fault == SLOW:
            time.sleep(self.slow_seconds)
        return fault

    def corrupt_body(self, body: bytes, request_id: str) -> bytes:
        """Deterministically damage request bytes (malformed-request
        injection for transport-level tests): truncate, bit-flip, or
        prepend garbage, chosen by the request hash."""
        if not body:
            return b"\x00garbage"
        choice = int(self._draw("body:" + request_id) * 3)
        if choice == 0:
            return body[:max(1, len(body) // 2)]
        if choice == 1:
            cut = int(self._draw("flip:" + request_id) * len(body))
            return body[:cut] + bytes([body[cut] ^ 0xFF]) + body[cut + 1:]
        return b"\xff\xfe" + body

    def __repr__(self):
        rates = "kill=%.3f slow=%.3f malform=%.3f" % (
            self.kill_rate, self.slow_rate, self.malform_rate)
        return "ServiceChaos(seed=%d %s%s)" % (
            self.seed, rates, "" if self.armed else " DISARMED")
