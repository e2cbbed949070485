"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed.  The *mix* of each
workload (grammar shares, size strata, invalid and tree-request shares)
is fixed; the seed picks the program texts, their order and the edit
script.  Stratifying the mix this way keeps a run's aggregate figures
from depending on which seed the run drew.

Program texts come from each suite grammar's ``generate_program(units,
seed)``, so whether an input is valid is known from how it was made:
generated programs are valid, and an input that starts with a closing
parenthesis is invalid in every suite grammar.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Dict, Iterator, List, Tuple

GRAMMARS = ("java", "rats_c", "rats_java", "vb", "sql", "csharp")

#: Generated programs of one unit count vary about 5x in length, so
#: inputs are drawn to a target length (characters, within
#: ``SIZE_SLACK``) instead of a unit count.
SIZE_SLACK = (0.85, 1.2)
#: Typical characters per generated unit, to pick the unit count.
CHARS_PER_UNIT = {"java": 220, "rats_c": 260, "rats_java": 210,
                  "vb": 240, "sql": 88, "csharp": 270}
CHARS_PER_TOKEN = 4.2

#: Per grammar and batch round, target lengths: many small files and a
#: few mid-size ones.  The median file falls inside the 200-character
#: stratum and p99 inside the 1600-character one.
BATCH_SIZES = (100,) * 8 + (200,) * 8 + (400,) * 3 + (800,) * 2 + (1600,)
#: Distinct rounds per seed; a run cycles through them.
BATCH_ROUNDS = 10
#: Large files (about 60 units) in fixed rounds, so that every run
#: parses the same few.
BATCH_LARGE = {1: ("java", 13000), 5: ("rats_c", 13000)}

#: Serve traffic in blocks of 100 requests with fixed, skewed grammar
#: popularity.  Five grammars take 99% of requests and one (rats_c) 1%,
#: so under the server's host cap of five the registry evicts and warm
#: boots a grammar for about 3% of requests: a tail cost, not the body
#: of the latency distribution.
SERVE_BLOCK = (("java",) * 30 + ("sql",) * 25 + ("csharp",) * 16
               + ("vb",) * 15 + ("rats_java",) * 13 + ("rats_c",) * 1)
SERVE_MAX_HOSTS = 5
#: Each block's order is drawn until the registry's LRU (simulated
#: here) boots exactly these grammars in it: the rare one and, in the
#: cascade its eviction sets off, the two least popular of the other
#: five.  How many grammars the cascade boots, and which, depends on the
#: order, and the boots set p99 (2.5% of requests booting gave p99
#: 24-25 ms, 3.5-3.8% 31-32 ms).  The order must also boot the same
#: grammars when any two neighbouring requests that boot nothing swap
#: places, as two connections may deliver them, and the rare grammar
#: comes after the first request of every other, so that the cascade
#: does not depend on the LRU order the block starts from.
SERVE_BOOTS = ("rats_c", "rats_java", "vb")
SERVE_SIZES = (150, 300, 450)   # small requests, about 1-3 units
#: A request that boots a grammar is valid, asks for no tree and has
#: this size in every block, so the boots, which set p99, are alike
#: from seed to seed.
SERVE_BOOT_SIZE = 300
SERVE_INVALID_PER_BLOCK = 10    # 10% invalid by construction
SERVE_TREE_PER_BLOCK = 30       # 30% ask for the tree
SERVE_BLOCKS = 6                # 600 distinct requests per seed, cycled

#: Documents per grammar and their length in (estimated) tokens: per-
#: keystroke cost follows the document's token count and its shape, so
#: documents are sized by tokens and several per grammar are averaged.
EDIT_DOCS_PER_GRAMMAR = 16
EDIT_DOC_TOKENS = 250
#: Document visits per script cycle.  Per-keystroke cost differs about
#: tenfold between grammars (vb, sql and csharp edits are cheapest, java
#: dearest), so the weights put the median keystroke well inside one
#: grammar's population (rats_java: 33% to 78% of keystrokes) rather
#: than on the gap between two.
EDIT_VISITS = ("java", "rats_c", "vb", "sql", "csharp") + ("rats_java",) * 4
#: Bursts of one visit, 34 keystrokes in all: two retypes (4 and 7
#: characters), one 4-letter word typed and backspaced, one line cut and
#: pasted back.
EDIT_VISIT = (("retype", 4), ("retype", 7), ("word", 4), ("cut", 0),
              ("cut", 0))
INVALID_PREFIX = ") "
_WORD_RUN = re.compile(r"[A-Za-z0-9_ ]+")


def sub_seed(seed: int, *parts) -> int:
    """A stable derived seed (independent of ``PYTHONHASHSEED``)."""
    text = "%d/%s" % (seed, "/".join(str(p) for p in parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


def generate(grammar: str, units: int, seed: int) -> str:
    from repro.grammars import load

    return load(grammar).generate_program(units, seed)


def sized(grammar: str, chars: int, seed: int, slack=SIZE_SLACK,
          measure=len) -> str:
    """A generated program of about ``chars`` characters (or units of
    ``measure``): the first of a seeded sequence of candidates within
    ``slack`` of the target (the closest candidate if none is)."""
    per_unit = CHARS_PER_UNIT[grammar] * (
        1.0 if measure is len else 1.0 / CHARS_PER_TOKEN)
    units = max(1, round(chars / per_unit))
    lo, hi = chars * slack[0], chars * slack[1]
    best, best_size = None, None
    for attempt in range(200):
        text = generate(grammar, units, sub_seed(seed, attempt))
        size = measure(text)
        if lo <= size <= hi:
            return text
        if best is None or abs(size - chars) < abs(best_size - chars):
            best, best_size = text, size
        if size < lo and attempt % 8 == 7:
            units += 1
        elif size > hi and attempt % 8 == 7 and units > 1:
            units -= 1
    return best


_LEXEME = re.compile(r"\w+|[^\w\s]")


def approx_tokens(text: str) -> int:
    """Token count estimate that does not use the program's lexer."""
    return len(_LEXEME.findall(text))


# -- batch ---------------------------------------------------------------------

def batch_rounds(seed: int) -> List[List[Tuple[str, str, str]]]:
    """``BATCH_ROUNDS`` rounds of ``(input_id, grammar, text)``."""
    rounds = []
    for r in range(BATCH_ROUNDS):
        files = []
        for g in GRAMMARS:
            for i, chars in enumerate(BATCH_SIZES):
                files.append(("r%d/%s/%d" % (r, g, i), g,
                              sized(g, chars, sub_seed(seed, r, g, i))))
        if r in BATCH_LARGE:
            g, chars = BATCH_LARGE[r]
            files.append(("r%d/%s/large" % (r, g), g,
                          sized(g, chars, sub_seed(seed, r, g, "large"))))
        random.Random(sub_seed(seed, r, "order")).shuffle(files)
        rounds.append(files)
    return rounds


# -- serve ---------------------------------------------------------------------

def serve_requests(seed: int) -> List[dict]:
    """``SERVE_BLOCKS x len(SERVE_BLOCK)`` request specs: ``id``,
    ``grammar``, ``text``, ``tree``, the constructed label ``valid``,
    and ``boot``, whether the registry warm-boots the grammar for it."""
    out = []
    for b in range(SERVE_BLOCKS):
        for attempt in range(1000):
            rng = random.Random(sub_seed(seed, "serve", b, attempt))
            grammars = list(SERVE_BLOCK)
            rng.shuffle(grammars)
            boots = _steady_boots(grammars)
            if boots is not None:
                break
        else:
            raise RuntimeError("no serve block order that boots %s"
                               % (SERVE_BOOTS,))
        slots = [i for i in range(len(grammars)) if i not in boots]
        rng.shuffle(slots)
        invalid = set(slots[:SERVE_INVALID_PER_BLOCK])
        tree = set(slots[SERVE_INVALID_PER_BLOCK:
                         SERVE_INVALID_PER_BLOCK + SERVE_TREE_PER_BLOCK])
        for i, g in enumerate(grammars):
            chars = (SERVE_BOOT_SIZE if i in boots
                     else SERVE_SIZES[i % len(SERVE_SIZES)])
            text = sized(g, chars, sub_seed(seed, "serve", b, i))
            valid = i not in invalid
            out.append({"id": "b%d/%d" % (b, i), "grammar": g,
                        "text": text if valid else INVALID_PREFIX + text,
                        "tree": i in tree, "valid": valid,
                        "boot": i in boots})
    return out


def serve_resident() -> List[str]:
    """The registry's hosts, least recently used first, after the
    warm-up (one request per grammar, least popular first)."""
    return sorted(GRAMMARS, key=SERVE_BLOCK.count)[-SERVE_MAX_HOSTS:]


def _steady_boots(grammars: List[str]):
    """Positions in ``grammars`` that boot a grammar, if the block boots
    ``SERVE_BOOTS`` steadily (see there); else None."""
    rare = SERVE_BOOTS[0]
    if grammars.index(rare) < max(grammars.index(g) for g in GRAMMARS
                                  if g != rare):
        return None
    resident = serve_resident()
    boots = lru_boots(grammars, resident)
    if (sorted(grammars[i] for i in boots) != sorted(SERVE_BOOTS)
            or rare in resident):
        return None
    for i in range(len(grammars) - 1):
        if i in boots or i + 1 in boots:
            continue
        swapped = list(grammars)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        resident = serve_resident()
        if lru_boots(swapped, resident) != boots or rare in resident:
            return None
    return set(boots)


def lru_boots(grammars, resident: List[str]) -> List[int]:
    """Positions in ``grammars`` at which a registry holding
    ``SERVE_MAX_HOSTS`` hosts with LRU eviction boots a grammar;
    ``resident`` (least recently used first) is updated in place."""
    boots = []
    for i, g in enumerate(grammars):
        if g in resident:
            resident.remove(g)
        else:
            boots.append(i)
            if len(resident) >= SERVE_MAX_HOSTS:
                resident.pop(0)
        resident.append(g)
    return boots


# -- edit ----------------------------------------------------------------------

def edit_documents(seed: int) -> Dict[str, str]:
    """Mid-size generated documents, ``"<grammar>/<i>"`` -> text."""
    return {"%s/%d" % (g, i): sized(g, EDIT_DOC_TOKENS,
                                   sub_seed(seed, "edit", g, i),
                                   slack=(0.95, 1.05), measure=approx_tokens)
            for g in GRAMMARS for i in range(EDIT_DOCS_PER_GRAMMAR)}


Edit = Tuple[str, int, int, str]   # (document, start, end, replacement)


def edit_cycles(seed: int, docs: Dict[str, str]) -> Iterator[List[List[Edit]]]:
    """Endless seeded typing script, one cycle of bursts at a time.

    Each burst works on one document and restores that document's
    original text when it completes, so a completed burst can be checked
    against the document's reference tree.  The script jumps between
    documents: a cycle visits grammars in a seeded order with the
    ``EDIT_VISITS`` weights (each grammar's documents in turn), and each
    visit runs the bursts of ``EDIT_VISIT`` in a seeded order, so every
    cycle has the same keystrokes per grammar.  A visit's bursts work in
    consecutive fifths of the document, so each visit edits all of it
    and the cost of a run's edits depends little on which positions the
    seed drew.  Shapes: retype the tail of a run of word characters
    (backspaces, then single-character inserts), type a word after a
    space and backspace it, or cut a whole line and paste it back.
    Intermediate states are usually syntax errors but always lex, since
    only word characters and spaces are removed or inserted inside a
    line and no generated token spans lines.
    """
    rng = random.Random(sub_seed(seed, "script"))
    turn = {g: 0 for g in GRAMMARS}
    while True:
        visits = list(EDIT_VISITS)
        rng.shuffle(visits)
        cycle = []
        for g in visits:
            doc = "%s/%d" % (g, turn[g] % EDIT_DOCS_PER_GRAMMAR)
            turn[g] += 1
            bursts = list(EDIT_VISIT)
            rng.shuffle(bursts)
            n = len(bursts)
            cycle.extend(_burst(rng, doc, docs[doc], shape, k,
                                (i * len(docs[doc]) // n,
                                 (i + 1) * len(docs[doc]) // n))
                         for i, (shape, k) in enumerate(bursts))
        yield cycle


def _pick(rng, candidates, stratum):
    """A seeded choice among ``candidates`` (positions, or spans by their
    end) inside ``stratum``, or among all of them if none is inside."""
    lo, hi = stratum
    inside = [c for c in candidates
              if lo <= (c[1] if isinstance(c, tuple) else c) < hi]
    return rng.choice(inside or candidates)


def _burst(rng, g: str, text: str, shape: str, k: int,
           stratum: Tuple[int, int]) -> List[Edit]:
    burst: List[Edit] = []
    if shape == "retype":
        runs = [m.span() for m in _WORD_RUN.finditer(text)
                if m.end() - m.start() >= k]
        s, e = _pick(rng, runs, stratum)
        for pos in range(e - 1, e - k - 1, -1):
            burst.append((g, pos, pos + 1, ""))
        for pos in range(e - k, e):
            burst.append((g, pos, pos, text[pos]))
    elif shape == "cut":
        starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
        s = _pick(rng, [p for p in starts if p < len(text)], stratum)
        e = text.find("\n", s)
        cut = text[s:] if e < 0 else text[s:e + 1]
        burst.append((g, s, s + len(cut), ""))
        burst.append((g, s, s, cut))
    else:
        spaces = [i + 1 for i, c in enumerate(text) if c == " "]
        at = _pick(rng, spaces, stratum)
        word = rng.choice(("tmp1", "val2", "cnt3", "xyz4"))[:k] + " "
        for j, ch in enumerate(word):
            burst.append((g, at + j, at + j, ch))
        for j in range(len(word) - 1, -1, -1):
            burst.append((g, at + j, at + j + 1, ""))
    return burst
