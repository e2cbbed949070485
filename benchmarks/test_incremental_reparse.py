"""Incremental reparse vs from-scratch warm parse (the editor loop).

For every suite grammar, generate a corpus-scale program, open it in an
:class:`~repro.runtime.incremental.EditSession`, and time a
single-character keystroke (replacing one digit inside a token near the
middle of the file) against a full warm reparse of the same text —
tokenize plus parse, with a parse-only column for honesty.  The damage
window keeps relexing to a handful of characters and the subtrees seeded
into the parser's (rule, start) memo graft everything outside the edited
statement, so the incremental path must beat the from-scratch path by
>= 10x on the largest corpus input, with the reuse rate reported
alongside.

Results land in ``benchmarks/results/incremental_reparse.txt``.
"""

import time

from repro.grammars import PAPER_ORDER, load
from repro.runtime.incremental import EditSession
from repro.runtime.parser import ParserOptions

from conftest import emit_table

UNITS = 60
SEED = 42
REPEATS = 5
TARGET_SPEEDUP = 10.0


def _best(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _edit_site(text):
    """A digit inside a token near the middle of the document."""
    mid = len(text) // 2
    for i in range(mid, len(text)):
        if text[i].isdigit():
            return i
    for i in range(mid, -1, -1):
        if text[i].isdigit():
            return i
    raise AssertionError("corpus has no digit to edit")


def test_incremental_reparse(suite, paper_names):
    rows = []
    largest = None  # (tokens, name, speedup, session, host)

    for name in PAPER_ORDER:
        bench, host = suite[name]
        text = bench.generate_program(UNITS, seed=SEED)
        session = EditSession(host, text)
        tokens = session.stream.size
        site = _edit_site(text)

        def cold_full():
            stream = host.tokenize(session.text)
            parser_options = ParserOptions(recover=True)
            from repro.runtime.parser import LLStarParser
            LLStarParser(host.analysis, stream, parser_options).parse()

        def cold_parse_only(stream=host.tokenize(text)):
            stream.seek(0)
            from repro.runtime.parser import LLStarParser
            LLStarParser(host.analysis, stream,
                         ParserOptions(recover=True)).parse()

        # Alternate two same-class characters so every timed edit is a
        # real change (never a no-op on an already-edited document).
        state = {"flip": False}

        def keystroke():
            state["flip"] = not state["flip"]
            session.edit(site, site + 1, "1" if state["flip"] else "2")

        full_s = _best(cold_full)
        parse_s = _best(cold_parse_only)
        edit_s = _best(keystroke)
        speedup = full_s / edit_s if edit_s else float("inf")
        reuse = session.stats.reuse_rate

        rows.append((paper_names[name], tokens,
                     "%.1fms" % (full_s * 1e3), "%.1fms" % (parse_s * 1e3),
                     "%.2fms" % (edit_s * 1e3), "%.1fx" % speedup,
                     "%.1f%%" % (100 * reuse)))
        if largest is None or tokens > largest[0]:
            largest = (tokens, name, speedup, session, host)

    emit_table(
        "incremental_reparse",
        "Single-char edit: incremental reparse vs from-scratch warm parse\n"
        "(%d-unit corpora, best of %d; full = tokenize + parse)"
        % (UNITS, REPEATS),
        ("Grammar", "Tokens", "Full", "Parse-only", "Edit", "Speedup",
         "Reuse"),
        rows)

    tokens, name, speedup, session, host = largest
    assert speedup >= TARGET_SPEEDUP, \
        "largest corpus (%s, %d tokens): %.1fx < %.0fx" % (
            name, tokens, speedup, TARGET_SPEEDUP)

    # The timed session must still agree with a from-scratch parse.
    ref = host.parse(session.text, options=ParserOptions(recover=True))
    assert session.to_spanned_sexpr() == ref.to_spanned_sexpr()
