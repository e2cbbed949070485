"""Golden recovery: every repair, reported error and tree on the suite.

Error recovery reads per-ATN-state continuation sets over the live
invocation stack, and ``llstar sets`` prints rule-level FIRST/FOLLOW
from the same object.  This test pins both on every suite grammar by
sha256:

* recovery: seeds 0-39 of ``test_chaos.py``'s token corruption over
  ``generate_program(2, seed=1)``, parsed with ``recover=True``, with
  ``recover=False``, and with ``recover=True`` plus reach tracking (an
  empty ``reuse`` mapping, as an incremental parse passes).  A parse
  that returns contributes its spanned tree and which reported error
  each ``ErrorNode`` holds, one that raises its error; every parse adds
  its reported errors (class, message, index), the
  ``llstar_recovery_events_total`` count per repair kind and the
  skipped-token counter.  With reach tracking, each rule node's
  ``look_stop`` is added too: a repair inside a rule marks it
  unreusable.  The budget has no deadline, so nothing depends on time.
* sets: the ``llstar sets`` output over every non-synpred rule.

A change to which repair runs, what it reports, where its ``ErrorNode``
attaches, or to any set, fails here.  ``pytest -m chaos`` runs the
first four seeds.  A small grammar pins each repair kind by name,
the end-of-input drain included.
"""

import functools
import hashlib

import pytest

import repro
from repro.analysis.sets import GrammarSets
from repro.exceptions import (
    BudgetExceededError,
    MismatchedTokenError,
    RecognitionError,
)
from repro.grammars import PAPER_ORDER, load
from repro.runtime.budget import ParserBudget
from repro.runtime.chaos import ChaosTokenStream
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry
from repro.runtime.trees import RuleNode
from repro.tools import cli
from tests.test_chaos import RATES

SEEDS = range(40)
SMOKE_SEEDS = range(4)
REPAIRS = ("delete", "insert", "panic", "eof-drain")
MODES = ("recover", "bail", "reach")

GOLDEN = {
    "java": "a6cef7474c3801a591c518bce3b7aae83cada23e68ba64793b69dff7684fe5f6",
    "rats_c": "7d3b685ae22398a226edd3d6832bc91e31cc182a3502214bb607aae063ff8e7f",
    "rats_java": "c694bf51db60398377f7bacad482509ac69776ebc0e9ec3d3957cc1fb1eaa20c",
    "vb": "4a3d933ed1ffeaaa3ddeccb907466fed92513ed89630a4fa38cd9957e252f058",
    "sql": "659a15bd79e63f7411b1873f8d54a291c7f3f3b696829eb617d0016ba5c3425a",
    "csharp": "06ab2b32da02f77aa1f04d6093ba67864bcb9105f14f0e8f998c1c711cd59039",
}

GOLDEN_SMOKE = {
    "java": "933d81010032c703548686382008f8dee5c0be1af1b5f909b68850a13ba4997e",
    "rats_c": "60ff5041c95dd62202c4321c0693d3a00faca9882c50e5a578b4c87d06a8e157",
    "rats_java": "cf88b91294cf25e8bc50755090be0c17d429e05b219a8741890ee3cfcfbd3504",
    "vb": "3524a258780ef678ef687f49281dfd386dde4bbf379c452af1436f6f5c635aeb",
    "sql": "45248911cd05eb6116bab7c8ac80d5cecb07dc23f7ae4be34ea5ec7cfa1fdaad",
    "csharp": "46a386802d84d1437e9d02564e8ea2ea11aa36e1cdf1cbbf35d893da8ddf5900",
}

GOLDEN_SETS = {
    "java": "7dfc18e239738f61766a1e99b4afc22271a92589a71020aacc26cacb68176ac2",
    "rats_c": "e1c57f4bacde7587a4bf718cc275ba621b069e0c2a71cffef5499043ddcb8df6",
    "rats_java": "c3070b0e6808abe537c1d9ad530e69d00662a3e86751b3b454e2e71917e1ed72",
    "vb": "86c4e8470f783dd245afaa3e6da25cccc377e412ad7eb80cf67a8a9d2eceee3f",
    "sql": "30f86337cc56766ff8770e5de45ec3db610c619f00ec1ab4df2fa581543ff866",
    "csharp": "1a6e967132e9300685a3d6851cf43b300336e8cb577bfb4355745ac3c3fcd193",
}


@functools.lru_cache(maxsize=None)
def _tokens(name):
    bench = load(name)
    return bench.compile().tokenize(bench.generate_program(2, seed=1)).tokens()


def _error_line(error) -> str:
    return "%s|%s|%s" % (type(error).__name__, error, error.index)


@functools.lru_cache(maxsize=None)
def outcome(name: str, seed: int, mode: str) -> str:
    """Everything one parse of chaos seed ``seed`` on suite grammar
    ``name`` in ``mode`` (one of ``MODES``) shows, as text."""
    telemetry = ParseTelemetry()
    parser = load(name).compile().parser(
        ChaosTokenStream(_tokens(name), seed=seed, **RATES),
        options=ParserOptions(
            recover=mode != "bail", telemetry=telemetry,
            budget=ParserBudget.defensive(deadline_seconds=None),
            reuse={} if mode == "reach" else None))
    lines = ["seed %d %s" % (seed, mode)]
    try:
        tree = parser.parse()
    except (RecognitionError, BudgetExceededError) as error:
        lines.append("raised " + _error_line(error))
    else:
        lines.append(tree.to_spanned_sexpr())
        for node in tree.error_nodes():
            held = [i for i, e in enumerate(parser.errors) if e is node.error]
            lines.append("error node [%d:%d] holds %s"
                         % (node.start, node.stop, held))
        if mode == "reach":
            lines.append("look_stop %s" % [
                node.look_stop for node in tree.walk()
                if isinstance(node, RuleNode)])
    lines.extend("reported " + _error_line(e) for e in parser.errors)
    metrics = telemetry.metrics
    lines.extend("%s=%d" % (kind, metrics.value(
        "llstar_recovery_events_total", {"kind": kind})) for kind in REPAIRS)
    lines.append("skipped=%d" % metrics.value(
        "llstar_recovery_tokens_skipped_total"))
    return "\n".join(lines)


def recovery_digest(name: str, seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        for mode in MODES:
            digest.update(outcome(name, seed, mode).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def sets_digest(name: str, capsys, monkeypatch) -> str:
    """sha256 of ``llstar sets`` on suite grammar ``name`` (the cached
    compiled host stands in for compiling the grammar file again)."""
    host = load(name).compile()
    monkeypatch.setattr(cli, "_load_host", lambda args: host)
    capsys.readouterr()
    assert cli.main(["sets", "%s.g" % name]) == 0
    out = capsys.readouterr().out
    assert "FIRST(" in out
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_recovery_digest(name):
    assert recovery_digest(name, SEEDS) == GOLDEN[name]


@pytest.mark.chaos
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_recovery_digest_smoke(name):
    assert recovery_digest(name, SMOKE_SEEDS) == GOLDEN_SMOKE[name]


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_sets_digest(name, capsys, monkeypatch):
    assert sets_digest(name, capsys, monkeypatch) == GOLDEN_SETS[name]


def test_seeds_exercise_the_repairs():
    """The goldens are only as good as what the seeds reach: across the
    suite, seeds 0-39 delete, insert and resync, and raise without
    ``recover``.  No suite start rule returns before the end of input,
    so the end-of-input drain is pinned on ``STMTS`` below."""
    totals = dict.fromkeys(REPAIRS, 0)
    raised = 0
    for name in PAPER_ORDER:
        for seed in SEEDS:
            for line in outcome(name, seed, "recover").splitlines():
                kind, _, count = line.partition("=")
                if kind in totals:
                    totals[kind] += int(count)
            raised += "\nraised " in outcome(name, seed, "bail")
    assert totals["delete"] and totals["insert"] and totals["panic"], totals
    assert raised > len(SEEDS)


STMTS = r"""
grammar Stmts;
prog : stmt+ ;
stmt : ID '=' expr ';'
     | 'print' expr ';'
     ;
expr : term (('+' | '*') term)* ;
term : ID | INT ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
"""


@functools.lru_cache(maxsize=None)
def _stmts_host():
    return repro.compile_grammar(STMTS)


@pytest.mark.parametrize("rule, text, tree, errors, repairs, skipped", [
    ("prog", "x 1 = 1 ;",
     "(prog[0:4] (stmt[0:4] x@0 (<error>[1:1] 1) =@2"
     " (expr[3:3] (term[3:3] 1@3)) ;@4))",
     ["line 1:2 rule stmt expecting '=', found '1' (token index 1)"],
     {"delete": 1}, 1),
    ("prog", "x = 1 y = 2 ;",
     "(prog[0:6] (stmt[0:2] x@0 =@1 (expr[2:2] (term[2:2] 1@2)"
     " (<error>[-1:-2])) (<error>[3:2] inserted <missing ';'>)"
     " <missing ';'>@-1) (stmt[3:6] y@3 =@4 (expr[5:5] (term[5:5] 2@5))"
     " ;@6))",
     ["line 1:6 rule expr decision 2: no viable alternative at input 'y'"
      " (token index 3)"],
     {"insert": 1, "panic": 1}, 0),
    ("prog", "x = 1 ; 5 y = 2 ;",
     "(prog[0:8] (stmt[0:3] x@0 =@1 (expr[2:2] (term[2:2] 1@2)) ;@3)"
     " (<error>[4:8] 5 y = 2 ;))",
     ["line 1:8 rule prog decision 0: no viable alternative at input '5'"
      " (token index 4)"],
     {"panic": 1}, 5),
    ("stmt", "x 1 = 1 ; y",
     "(stmt[0:5] x@0 (<error>[1:1] 1) =@2 (expr[3:3] (term[3:3] 1@3)) ;@4"
     " (<error>[5:5] y))",
     ["line 1:2 rule stmt expecting '=', found '1' (token index 1)",
      "line 1:10 rule stmt expecting EOF, found 'y' (token index 5)"],
     {"delete": 1, "eof-drain": 1}, 2),
    ("expr", "a + + b c",
     "(expr[0:4] (term[0:0] a@0) +@1 (term[2:1] (<error>[-1:-2])) +@2"
     " (term[3:3] b@3) (<error>[4:4] c))",
     ["line 1:4 rule term decision 4: no viable alternative at input '+'"
      " (token index 2)",
      "line 1:8 rule expr decision 2: no viable alternative at input 'c'"
      " (token index 4)"],
     {"panic": 2}, 1),
])
def test_each_repair_on_a_small_grammar(rule, text, tree, errors, repairs,
                                        skipped):
    host = _stmts_host()
    telemetry = ParseTelemetry()
    parser = host.parser(text, options=ParserOptions(recover=True,
                                                     telemetry=telemetry))
    assert parser.parse(rule).to_spanned_sexpr() == tree
    assert [str(e) for e in parser.errors] == errors
    metrics = telemetry.metrics
    assert {kind: metrics.value("llstar_recovery_events_total",
                                {"kind": kind})
            for kind in REPAIRS} == dict(dict.fromkeys(REPAIRS, 0), **repairs)
    assert metrics.value("llstar_recovery_tokens_skipped_total") == skipped


def test_bailing_parse_builds_no_sets(monkeypatch):
    """A parse without ``recover`` raises at a mismatched MATCH op and
    computes no set, nor does a deletion; a repair that needs one builds
    the analysis's sets once, and every later parser shares them."""
    built = []
    init = GrammarSets.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(GrammarSets, "__init__", counting_init)
    host = repro.compile_grammar(STMTS)
    with pytest.raises(MismatchedTokenError,
                       match="rule stmt expecting '=', found '1'"):
        host.parse("x 1 = 1 ;")
    assert built == []
    parser = host.parser("x 1 = 1 ;", options=ParserOptions(recover=True))
    assert "(<error>[1:1] 1)" in parser.parse().to_spanned_sexpr()
    assert built == []
    for _ in range(2):
        parser = host.parser("x = 1 y = 2 ;",
                             options=ParserOptions(recover=True))
        assert "inserted <missing ';'>" in parser.parse().to_spanned_sexpr()
    assert len(built) == 1
