"""One ``(rule, start)`` memo for speculation and incremental reuse.

The parser's memo (owned by :class:`~repro.runtime.predict.Predictor`)
records what one invocation of a parameterless rule did at a token
index, together with the lookahead reach that invocation examined; an
:class:`~repro.runtime.incremental.EditSession` seeds it with the
previous tree's reusable subtrees.  These tests pin down what soundness
rests on — every memo hit and every graft replays its recorded reach
into the enclosing rule's — and what the one table buys: speculation seeks past a seeded
subtree instead of re-deriving it, and the committed parse grafts it
exactly once.
"""

import pytest

import repro
from repro.grammars import load
from repro.runtime.incremental import EditSession
from repro.runtime.parser import LLStarParser, ParserOptions
from repro.runtime.trees import RuleNode

# ``c``'s gates see the token after ``r``'s loop (the loop's k=2 exit
# examines it) only through memo hits on ``r``: the failed speculation
# of ``(r 'b' 'q')`` for ``p`` memoized ``r``.
REACH = r"""
grammar Reach;
p : (r 'b' 'q')=> r 'b' 'q' | c 'b' 'd' ;
c : (r 'x')=> r 'x' | (u)=> u ;
r : r0 ('b' 'c')* ;
r0 : '(' r0 ')' | 'a' ;
u : u0 ;
u0 : '(' u0 ')' | 'a' ;
WS : [ ]+ -> skip ;
"""

# ``n``'s loop exit examines the token after ``b``, past the end of
# ``r``: ``r``'s reach covers it only through ``n``'s.
GRAFT_REACH = r"""
grammar GraftReach;
s : r 'b' 'd' ;
r : ('x' | 'y') n ;
n : 'a' ('b' 'c')* ;
WS : [ ]+ -> skip ;
"""

# ``a`` nests, so no lookahead DFA decides ``s``: its synpred speculates
# ``a`` at index 0, and then the committed parse invokes it there.
SPEC_THEN_COMMIT = r"""
grammar SpecThenCommit;
s : (a ';')=> a ';' | a '.' ;
a : '(' a ')' | ID ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
"""


class CountingParser(LLStarParser):
    """Test-only parser that counts rule invocations made while
    speculating (memo hits included: the probe runs inside
    ``_run_rule``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.speculative_invocations = 0

    def _run_rule(self, program, arg_values):
        if self._speculating:
            self.speculative_invocations += 1
        return super()._run_rule(program, arg_values)


def cold_sexpr(host, text):
    return host.parse(text, options=ParserOptions(recover=True)) \
        .to_spanned_sexpr()


def rule_node(name, start, stop, look_stop, children=()):
    node = RuleNode(name)
    node.start, node.stop, node.look_stop = start, stop, look_stop
    for child in children:
        node.add(child)
    return node


@pytest.fixture(scope="module")
def reach_host():
    return repro.compile_grammar(REACH)


@pytest.mark.parametrize("parens", [1, 3, 6, 8])
def test_memo_hits_replay_reach(reach_host, parens):
    """Replacing ``d`` with ``c x`` makes ``c`` take its first
    alternative.  The old ``c`` subtree ends before ``b``, but its gates
    examined ``d`` through a memoized ``r``; unless that hit replays
    ``r``'s reach into ``c``'s, the session grafts the stale ``c``."""
    text = "( " * parens + "a" + " )" * parens + " b d"
    session = EditSession(reach_host, text)
    at = text.rindex("d")
    session.edit(at, at + 1, "c x")
    assert session.to_spanned_sexpr() == cold_sexpr(reach_host, session.text)
    assert session.tree.children[0].child_rules("r"), \
        "c must re-derive through its first alternative"


def test_graft_replays_reach():
    """The first edit re-derives ``r`` around a grafted ``n``; unless
    the graft replays ``n``'s reach into ``r``'s, the second edit, which
    lets ``n``'s loop run once more, grafts the stale ``r``."""
    host = repro.compile_grammar(GRAFT_REACH)
    session = EditSession(host, "x a b d")
    session.edit(0, 1, "y")
    assert session.stats.reused_nodes == 1  # the ``n`` subtree
    at = session.text.rindex("d")
    session.edit(at, at + 1, "c b d")
    assert session.to_spanned_sexpr() == cold_sexpr(host, session.text)
    assert not session.errors


class TestSeeds:
    def test_speculation_reads_seed_and_graft_removes_it(self):
        host = repro.compile_grammar(SPEC_THEN_COMMIT)
        text = "( ( x ) ) ;"
        first = LLStarParser(host.analysis, host.tokenize(text),
                             ParserOptions(reuse={}))
        tree = first.parse()
        seed = tree.children[0]
        assert seed.rule_name == "a" and seed.look_stop >= seed.stop
        parser = CountingParser(host.analysis, host.tokenize(text),
                                ParserOptions(reuse={("a", 0): seed}))
        again = parser.parse()
        # The synpred fragment runs, then seeks past the seeded ``a``.
        assert parser.speculative_invocations == 2
        # The committed parse grafted the seed once and removed it.
        assert again.children[0] is seed
        assert parser.reused_nodes == 1
        assert parser.reused_tokens == seed.stop - seed.start + 1
        assert ("a", 0) not in parser._memo
        assert again.to_spanned_sexpr() == cold_sexpr(host, text)

    def test_harvest_keeps_outermost_node_per_key(self):
        def old_tree():
            inner = rule_node("r", 0, 4, 4)
            outer = rule_node("r", 0, 9, 9, [inner])
            return rule_node("s", 0, 12, -1, [outer]), outer, inner

        # Damage at token 11: the outer ``r`` is intact and wins its key;
        # the walk never descends into it.
        root, outer, inner = old_tree()
        seeds = {}
        EditSession._harvest(root, 11, 13, 0, False, seeds)
        assert seeds == {("r", 0): outer}
        assert outer.children == [inner]
        assert root.children == []  # a discarded spine node
        # Damage at token 6: the outer ``r`` straddles it, so the inner
        # one takes the key.
        root, outer, inner = old_tree()
        seeds = {}
        EditSession._harvest(root, 6, 13, 0, False, seeds)
        assert seeds == {("r", 0): inner}

    @pytest.mark.parametrize("grammar", ["java", "rats_c"])
    def test_speculation_does_not_rederive_seeded_subtrees(self, grammar):
        """Seed a parser with the first parse's subtrees below the
        top-level ones: the top level re-derives, and the speculation its
        decisions run seeks past seeded subtrees instead of re-deriving
        them."""
        bench = load(grammar)
        host = bench.compile()
        text = bench.generate_program(8, seed=3)
        first = LLStarParser(host.analysis, host.tokenize(text),
                             ParserOptions(reuse={}))
        tree = first.parse()
        seeds = {}
        stack = [grand for child in tree.children if type(child) is RuleNode
                 for grand in child.children if type(grand) is RuleNode]
        while stack:
            node = stack.pop()
            if node.look_stop >= 0 and node.stop >= node.start:
                seeds.setdefault((node.rule_name, node.start), node)
            else:
                stack.extend(c for c in node.children if type(c) is RuleNode)
        assert seeds
        runs = []
        for seed in ({}, seeds):
            parser = CountingParser(host.analysis, host.tokenize(text),
                                    ParserOptions(reuse=seed))
            assert parser.parse().to_spanned_sexpr() == \
                tree.to_spanned_sexpr()
            runs.append(parser.speculative_invocations)
        unseeded, seeded = runs
        assert unseeded > 500
        assert seeded * 20 < unseeded


@pytest.mark.parametrize("grammar", ["java", "rats_c"])
def test_scripted_keystrokes_match_cold_parses(grammar):
    """Type a statement into a method body one character at a time,
    then delete it again: 30 keystrokes, most of them through broken
    intermediate text, every tree equal to a from-scratch parse."""
    bench = load(grammar)
    host = bench.compile()
    text = bench.generate_program(3, seed=5)
    session = EditSession(host, text)
    at = text.index(") {\n") + len(") {\n")
    typed = "    x = y + 1;\n"
    for i, ch in enumerate(typed):
        session.edit(at + i, at + i, ch)
        assert session.to_spanned_sexpr() == cold_sexpr(host, session.text)
    assert session.stats.reused_nodes > 0
    for i in reversed(range(len(typed))):
        session.edit(at + i, at + i + 1, "")
        assert session.to_spanned_sexpr() == cold_sexpr(host, session.text)
    assert session.text == text
