"""Emit a Python recursive-descent parser module from an analysed grammar.

The generated code mirrors what ANTLR emits: one method per rule,
explicit ``if/elif`` chains per decision, ``while`` loops for EBNF
closures — all plain Python a programmer can read and step through with
a debugger (the paper's Section 1 argument for LL).  Prediction defers
to the embedded DFA tables via :class:`~repro.codegen.support.GeneratedParser`.

Usage::

    source = generate_python(analysis)         # a str, write it to a file
    namespace = {}
    exec(compile(source, "parser.py", "exec"), namespace)
    parser_cls = namespace[class_name]
"""

from __future__ import annotations

from typing import List

from repro.exceptions import GrammarError
from repro.grammar import ast
from repro.grammar.model import Rule


def generate_python(analysis, class_name: str = None,
                    listener: bool = True) -> str:
    """Generate the parser module source for an analysis result.

    ``listener`` (default on) also emits ``<G>Listener`` and
    ``<G>Visitor`` base classes — one ``enter_<rule>``/``exit_<rule>``/
    ``visit_<rule>`` stub per parser rule, docstringed with the rule's
    productions, plus ``RULE_REFS``/``TOKEN_REFS`` context-accessor maps
    — the generated-code twins of
    :func:`repro.runtime.walker.derive_listener_base` /
    :func:`~repro.runtime.walker.derive_visitor_base`.
    """
    return _PythonEmitter(analysis, class_name, listener=listener).emit()


class _PythonEmitter:
    def __init__(self, analysis, class_name=None, listener=True):
        self.analysis = analysis
        self.grammar = analysis.grammar
        self.atn = analysis.atn
        self.class_name = class_name or (self.grammar.name + "Parser")
        self.listener = listener
        self.lines: List[str] = []
        self._indent = 0
        self._tmp = 0

    # -- emission helpers ---------------------------------------------------------

    def w(self, text: str = "") -> None:
        self.lines.append("    " * self._indent + text if text else "")

    def _fresh(self, base: str) -> str:
        self._tmp += 1
        return "_%s%d" % (base, self._tmp)

    def emit(self) -> str:
        g = self.grammar
        self.w('"""Parser for grammar %s.' % g.name)
        self.w("")
        self.w("Generated by repro.codegen (LL(*) reproduction); do not edit.")
        self.w('"""')
        self.w("")
        self.w("from repro.codegen.support import GeneratedParser")
        self.w("from repro.exceptions import RecognitionError")
        if self.listener:
            self.w("from repro.runtime.trees import TreeVisitor")
            self.w("from repro.runtime.walker import ParseTreeListener")
        self.w("")
        self.w("")
        self.w("class %s(GeneratedParser):" % self.class_name)
        self._indent += 1
        self.w("START_RULE = %r" % g.start_rule)
        self.w("")
        names = {t: g.vocabulary.name_of(t)
                 for t in range(-1, g.vocabulary.max_type + 1) if t != 0}
        self.w("TOKEN_NAMES = %r" % names)
        types = {name: t for t, name in names.items()}
        self.w("TOKEN_TYPES = %r" % types)
        self.w("")
        # The execution core rides along as the same versioned flat-table
        # dicts the artifact cache stores (repro.tables); GeneratedParser
        # reconstitutes live tables once per class.
        tables = self.analysis.table_set().to_dict()
        self.w("TABLES = {")
        self._indent += 1
        self.w('"version": %r,' % tables["version"])
        self.w('"pool": %r,' % tables["pool"])
        self.w('"decisions": [')
        self._indent += 1
        for decision in tables["decisions"]:
            self.w("%r," % decision)
        self._indent -= 1
        self.w("],")
        self._indent -= 1
        self.w("}")
        self.w("")
        for rule in g.parser_rules:
            self._emit_rule(rule)
        self._indent -= 1
        if self.listener:
            self._emit_tree_bases()
        return "\n".join(self.lines) + "\n"

    # -- listener / visitor bases ---------------------------------------------------

    def _emit_tree_bases(self) -> None:
        from repro.grammar.printer import print_rule
        from repro.runtime.walker import rule_refs

        g = self.grammar
        rules = [r for r in g.parser_rules if not r.name.startswith("synpred")]
        refs = {r.name: rule_refs(r) for r in rules}
        for kind, base in (("Listener", "ParseTreeListener"),
                           ("Visitor", "TreeVisitor")):
            self.w("")
            self.w("")
            self.w("class %s%s(%s):" % (g.name, kind, base))
            self._indent += 1
            self.w('"""%s base for grammar %s (generated)."""' % (kind, g.name))
            self.w("")
            self.w("RULE_NAMES = %r" % (tuple(r.name for r in rules),))
            self.w("# rule name -> rules / tokens referenced in its")
            self.w("# alternatives: the meaningful ctx.child_rules(name) /")
            self.w("# ctx.child_tokens() accesses per context node.")
            self.w("RULE_REFS = %r" % {name: rr[0] for name, rr in refs.items()})
            self.w("TOKEN_REFS = %r" % {name: rr[1] for name, rr in refs.items()})
            for rule in rules:
                # repr() keeps the docstring a valid literal whatever
                # quotes/escapes the rule's actions contain.
                doc = repr(print_rule(rule).strip())
                if kind == "Listener":
                    for prefix in ("enter_", "exit_"):
                        self.w("")
                        self.w("def %s%s(self, ctx):" % (prefix, rule.name))
                        self.w("    %s" % doc)
                else:
                    self.w("")
                    self.w("def visit_%s(self, ctx):" % rule.name)
                    self.w("    %s" % doc)
                    self.w("    return self.generic_visit(ctx)")
            self._indent -= 1

    # -- rules ---------------------------------------------------------------------------

    def _emit_rule(self, rule: Rule) -> None:
        params = "".join(", %s" % p for p in rule.params)
        self.w("def rule_%s(self%s):" % (rule.name, params))
        self._indent += 1
        memoizable = not rule.params
        if memoizable:
            # The memo check must run before _enter: a memoized *failure*
            # raises, and nothing may be left on the context stack.
            self.w("_start = self.stream.index")
            self.w("if self._memo_enter(%r):" % rule.name)
            self.w("    return None")
        self.w("ctx = self._enter(%r)" % rule.name)
        self.w("state = self.state")
        self.w("LA = self.stream.la")
        self.w("LT = self.stream.lt")
        self.w("TT = self._tt")
        self.w("_ok = False")
        self.w("try:")
        self._indent += 1
        self._emit_alternatives(rule)
        self.w("_ok = True")
        self._indent -= 1
        self.w("except RecognitionError:")
        self._indent += 1
        if memoizable:
            self.w("self._memo_exit(%r, _start, True)" % rule.name)
        self.w("raise")
        self._indent -= 1
        self.w("else:")
        self._indent += 1
        if memoizable:
            self.w("self._memo_exit(%r, _start, False)" % rule.name)
        else:
            self.w("pass")
        self._indent -= 1
        self.w("finally:")
        self.w("    # a failed rule abandons its node (attach-on-close)")
        self.w("    self._exit(_ok)")
        self.w("return ctx")
        self._indent -= 1
        self.w("")

    def _emit_alternatives(self, rule: Rule) -> None:
        if rule.num_alternatives == 1:
            self._emit_sequence(rule.alternatives[0].elements)
            return
        decision = self.atn.decision_for_rule[rule.name]
        var = self._fresh("alt")
        self.w("%s = self._adaptive_predict(%d, locals())" % (var, decision))
        self.w("if ctx is not None:")
        self.w("    ctx.alt = %s" % var)
        for i, alt in enumerate(rule.alternatives, start=1):
            self.w("%s %s == %d:" % ("if" if i == 1 else "elif", var, i))
            self._indent += 1
            self._emit_sequence(alt.elements)
            self._indent -= 1

    def _emit_sequence(self, elements) -> None:
        emitted = False
        for el in elements:
            emitted = self._emit_element(el) or emitted
        if not emitted:
            self.w("pass")

    # -- elements -------------------------------------------------------------------------

    def _emit_element(self, el: ast.Element) -> bool:
        """Emit statements for one element; returns True if any emitted."""
        g = self.grammar
        if isinstance(el, ast.Epsilon):
            return False
        if isinstance(el, (ast.TokenRef, ast.Literal)):
            self.w("self._match(%d)  # %s" % (
                g.token_type(el), g.vocabulary.name_of(g.token_type(el))))
            return True
        if isinstance(el, ast.RuleRef):
            args = "".join(", (%s)" % a for a in el.args)
            self.w("self.rule_%s(%s)" % (el.name, args.lstrip(", ")))
            return True
        if isinstance(el, ast.NotToken):
            excluded = set()
            for name in el.token_names:
                if name.startswith("'"):
                    excluded.add(g.vocabulary.type_of_literal(name[1:-1]))
                else:
                    excluded.add(g.vocabulary.type_of(name))
            allowed = {t for t in range(1, g.vocabulary.max_type + 1)} - excluded
            self.w("self._match_any(%r)" % allowed)
            return True
        if isinstance(el, ast.Wildcard):
            allowed = set(range(1, g.vocabulary.max_type + 1))
            self.w("self._match_any(%r)" % allowed)
            return True
        if isinstance(el, ast.Sequence):
            any_emitted = False
            for sub in el.elements:
                any_emitted = self._emit_element(sub) or any_emitted
            return any_emitted
        if isinstance(el, ast.Block):
            return self._emit_block(el)
        if isinstance(el, ast.Optional_):
            decision = self.atn.decision_for_element[id(el)]
            self.w("if self._adaptive_predict(%d, locals()) == 1:" % decision)
            self._indent += 1
            self._emit_sequence([el.element])
            self._indent -= 1
            return True
        if isinstance(el, ast.Star):
            decision = self.atn.decision_for_element[id(el)]
            self.w("while True:")
            self._indent += 1
            self.w("if self._adaptive_predict(%d, locals()) != 1:" % decision)
            self.w("    break")
            self._emit_sequence([el.element])
            self._indent -= 1
            return True
        if isinstance(el, ast.Plus):
            decision = self.atn.decision_for_element[id(el)]
            self.w("while True:")
            self._indent += 1
            self._emit_sequence([el.element])
            self.w("if self._adaptive_predict(%d, locals()) != 1:" % decision)
            self.w("    break")
            self._indent -= 1
            return True
        if isinstance(el, ast.SemanticPredicate):
            self.w("if not (%s):" % el.code)
            self.w("    self._fail_predicate(%r)" % el.code)
            return True
        if isinstance(el, ast.SyntacticPredicate):
            self.w("# (%s)=> handled by prediction" % (el.name or "synpred"))
            return True
        if isinstance(el, ast.Action):
            body = el.code.strip()
            if not body:
                return False
            if el.always_exec:
                for line in body.splitlines():
                    self.w(line.strip())
            else:
                self.w("if not self.speculating:")
                self._indent += 1
                for line in body.splitlines():
                    self.w(line.strip())
                self._indent -= 1
            return True
        raise GrammarError("cannot generate code for %r" % el)

    def _emit_block(self, el: ast.Block) -> bool:
        if len(el.alternatives) == 1:
            return self._emit_element(el.alternatives[0])
        decision = self.atn.decision_for_element[id(el)]
        var = self._fresh("alt")
        self.w("%s = self._adaptive_predict(%d, locals())" % (var, decision))
        for i, alt in enumerate(el.alternatives, start=1):
            self.w("%s %s == %d:" % ("if" if i == 1 else "elif", var, i))
            self._indent += 1
            self._emit_sequence([alt])
            self._indent -= 1
        return True
