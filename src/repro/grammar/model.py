"""Grammar, Rule, Alternative — the semantic model behind the AST.

A :class:`Grammar` owns an ordered set of rules plus the token
:class:`~repro.runtime.token.Vocabulary`.  Parser rules have lowercase
names, lexer rules uppercase, following ANTLR convention.  The model layer
is what every later phase (validation, transforms, ATN construction,
analysis, the parser interpreter, code generation) consumes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.exceptions import GrammarError
from repro.grammar import ast
from repro.runtime.token import Vocabulary


class Alternative:
    """One production of a rule: an element sequence plus bookkeeping."""

    def __init__(self, elements: List[ast.Element], label: Optional[str] = None):
        self.elements = list(elements)
        self.label = label

    @property
    def sequence(self) -> ast.Sequence:
        return ast.Sequence(self.elements)

    def __repr__(self):
        body = " ".join(repr(e) for e in self.elements) or "ε"
        return body if self.label is None else "%s # %s" % (body, self.label)


class Rule:
    """A named rule with one or more alternatives.

    Attributes
    ----------
    params:
        Formal parameter names for parameterised rules (``e_[p]`` in the
        paper's left-recursion rewrite).  Arguments are host-language
        expressions evaluated in the caller's frame.
    is_fragment:
        Lexer-only: fragment rules never produce tokens on their own.
    commands:
        Lexer-only commands from ``-> skip`` / ``-> channel(HIDDEN)``.
    """

    def __init__(self, name: str, alternatives: List[Alternative],
                 params: Optional[List[str]] = None,
                 is_fragment: bool = False,
                 commands: Optional[List[str]] = None):
        if not alternatives:
            raise GrammarError("rule %s has no alternatives" % name)
        self.name = name
        self.alternatives = list(alternatives)
        self.params = list(params) if params else []
        self.is_fragment = is_fragment
        self.commands = list(commands) if commands else []

    @property
    def is_lexer_rule(self) -> bool:
        return self.name[:1].isupper()

    @property
    def is_parser_rule(self) -> bool:
        return not self.is_lexer_rule

    @property
    def num_alternatives(self) -> int:
        return len(self.alternatives)

    def walk_elements(self):
        """Yield every AST element in every alternative, preorder."""
        for alt in self.alternatives:
            for el in alt.elements:
                yield from el.walk()

    def __repr__(self):
        alts = " | ".join(repr(a) for a in self.alternatives)
        return "%s : %s ;" % (self.name, alts)


class Grammar:
    """An ordered rule collection + options + token vocabulary."""

    def __init__(self, name: str = "G", options: Optional[Dict[str, object]] = None):
        self.name = name
        self.options: Dict[str, object] = dict(options) if options else {}
        self.rules: Dict[str, Rule] = {}
        self.vocabulary = Vocabulary()
        self._start_rule: Optional[str] = None

    # -- rule management -----------------------------------------------------

    def add_rule(self, rule: Rule) -> Rule:
        if rule.name in self.rules:
            raise GrammarError("rule %s defined more than once" % rule.name)
        self.rules[rule.name] = rule
        if self._start_rule is None and rule.is_parser_rule:
            self._start_rule = rule.name
        return rule

    def rule(self, name: str) -> Rule:
        try:
            return self.rules[name]
        except KeyError:
            raise GrammarError("no rule named %s" % name) from None

    def __contains__(self, name: str) -> bool:
        return name in self.rules

    @property
    def parser_rules(self) -> List[Rule]:
        return [r for r in self.rules.values() if r.is_parser_rule]

    @property
    def lexer_rules(self) -> List[Rule]:
        return [r for r in self.rules.values() if r.is_lexer_rule]

    @property
    def start_rule(self) -> str:
        if self._start_rule is None:
            raise GrammarError("grammar %s has no parser rules" % self.name)
        return self._start_rule

    @start_rule.setter
    def start_rule(self, name: str) -> None:
        if name not in self.rules:
            raise GrammarError("cannot set start rule to unknown rule %s" % name)
        self._start_rule = name

    # -- vocabulary ------------------------------------------------------------

    def register_tokens(self) -> None:
        """Assign token types for every token name and literal in the grammar.

        Lexer rule names come first (so their types are stable regardless
        of where literals appear), then literals referenced anywhere, then
        token names referenced in parser rules but not defined by a lexer
        rule (useful for token-stream-only grammars, i.e. no lexer).
        """
        for rule in self.lexer_rules:
            if not rule.is_fragment:
                self.vocabulary.define(rule.name)
        for rule in self.rules.values():
            for el in rule.walk_elements():
                if isinstance(el, ast.Literal) and rule.is_parser_rule:
                    self.vocabulary.define_literal(el.text)
        for rule in self.parser_rules:
            for el in rule.walk_elements():
                if isinstance(el, ast.TokenRef) and el.name not in self.rules:
                    self.vocabulary.define(el.name)

    def token_type(self, el: ast.Element) -> int:
        """Resolve a TokenRef/Literal AST node to its integer type."""
        if isinstance(el, ast.TokenRef):
            t = self.vocabulary.type_of(el.name)
            if t is None:
                raise GrammarError("unknown token %s (did register_tokens run?)" % el.name)
            return t
        if isinstance(el, ast.Literal):
            t = self.vocabulary.type_of_literal(el.text)
            if t is None:
                raise GrammarError("unknown literal '%s'" % el.text)
            return t
        raise TypeError("not a token element: %r" % el)

    # -- misc --------------------------------------------------------------------

    def option(self, name: str, default=None):
        return self.options.get(name, default)

    def __repr__(self):
        return "Grammar(%s, %d parser rules, %d lexer rules)" % (
            self.name, len(self.parser_rules), len(self.lexer_rules))


class GrammarBuilder:
    """Fluent programmatic construction, mainly for tests and examples.

    Example
    -------
    >>> g = (GrammarBuilder("G")
    ...      .rule("s", [["ID"], ["ID", "'='", "expr"]])
    ...      .build())

    Strings are interpreted as: quoted -> literal, uppercase -> token ref,
    lowercase -> rule ref.  AST elements pass through untouched.
    """

    def __init__(self, name: str = "G", options: Optional[Dict[str, object]] = None):
        self.grammar = Grammar(name, options)

    @staticmethod
    def elem(item) -> ast.Element:
        if isinstance(item, ast.Element):
            return item
        if isinstance(item, str):
            if item.startswith("'") and item.endswith("'") and len(item) >= 3:
                return ast.Literal(item[1:-1])
            if item[:1].isupper():
                return ast.TokenRef(item)
            return ast.RuleRef(item)
        raise TypeError("cannot interpret %r as a grammar element" % (item,))

    def rule(self, name: str, alternatives: Iterable[Iterable], params=None) -> "GrammarBuilder":
        alts = [Alternative([self.elem(e) for e in alt]) for alt in alternatives]
        self.grammar.add_rule(Rule(name, alts, params=params))
        return self

    def option(self, name: str, value) -> "GrammarBuilder":
        self.grammar.options[name] = value
        return self

    def build(self, register_tokens: bool = True) -> Grammar:
        if register_tokens:
            self.grammar.register_tokens()
        return self.grammar
