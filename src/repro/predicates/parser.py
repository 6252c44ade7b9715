"""Text parser for alphabet-predicates.

Accepts the paper's lambda style and a bare comparison style:

* ``lambda(p) p.citizen = "Brazil"``
* ``p.age > 25 and p.citizen = "USA"``
* ``pitch = "A"``
* ``not (age <= 25 or citizen != "Brazil")``

Grammar (precedence low→high: ``or``, ``and``, ``not``, comparison)::

    predicate  := [ 'lambda' '(' IDENT ')' ] or_expr
    or_expr    := and_expr ( 'or' and_expr )*
    and_expr   := not_expr ( 'and' not_expr )*
    not_expr   := 'not' not_expr | '(' or_expr ')' | comparison
    comparison := ref OP literal
    ref        := IDENT [ '.' IDENT ]          -- "p.age" or "age"
    literal    := NUMBER | STRING | true | false | PARAM  -- "$name"

Comparing the lambda variable itself (``p = "a"``) produces a
:class:`~repro.predicates.alphabet.SymbolEquals`, matching the payload
directly — handy for the figure-style single-letter trees.
"""

from __future__ import annotations

import re
from typing import Any

from ..errors import PredicateError
from ..params import Literals, Param
from .alphabet import (
    AlphabetPredicate,
    And,
    Comparison,
    Not,
    Or,
    SymbolEquals,
    TruePredicate,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<dot>\.)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<param>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<error>[\s\S])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "lambda", "true", "false"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    """One scan over ``text``: the last alternative takes any character
    no token starts with, so the tokens tile the text and the first
    ``error`` marks where tokenizing stops."""
    tokens: list[tuple[str, str]] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "ident" and value.lower() in _KEYWORDS:
            tokens.append((value.lower(), value))
        elif kind == "error":
            raise PredicateError(
                f"cannot tokenize predicate at {text[match.start():]!r}"
            )
        else:
            tokens.append((kind, value))
    return tokens


class _Parser:
    def __init__(
        self, tokens: list[tuple[str, str]], text: str, literals: Literals | None
    ) -> None:
        self._tokens = tokens
        self._text = text
        self._index = 0
        self._variable: str | None = None
        self._literals = literals

    def peek(self) -> tuple[str, str] | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise PredicateError(f"unexpected end of predicate {self._text!r}")
        self._index += 1
        return token

    def expect(self, kind: str) -> tuple[str, str]:
        token = self.next()
        if token[0] != kind:
            raise PredicateError(
                f"expected {kind} but found {token[1]!r} in {self._text!r}"
            )
        return token

    def parse(self) -> AlphabetPredicate:
        token = self.peek()
        if token is not None and token[0] == "lambda":
            self.next()
            self.expect("lparen")
            self._variable = self.expect("ident")[1]
            self.expect("rparen")
        result = self._or_expr()
        trailing = self.peek()
        if trailing is not None:
            raise PredicateError(
                f"trailing input {trailing[1]!r} in predicate {self._text!r}"
            )
        return result

    def _or_expr(self) -> AlphabetPredicate:
        terms = [self._and_expr()]
        while (token := self.peek()) is not None and token[0] == "or":
            self.next()
            terms.append(self._and_expr())
        if len(terms) == 1:
            return terms[0]
        return Or(*terms)

    def _and_expr(self) -> AlphabetPredicate:
        terms = [self._not_expr()]
        while (token := self.peek()) is not None and token[0] == "and":
            self.next()
            terms.append(self._not_expr())
        if len(terms) == 1:
            return terms[0]
        return And(*terms)

    def _not_expr(self) -> AlphabetPredicate:
        token = self.peek()
        if token is not None and token[0] == "not":
            self.next()
            return Not(self._not_expr())
        if token is not None and token[0] == "lparen":
            self.next()
            inner = self._or_expr()
            self.expect("rparen")
            return inner
        return self._comparison()

    def _comparison(self) -> AlphabetPredicate:
        token = self.next()
        if token[0] == "op" and token[1] == "?":  # pragma: no cover - defensive
            return TruePredicate()
        if token[0] != "ident":
            raise PredicateError(
                f"expected an attribute reference, found {token[1]!r} in {self._text!r}"
            )
        name = token[1]
        is_variable = self._variable is not None and name == self._variable
        nxt = self.peek()
        if nxt is not None and nxt[0] == "dot":
            self.next()
            attribute = self.expect("ident")[1]
            if not is_variable:
                raise PredicateError(
                    f"{name!r} is not the lambda variable in {self._text!r}"
                )
            op = self.expect("op")[1]
            constant = self._literal()
            return Comparison(attribute, op, constant)
        op = self.expect("op")[1]
        constant = self._literal()
        if is_variable:
            if op != "=":
                raise PredicateError("only '=' may compare the variable itself")
            return SymbolEquals(constant)
        return Comparison(name, op, constant)

    def _literal(self) -> Any:
        token = self.next()
        if token[0] == "param":
            return Param(token[1][1:])
        constant = self._constant(token)
        if self._literals is not None:
            return self._literals.slot(constant)
        return constant

    def _constant(self, token: tuple[str, str]) -> Any:
        if token[0] == "number":
            text = token[1]
            return float(text) if "." in text else int(text)
        if token[0] == "string":
            return token[1][1:-1]
        if token[0] == "true":
            return True
        if token[0] == "false":
            return False
        if token[0] == "ident":
            # Bare word on the right-hand side reads as a string constant.
            return token[1]
        raise PredicateError(f"expected a literal, found {token[1]!r} in {self._text!r}")


def parse_predicate(text: str, literals: Literals | None = None) -> AlphabetPredicate:
    """Parse predicate text into an :class:`AlphabetPredicate` AST.

    With ``literals`` every constant is lifted into a hidden slot
    (:class:`~repro.params.Literals`) instead of being kept in place:
    the shape AQL caches plans by.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PredicateError("empty predicate")
    return _Parser(tokens, text, literals).parse()
