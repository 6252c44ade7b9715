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

from typing import Any, NamedTuple

from ..errors import PredicateError
from ..lexer import PREDICATE, Cursor, Lexeme
from ..params import Literals, Param
from .alphabet import AlphabetPredicate, And, Comparison, Not, Or, SymbolEquals


class _Scope(NamedTuple):
    variable: str | None
    literals: Literals | None


def parse_predicate(text: str, literals: Literals | None = None) -> AlphabetPredicate:
    """Parse predicate text into an :class:`AlphabetPredicate` AST.

    With ``literals`` every constant is lifted into a hidden slot
    (:class:`~repro.params.Literals`) instead of being kept in place:
    the shape AQL caches plans by.
    """
    cursor = Cursor(PREDICATE, text)
    if cursor.at_end:
        raise PredicateError("empty predicate")
    return cursor.parse(_predicate, literals)


def _predicate(cursor: Cursor, literals: Literals | None) -> AlphabetPredicate:
    variable = None
    if cursor.match("lambda"):
        cursor.expect("lparen")
        variable = cursor.expect("ident").text
        cursor.expect("rparen")
    result = _or_expr(cursor, _Scope(variable, literals))
    if not cursor.at_end:
        raise PredicateError(
            f"trailing input {cursor.peek().text!r} in predicate {cursor.text!r}"
        )
    return result


def _or_expr(cursor: Cursor, scope: _Scope) -> AlphabetPredicate:
    terms = [_and_expr(cursor, scope)]
    while cursor.match("or"):
        terms.append(_and_expr(cursor, scope))
    if len(terms) == 1:
        return terms[0]
    return Or(*terms)


def _and_expr(cursor: Cursor, scope: _Scope) -> AlphabetPredicate:
    terms = [_not_expr(cursor, scope)]
    while cursor.match("and"):
        terms.append(_not_expr(cursor, scope))
    if len(terms) == 1:
        return terms[0]
    return And(*terms)


def _not_expr(cursor: Cursor, scope: _Scope) -> AlphabetPredicate:
    if cursor.match("not"):
        return Not(_not_expr(cursor, scope))
    if cursor.match("lparen"):
        inner = _or_expr(cursor, scope)
        cursor.expect("rparen")
        return inner
    return _comparison(cursor, scope)


def _comparison(cursor: Cursor, scope: _Scope) -> AlphabetPredicate:
    token = cursor.next()
    if token.kind != "ident":
        raise PredicateError(
            f"expected an attribute reference, found {token.text!r} in {cursor.text!r}"
        )
    name = token.text
    is_variable = scope.variable is not None and name == scope.variable
    if cursor.match("dot"):
        attribute = cursor.expect("ident").text
        if not is_variable:
            raise PredicateError(f"{name!r} is not the lambda variable in {cursor.text!r}")
        op = cursor.expect("op").text
        return Comparison(attribute, op, _literal(cursor, scope))
    op = cursor.expect("op").text
    constant = _literal(cursor, scope)
    if is_variable:
        if op != "=":
            raise PredicateError("only '=' may compare the variable itself")
        return SymbolEquals(constant)
    return Comparison(name, op, constant)


def _literal(cursor: Cursor, scope: _Scope) -> Any:
    token = cursor.next()
    if token.kind == "param":
        return Param(token.text[1:])
    constant = _constant(cursor, token)
    if scope.literals is not None:
        return scope.literals.slot(constant)
    return constant


def _constant(cursor: Cursor, token: Lexeme) -> Any:
    if token.kind == "number":
        return float(token.text) if "." in token.text else int(token.text)
    if token.kind == "string":
        return token.text[1:-1]
    if token.kind == "true":
        return True
    if token.kind == "false":
        return False
    if token.kind == "ident":
        # Bare word on the right-hand side reads as a string constant.
        return token.text
    raise PredicateError(f"expected a literal, found {token.text!r} in {cursor.text!r}")
