"""Parser for the polynomial input grammar.

Grammar: integer coefficients, variable identifiers, `^` (power), `*`
(explicit product; juxtaposition is rejected), `+`, `-`, parentheses.
Example: ``3*x^2*y - y^3``.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .poly import Poly, PolyRing


class ParseError(ValueError):
    """A positioned syntax or validation error; a polynomial is one line."""

    def __init__(self, message: str, column: int = 0):
        super().__init__(f"line 1, column {column}: {message}")
        self.column = column


# kind is "int", "name", "op" or "end"
_Token = namedtuple("_Token", "kind text column")


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while (m := _TOKEN_RE.match(text, pos)) is not None:
        group = m.lastindex  # the one alternative that matched
        tokens.append(_Token(("int", "name", "op")[group - 1],
                             m.group(group), m.start(group)))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}",
                         column=len(text) - len(rest))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (("+"|"-") term)*;
    term := factor ("*" factor)*; factor := ("-"|"+")* atom ("^" int)?;
    atom := int | name | "(" expr ")".
    """

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0
        self.var_index = {name: i for i, name in enumerate(ring.variables)}

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}",
                             column=tok.column)

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", column=tok.column)
        return value

    def expr(self) -> Poly:
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Poly:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.next()
                value = value * self.factor()
            elif tok.kind in ("int", "name") or (tok.kind == "op" and tok.text == "("):
                raise ParseError("products must be written with '*'",
                                 column=tok.column)
            else:
                return value

    def factor(self) -> Poly:
        sign = 1
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.next().text == "-":
                sign = -sign
        value = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            tok = self.next()
            if tok.kind != "int":
                raise ParseError("exponent must be a nonnegative integer",
                                 column=tok.column)
            value = value ** int(tok.text)
        return value if sign == 1 else -value

    def atom(self) -> Poly:
        tok = self.next()
        if tok.kind == "int":
            return self.ring.constant(int(tok.text))
        if tok.kind == "name":
            idx = self.var_index.get(tok.text)
            if idx is None:
                raise ParseError(f"unknown variable {tok.text!r}", column=tok.column)
            return self.ring.var(idx)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         column=tok.column)


def parse_polynomial(ring: PolyRing, text: str) -> Poly:
    return _Parser(ring, text).parse()
