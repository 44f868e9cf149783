"""Expression parser for bivariate rational polynomials.

Grammar, loosest binding first:

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := ('+' | '-')* power
    power    := atom ['^' exponent]
    atom     := NUMBER | VARIABLE | '(' expr ')'
    exponent := NUMBER | '(' ['-'] NUMBER ')'
    NUMBER   := digits ['/' digits]      (ASCII digits 0-9 only)

Variables are x1 and x2, with x and y accepted as aliases.  There is no
implicit multiplication and no division except inside rational literals;
exponents must be non-negative integer literals.  Parentheses nest at
most MAX_NESTING deep, and a literal longer than Python's digit limit for
int() is a syntax error.  Errors carry 1-based line and column positions.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from .bipoly import BiPoly, _sum
from .errors import NonIntegerExponent, PolySyntaxError, UnknownVariable

# a BiPoly is immutable, so each variable is built once and shared
_X1, _X2 = BiPoly.monomial(1, 0), BiPoly.monomial(0, 1)
_VARIABLES = {"x1": _X1, "x": _X1, "x2": _X2, "y": _X2}
_PUNCT = set("+-*^()/")
# str.isdigit would also take "²" or "٣", which int() rejects or misreads
_DIGITS = set("0123456789")

# each '(' of an atom costs five frames of recursive descent, so this
# keeps the deepest parse far below Python's default recursion limit
MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str  # "int", "var", "end", or the punctuation character itself
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            name = src[i:j]
            if name not in _VARIABLES:
                raise UnknownVariable(
                    f"unknown variable {name!r}; use x1/x2 (or x/y)", line, col
                )
            tokens.append(_Token("var", name, line, col))
            col += j - i
            i = j
        elif ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
        else:
            raise PolySyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise PolySyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.advance()

    def parse(self) -> BiPoly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise PolySyntaxError(
                f"unexpected {tok.text!r} after expression", tok.line, tok.col
            )
        return value

    def expr(self) -> BiPoly:
        # one sum over all the summands: folding `value + rhs` would copy
        # the running sum at every summand
        summands = [self.term()]
        while self.peek().kind in ("+", "-"):
            negative = self.advance().kind == "-"
            summand = self.term()
            summands.append(-summand if negative else summand)
        return _sum(summands)

    def term(self) -> BiPoly:
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> BiPoly:
        sign = 1
        while self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -sign
        value = self.power()
        return value if sign == 1 else -value

    def power(self) -> BiPoly:
        value = self.atom()
        if self.peek().kind == "^":
            self.advance()
            value = value ** self.exponent()
        return value

    def number(self) -> Fraction:
        value = Fraction(_integer(self.expect("int")))
        if self.peek().kind == "/":
            self.advance()
            tok = self.expect("int")
            den = _integer(tok)
            if den == 0:
                raise PolySyntaxError("zero denominator", tok.line, tok.col)
            value /= den
        return value

    def atom(self) -> BiPoly:
        tok = self.peek()
        if tok.kind == "int":
            return BiPoly.constant(self.number())
        if tok.kind == "var":
            self.advance()
            return _VARIABLES[tok.text]
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise PolySyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.col
                )
            self.advance()
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise PolySyntaxError(
            f"expected a number, variable, or '(', found "
            f"{tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )

    def exponent(self) -> int:
        tok = self.peek()
        negative = False
        parenthesized = tok.kind == "("
        if parenthesized:
            self.advance()
            if self.peek().kind == "-":
                self.advance()
                negative = True
        num = self.expect("int")
        if self.peek().kind == "/":
            raise NonIntegerExponent(
                "exponents must be integers", num.line, num.col
            )
        if parenthesized:
            self.expect(")")
        if negative:
            raise NonIntegerExponent(
                "exponents must be non-negative", num.line, num.col
            )
        return _integer(num)


def _integer(tok: _Token) -> int:
    """The value of a digit token; past Python's digit limit for int(),
    a syntax error at the token."""
    try:
        return int(tok.text)
    except ValueError:
        raise PolySyntaxError(
            f"integer literal of {len(tok.text)} digits exceeds the limit "
            f"of {sys.get_int_max_str_digits()} digits",
            tok.line,
            tok.col,
        ) from None


def parse(src: str) -> BiPoly:
    """Parse an expression over x1/x2 into exact sparse form."""
    return _Parser(_tokenize(src)).parse()
