"""Recursive-descent parser for the expression grammar.

Grammar (shared by scalars and noncommutative polynomials):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*   # juxtaposition not allowed
    factor  := atom ('^' exponent)?
    atom    := integer | name | '(' expr ')' | '-' factor
    exponent:= integer | '(' '-'? integer ')'

Names resolve against a generator table first (yielding a one-letter word)
and against the parameter list second.  Division is only legal when the
divisor is a scalar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import scalar as sc
from .freealg import GenTable, NCPoly
from .scalar import Scalar


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message, span=None):
        self.span = span
        super().__init__(f"{span}: {message}" if span else message)


#: a generator or parameter name
NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({NAME.pattern})|(\^|\*|/|\+|-|\(|\)))")


@dataclass
class _Tok:
    kind: str  # int | name | op | end
    text: str
    pos: int


def _tokenize(text, file="<expr>", line=1, col0=0):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = pos + (len(text[pos:]) - len(stripped))
            raise ParseError(
                f"unexpected character {stripped[0]!r}",
                SourceSpan(file, line, col0 + at + 1),
            )
        if m.group(1):
            toks.append(_Tok("int", m.group(1), m.start(1)))
        elif m.group(2):
            toks.append(_Tok("name", m.group(2), m.start(2)))
        else:
            toks.append(_Tok("op", m.group(3), m.start(3)))
        pos = m.end()
    toks.append(_Tok("end", "", len(text)))
    return toks


class _Parser:
    """Parses into an NCPoly over `table`; a scalar is a constant over the
    empty table."""

    def __init__(self, text, table, file="<expr>", line=1, col0=0):
        self.text = text
        self.table = table
        self.file = file
        self.line = line
        self.col0 = col0
        self.toks = _tokenize(text, file, line, col0)
        self.i = 0

    def span(self, tok):
        return SourceSpan(self.file, self.line, self.col0 + tok.pos + 1)

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_close(self):
        t = self.next()
        if t.kind != "op" or t.text != ")":
            raise ParseError(f"expected ')', found {t.text or 'end'!r}", self.span(t))

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", self.span(t))
        return v

    def expr(self):
        t = self.peek()
        neg = False
        if t.kind == "op" and t.text in "+-":
            self.next()
            neg = t.text == "-"
        v = self.term()
        if neg:
            v = -v
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.next()
                rhs = self.term()
                v = v - rhs if t.text == "-" else v + rhs
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.next()
                rhs = self.factor()
                if t.text == "*":
                    v = v * rhs
                else:
                    v = self._divide(v, rhs, t)
            else:
                return v

    def _divide(self, v, rhs, tok):
        c = rhs.as_scalar()
        if c is None:
            raise ParseError("divisor must be a scalar", self.span(tok))
        if c.is_zero():
            raise ParseError("division by zero", self.span(tok))
        return v * (sc.ONE / c)

    def factor(self):
        v = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            e = self.exponent()
            v = self._power(v, e, t)
        return v

    def _power(self, v, e, tok):
        c = v.as_scalar()
        if c is not None:
            if e < 0 and c.is_zero():
                raise ParseError("zero to a negative power", self.span(tok))
            return NCPoly.constant(self.table, c ** e)
        if e < 0:
            raise ParseError(
                "negative power only allowed on nonzero scalars", self.span(tok)
            )
        out = NCPoly.one(self.table)
        for _ in range(e):
            out = out * v
        return out

    def exponent(self):
        t = self.next()
        if t.kind == "int":
            return int(t.text)
        if t.kind == "op" and t.text == "(":
            sign = 1
            t2 = self.next()
            if t2.kind == "op" and t2.text == "-":
                sign = -1
                t2 = self.next()
            if t2.kind != "int":
                raise ParseError("expected integer exponent", self.span(t2))
            self.expect_close()
            return sign * int(t2.text)
        raise ParseError("expected exponent", self.span(t))

    def atom(self):
        t = self.next()
        if t.kind == "int":
            return NCPoly.constant(self.table, Scalar.from_int(int(t.text)))
        if t.kind == "name":
            return self._name(t)
        if t.kind == "op" and t.text == "(":
            v = self.expr()
            self.expect_close()
            return v
        if t.kind == "op" and t.text == "-":
            return -self.factor()
        raise ParseError(f"unexpected {t.text or 'end'!r}", self.span(t))

    def _name(self, tok):
        name = tok.text
        gid = self.table.lookup(name)
        if gid is not None:
            return NCPoly.generator(self.table, gid)
        if name in sc.PARAMS:
            return NCPoly.constant(self.table, sc.PARAMS[name])
        kind = "generator or parameter" if len(self.table) else "parameter"
        raise ParseError(f"unknown {kind} {name!r}", self.span(tok))


#: scalars parse as polynomials over no generators
_NO_GENERATORS = GenTable([])


def parse_scalar_text(text) -> Scalar:
    return _Parser(text, _NO_GENERATORS, "<scalar>").parse().as_scalar()


def parse_poly_text(text, table, file="<expr>", line=1, col0=0) -> NCPoly:
    return _Parser(text, table, file, line, col0).parse()
