"""Exact scalar arithmetic: field axioms, substitution, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh import scalar as sc
from qwh.exprparse import ParseError, parse_poly_text, parse_scalar_text
from qwh.freealg import GenTable, NCPoly
from qwh.scalar import Scalar

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).map(Scalar.from_fraction)

params = st.sampled_from(["u", "s", "q", "lam", "mu"]).map(Scalar.param)

atoms = rationals | params


@st.composite
def scalars(draw, depth=2):
    if depth == 0:
        return draw(atoms)
    op = draw(st.sampled_from(["atom", "+", "-", "*"]))
    if op == "atom":
        return draw(atoms)
    a = draw(scalars(depth=depth - 1))
    b = draw(scalars(depth=depth - 1))
    return {"+": a + b, "-": a - b, "*": a * b}[op]


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + sc.ZERO == a
    assert a * sc.ONE == a
    assert a - a == sc.ZERO
    if not a.is_zero():
        assert a / a == sc.ONE


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), st.fractions(min_value=-9, max_value=9, max_denominator=7))
def test_substitution_is_a_homomorphism(a, b, val):
    binds = {"u": val, "s": Fraction(2), "q": val * val, "lam": 1, "mu": -1}
    assert (a + b).substitute(binds) == a.substitute(binds) + b.substitute(binds)
    assert (a * b).substitute(binds) == a.substitute(binds) * b.substitute(binds)
    assert (-a).substitute(binds) == -(a.substitute(binds))


def test_substitution_rejects_zero_denominator():
    x = sc.ONE / (Scalar.param("u") - sc.ONE)
    with pytest.raises(sc.ScalarError):
        x.substitute({"u": 1})


def test_powers_and_inverse():
    u = Scalar.param("u")
    assert u ** 3 * u ** -3 == sc.ONE
    assert u ** 0 == sc.ONE
    assert (u ** -2).substitute({"u": Fraction(1, 2)}) == Scalar.from_int(4)


@settings(max_examples=50, deadline=None)
@given(scalars())
def test_render_parse_round_trip(a):
    assert parse_scalar_text(sc.render_scalar(a)) == a


def _parse_poly_xy(text):
    return parse_poly_text(text, GenTable(["x", "y"]))


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_scalar_text, "0^(-1)", "zero to a negative power"),
        (_parse_poly_xy, "0^(-1)", "zero to a negative power"),
        (parse_scalar_text, "(u-u)^(-2)", "zero to a negative power"),
        (_parse_poly_xy, "(x-x)^(-2)", "zero to a negative power"),
        (_parse_poly_xy, "x^(-1)", "negative power only allowed on nonzero scalars"),
        (_parse_poly_xy, "(u*x)^(-2)", "negative power only allowed on nonzero scalars"),
        (parse_scalar_text, "x", "unknown parameter 'x'"),
        (_parse_poly_xy, "zz", "unknown generator or parameter 'zz'"),
        (parse_scalar_text, "1/(s-s)", "division by zero"),
        (_parse_poly_xy, "x/y", "divisor must be a scalar"),
    ],
)
def test_parser_messages(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_powers_of_constants():
    assert sc.ZERO ** 0 == sc.ONE
    assert parse_scalar_text("0^0") == sc.ONE
    assert _parse_poly_xy("0^0") == NCPoly.one(GenTable(["x", "y"]))
    assert parse_scalar_text("(2/3)^(-2)") == Scalar.from_fraction(Fraction(9, 4))
    assert parse_scalar_text("u^3000 * u^(-2999)") == Scalar.param("u")


def test_params_used():
    u, s = Scalar.param("u"), Scalar.param("s")
    assert (u * s + sc.ONE).params_used() == {"u", "s"}
    assert sc.ZERO.params_used() == set()
    # cancellation removes the parameter
    assert (u / u).params_used() == set()


def test_rational_detection():
    u = Scalar.param("u")
    assert not u.is_rational()
    assert (u - u + Scalar.from_fraction(Fraction(3, 4))).as_fraction() == Fraction(3, 4)


def test_hash_consistent_with_eq():
    u = Scalar.param("u")
    a = (u + sc.ONE) * (u - sc.ONE)
    b = u * u - sc.ONE
    assert a == b and hash(a) == hash(b)
