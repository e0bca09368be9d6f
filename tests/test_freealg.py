"""Free algebra: monomial order laws, polynomial arithmetic, parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh import scalar as sc
from qwh.freealg import GenTable, NCPoly, deglex_key
from qwh.scalar import Scalar


TABLE = GenTable(["a", "b", "c"])

words = st.lists(st.integers(0, 2), max_size=4).map(tuple)

coeffs = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
).map(Scalar.from_fraction)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(words, coeffs, max_size=4))
    p = NCPoly.zero(TABLE)
    for w, c in terms.items():
        p = p + NCPoly.word(TABLE, w, c)
    return p


@settings(max_examples=60, deadline=None)
@given(words, words)
def test_order_is_total_and_antisymmetric(a, b):
    ka, kb = deglex_key(a), deglex_key(b)
    # exactly one of a < b, a = b, a > b, and equal keys only for equal words
    assert [ka < kb, ka == kb, ka > kb].count(True) == 1
    assert (ka == kb) == (a == b)


@settings(max_examples=60, deadline=None)
@given(words, words, words)
def test_order_respects_concatenation(a, b, w):
    if deglex_key(a) < deglex_key(b):
        assert deglex_key(w + a) < deglex_key(w + b)
        assert deglex_key(a + w) < deglex_key(b + w)


def test_deglex_shorter_words_are_smaller():
    assert deglex_key((0,)) < deglex_key((2, 2))
    assert deglex_key(()) < deglex_key((2,))


def test_first_listed_generator_is_largest():
    # table a, b, c: words in earlier generators are larger
    assert deglex_key((0,)) > deglex_key((1,))
    assert deglex_key((1,)) > deglex_key((2,))


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p * NCPoly.one(TABLE) == p
    assert p - p == NCPoly.zero(TABLE)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_no_zero_coefficients_stored(p):
    assert all(not c.is_zero() for c in p.terms.values())


@settings(max_examples=40, deadline=None)
@given(polys())
def test_render_parse_round_trip(p):
    assert NCPoly.parse(TABLE, p.render()) == p


def test_leading_term():
    p = NCPoly.parse(TABLE, "2*a*b - 3*b*a + c")
    w, c = p.leading_term()
    assert w == (0, 1) and c == Scalar.from_int(2)


def test_mixed_table_arithmetic_rejected():
    other = GenTable(["x", "y"])
    with pytest.raises(Exception):
        NCPoly.one(TABLE) + NCPoly.one(other)


def test_parse_unknown_generator_errors():
    with pytest.raises(Exception):
        NCPoly.parse(TABLE, "a*zz")


def test_scalar_coefficients_with_parameters():
    p = NCPoly.parse(TABLE, "u^2*a*b - s*c*c")
    q = p.substitute_scalars({"u": 3, "s": 2})
    assert q == NCPoly.parse(TABLE, "9*a*b - 2*c*c")


def test_relabel_maps_kills_and_merges():
    dst = GenTable(["x", "y"])
    p = NCPoly.parse(TABLE, "2*a*b + 3*b*a + 5*c*a + 7")
    # a and b both go to x, c has no image
    out = p.relabel(dst, {0: 0, 1: 0})
    assert out.table is dst
    assert out == NCPoly.parse(dst, "5*x*x + 7")
    assert p.relabel(dst, {0: 1, 1: 0}) == NCPoly.parse(dst, "2*y*x + 3*x*y + 7")
    # colliding words that cancel leave no zero term behind
    assert NCPoly.parse(TABLE, "a - b").relabel(dst, {0: 0, 1: 0}).terms == {}


def test_gid_map_by_name():
    dst = GenTable(["C", "A"])
    assert TABLE.gid_map(dst) == {}
    assert TABLE.gid_map(dst, str.upper) == {0: 1, 2: 0}
