"""Free algebra: monomial order laws, polynomial arithmetic, parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh import scalar as sc
from qwh.freealg import GenTable, MonomialOrder, NCPoly
from qwh.scalar import Scalar


TABLE = GenTable(["a", "b", "c"])
ORDER = MonomialOrder.default(TABLE)

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
    ka, kb = ORDER.key(a), ORDER.key(b)
    assert (ka < kb) == (kb > ka)
    assert (ka == kb) == (a == b)


@settings(max_examples=60, deadline=None)
@given(words, words, words)
def test_order_respects_concatenation(a, b, w):
    if ORDER.key(a) < ORDER.key(b):
        assert ORDER.key(w + a) < ORDER.key(w + b)
        assert ORDER.key(a + w) < ORDER.key(b + w)


def test_deglex_shorter_words_are_smaller():
    assert ORDER.key((0,)) < ORDER.key((2, 2))
    assert ORDER.key(()) < ORDER.key((2,))


def test_first_listed_generator_is_largest():
    # precedence a > b > c: words in earlier generators are larger
    assert ORDER.key((0,)) > ORDER.key((1,))
    assert ORDER.key((1,)) > ORDER.key((2,))


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
    assert NCPoly.parse(TABLE, p.render(ORDER)) == p


def test_leading_term():
    p = NCPoly.parse(TABLE, "2*a*b - 3*b*a + c")
    w, c = p.leading_term(ORDER)
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
