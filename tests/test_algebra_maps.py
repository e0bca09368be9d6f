"""Algebra maps fixed by the images of the generators (`AlgebraMap`) and
linear word maps (`NCPoly.map_words`), against a factor-by-factor reference
that builds one NCPoly per factor and per word."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh.coaction import MixedAlgebra
from qwh.freealg import AlgebraError, AlgebraMap, GenTable, NCPoly
from qwh.presentations import builtin
from qwh.quantumgroup import hopf_data
from qwh.scalar import Scalar


def reference_map_words(p, table, fn):
    out = NCPoly.zero(table)
    for w, c in p.terms.items():
        out = out + fn(w).scale(c)
    return out


def reference_algebra_map(p, table, images, anti=False):
    def image(w):
        out = NCPoly.one(table)
        for g in reversed(w) if anti else w:
            out = out * images[g]
        return out

    return reference_map_words(p, table, image)


SOURCE = GenTable(["a", "b", "c"])
TARGET = GenTable(["x", "y"])
GROUND = GenTable([])

u, s = Scalar.param("u"), Scalar.param("s")
# units, monomials and sums, each with its negative, so that terms cancel
_BASE = [Scalar.from_int(1), Scalar.from_int(2), Scalar.from_fraction(Fraction(1, 3)),
         u, u ** -2 * s, u + 1, 1 / (u - s)]
coeffs = st.sampled_from(_BASE + [-c for c in _BASE])


def polys(table, max_len):
    words = (
        st.lists(st.integers(0, len(table) - 1), max_size=max_len).map(tuple)
        if len(table)
        else st.just(())
    )
    terms = st.lists(st.tuples(words, coeffs), max_size=4)
    # summing repeated words lets terms cancel, so zero images arise too
    return terms.map(
        lambda ts: sum((NCPoly.word(table, w, c) for w, c in ts), NCPoly.zero(table))
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_algebra_map_matches_the_reference(data):
    table = data.draw(st.sampled_from([TARGET, GROUND]), label="target")
    p = data.draw(polys(SOURCE, 4), label="p")
    images = data.draw(st.lists(polys(table, 2), min_size=3, max_size=3), label="images")
    anti = data.draw(st.booleans(), label="anti")
    m = AlgebraMap(SOURCE, table, images, anti)
    assert m(p) == reference_algebra_map(p, table, images, anti)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_map_words_matches_the_reference(data):
    table = data.draw(st.sampled_from([TARGET, GROUND]), label="target")
    p = data.draw(polys(SOURCE, 3), label="p")
    fn = {w: data.draw(polys(table, 3), label=f"fn{w}") for w in p.terms}.__getitem__
    assert p.map_words(table, fn) == reference_map_words(p, table, fn)


def _images(*texts):
    return [NCPoly.parse(TARGET, t) for t in texts]


@pytest.mark.parametrize("anti", [False, True], ids=["map", "anti-map"])
@pytest.mark.parametrize(
    "p, images",
    [
        # x*y*y arises twice in a's image times b's, with opposite signs
        ("a*b + 2*b", ("x + x*y", "y - y*y", "0")),
        # a*b and b*a have the same image: the accumulated sum is 0
        ("a*b - b*a + c", ("x", "x", "0")),
        # the unit word, and a word through a zero image
        ("3 + a*c*a - u*c", ("u*x - y", "x", "0")),
    ],
    ids=["cancel-in-a-product", "cancel-across-words", "unit-and-zero-image"],
)
def test_cancelling_terms_unit_words_and_zero_images(p, images, anti):
    p, images = NCPoly.parse(SOURCE, p), _images(*images)
    m = AlgebraMap(SOURCE, TARGET, images, anti)
    assert m(p) == reference_algebra_map(p, TARGET, images, anti)


def test_the_images_multiply_in_reverse_order_under_reverse():
    p = NCPoly.parse(SOURCE, "a*b")
    images = _images("x", "y", "0")
    assert AlgebraMap(SOURCE, TARGET, images)(p) == NCPoly.parse(TARGET, "x*y")
    anti = AlgebraMap(SOURCE, TARGET, images, anti=True)
    assert anti(p) == NCPoly.parse(TARGET, "y*x")


def test_scalar_images_land_in_the_ground_table():
    p = NCPoly.parse(SOURCE, "a*b - 2*b*c + 5")
    images = [NCPoly.constant(GROUND, c) for c in (u, s, Scalar.from_int(0))]
    assert AlgebraMap(SOURCE, GROUND, images)(p).as_scalar() == u * s + 5


def test_an_image_over_another_table_is_refused():
    p = NCPoly.parse(SOURCE, "a")
    with pytest.raises(AlgebraError, match="mismatched generator tables"):
        AlgebraMap(SOURCE, TARGET, [NCPoly.one(GROUND)] * 3)
    with pytest.raises(AlgebraError, match="mismatched generator tables"):
        p.map_words(TARGET, lambda w: NCPoly.one(GROUND))


def test_a_map_takes_one_image_per_source_generator():
    with pytest.raises(AlgebraError, match="2 images for 3 generators"):
        AlgebraMap(SOURCE, TARGET, _images("x", "y"))


POINTS = [None, {"u": Fraction(2), "s": Fraction(3)}]
POINT_IDS = ["symbolic", "u=2,s=3"]


@pytest.mark.parametrize("bindings", POINTS, ids=POINT_IDS)
@pytest.mark.parametrize("which", ["H8", "H10"])
def test_hopf_maps_match_the_reference(which, bindings):
    data = hopf_data(which, bindings)
    ext, doubled = data.ext, data.doubled
    gens = [NCPoly.generator(ext.table, g) for g in range(len(ext.table))]
    for p in gens + list(ext.relations):
        assert data.coproduct(p) == reference_algebra_map(
            p, doubled.table, data.coproduct.images
        )
        assert data.counit(p) == reference_algebra_map(p, GROUND, data.counit.images)
        assert data.antipode(p) == reference_algebra_map(
            p, ext.table, data.antipode.images, anti=True
        )

    def counit_x_id(w):  # as in hopf_check
        left, right = doubled.split(w)
        c = data.counit(NCPoly.word(ext.table, left)).as_scalar()
        return NCPoly.word(ext.table, right, c)

    for g in gens:
        image = data.coproduct(g)
        assert image.map_words(ext.table, counit_x_id) == reference_map_words(
            image, ext.table, counit_x_id
        )


@pytest.mark.parametrize("bindings", POINTS, ids=POINT_IDS)
@pytest.mark.parametrize("space", ["xspace", "xispace"])
def test_coaction_matches_the_reference(space, bindings):
    mixed = MixedAlgebra(builtin("TT7", bindings), builtin(space, bindings))
    for rel in mixed.space.relations:
        expected = reference_algebra_map(rel, mixed.table, mixed.coact.images)
        assert mixed.coact(rel) == expected


def test_the_hopf_maps_refuse_a_polynomial_over_the_matrix_table():
    # TT7's generator ids are those of the same letters in TDinv, so only
    # the table itself tells that T11*T22 is not over the extended algebra
    data = hopf_data("H8")
    p = NCPoly.parse(builtin("TT7").table, "T11*T22")
    for m in (data.coproduct, data.counit, data.antipode):
        with pytest.raises(AlgebraError, match="not over the map's source table"):
            m(p)


def test_the_coaction_refuses_a_polynomial_over_another_table():
    mixed = MixedAlgebra(builtin("TT7"), builtin("xspace"))
    with pytest.raises(AlgebraError, match="not over the map's source table"):
        mixed.coact(NCPoly.parse(builtin("xispace").table, "xi1*xi2"))
