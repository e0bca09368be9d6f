"""Facts about the structure maps of H8 and H10 that hold in the extended
algebra, before localising at the determinant (det*dinv = 1 is never
imposed there): the determinant is group-like, commutes with its inverse,
the antipode is well defined and a coalgebra anti-map, and the whole
calculus is covariant up to det*dinv - 1.  Each map is one `AlgebraMap`."""

from fractions import Fraction

import pytest

from qwh.diffcalc import wz_relations, wz_system
from qwh.freealg import EMPTY_WORD, AlgebraMap, GenTable, NCPoly
from qwh.presentations import TensorAlgebra
from qwh.quantumgroup import generator_matrix, hopf_data

POINTS = [None, {"u": Fraction(2), "s": Fraction(3)}]
POINT_IDS = ["symbolic", "u=2,s=3"]
cases = pytest.mark.parametrize(
    "which, bindings",
    [(w, b) for w in ("H8", "H10") for b in POINTS],
    ids=[f"{w}-{i}" for w in ("H8", "H10") for i in POINT_IDS],
)


def _hopf(which, bindings):
    data = hopf_data(which, bindings)
    esys = data.ext.rewrite_system()
    det = data.antipode(data.dinv)  # S(det-inverse) = det
    return data, esys, det


@cases
def test_the_determinant_is_group_like(which, bindings):
    data, esys, det = _hopf(which, bindings)
    doubled = data.doubled
    assert doubled.normal_form(data.coproduct(det), esys, esys) == doubled.normal_form(
        doubled.tensor(det, det), esys, esys
    )
    assert data.counit(det) == NCPoly.one(GenTable([]))


@cases
def test_the_determinant_commutes_with_its_inverse(which, bindings):
    data, esys, det = _hopf(which, bindings)
    assert esys.normal_form(det * data.dinv - data.dinv * det).is_zero()


@cases
def test_the_antipode_maps_every_extended_relation_to_zero(which, bindings):
    data, esys, _ = _hopf(which, bindings)
    relations = data.ext.relations
    assert len(relations) == {"H8": 28, "H10": 45}[which]
    assert all(esys.normal_form(data.antipode(r)).is_zero() for r in relations)


@cases
def test_the_antipode_is_a_coalgebra_anti_map(which, bindings):
    # Delta o S = (S (x) S) o tau o Delta on generators.  (S (x) S) o tau is
    # an anti-map of the doubled algebra: a left letter g goes to S(g) in
    # the right copy, a right letter to S(g) in the left copy
    data, esys, _ = _hopf(which, bindings)
    ext, doubled = data.ext, data.doubled
    gens = [NCPoly.generator(ext.table, g) for g in range(len(ext.table))]
    S = [data.antipode(g) for g in gens]
    flip = AlgebraMap(
        doubled.table,
        doubled.table,
        [s.relabel(doubled.table, doubled.second) for s in S]
        + [s.relabel(doubled.table, doubled.first) for s in S],
        anti=True,
    )
    for g, s in zip(gens, S):
        diff = data.coproduct(s) - flip(data.coproduct(g))
        assert doubled.normal_form(diff, esys, esys).is_zero()


def _calculus_coaction(data, bindings, transpose):
    """The coaction of the extended algebra on the calculus, as one algebra
    map into calculus (x) ext: x_i and xi_i go to sum_j T_ij (x) x_j and
    sum_j T_ij (x) xi_j; d_i goes to sum_j S(T)_ji (x) d_j, or with
    S(T)_ij when not `transpose`."""
    calc = wz_relations(bindings=bindings)
    joint = TensorAlgebra(calc, data.ext)
    T = generator_matrix(data.ext)
    ST = T.map(data.antipode)
    table = calc.table

    def row(block, coefficient):  # sum_j coefficient(j) (x) block_j
        letters = [NCPoly.generator(table, table.gen(f"{block}{j + 1}")) for j in range(3)]
        terms = [joint.tensor(x, coefficient(j)) for j, x in enumerate(letters)]
        return sum(terms, NCPoly.zero(joint.table))

    images = [None] * len(table)
    for i in range(3):
        for block in ("x", "xi"):
            images[table.gen(f"{block}{i + 1}")] = row(block, lambda j: T[i, j])
        images[table.gen(f"d{i + 1}")] = row(
            "d", lambda j: ST[j, i] if transpose else ST[i, j]
        )
    return calc, joint, AlgebraMap(table, joint.table, images)


@cases
def test_the_calculus_is_covariant_up_to_the_inversion_pair(which, bindings):
    data, esys, det = _hopf(which, bindings)
    calc, joint, coact = _calculus_coaction(data, bindings, transpose=True)
    csys = wz_system(bindings=bindings)
    residuals = [joint.normal_form(coact(r), csys, esys) for r in calc.relations]
    assert len(residuals) == 36

    # the 33 homogeneous relations map to 0; each of the three with a
    # Kronecker term, d_i x_i = 1 + ..., to exactly det*dinv - 1, which is
    # 0 once the determinant is inverted
    pair = esys.normal_form(det * data.dinv - NCPoly.one(data.ext.table))
    assert not pair.is_zero()
    expected = joint.tensor(NCPoly.one(calc.table), pair)
    zero = NCPoly.zero(joint.table)
    inhomogeneous = [EMPTY_WORD in r.terms for r in calc.relations]
    assert sum(inhomogeneous) == 3
    for residual, kronecker in zip(residuals, inhomogeneous):
        assert residual == (expected if kronecker else zero)


@cases
def test_the_untransposed_antipode_breaks_covariance(which, bindings):
    data, esys, _ = _hopf(which, bindings)
    calc, joint, coact = _calculus_coaction(data, bindings, transpose=False)
    csys = wz_system(bindings=bindings)
    nonzero = sum(
        not joint.normal_form(coact(r), csys, esys).is_zero() for r in calc.relations
    )
    assert nonzero == {"H8": 17, "H10": 18}[which]
