"""The invariant differential calculus: confluence, derivative action,
twisted Leibniz behavior, classical limit."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh import scalar as sc
from qwh.diffcalc import (
    WZ_DEGREES,
    apply_derivative,
    classical_derivative,
    twisted_leibniz_check,
    wz_confluence,
    wz_relations,
    wz_system,
)
from qwh.exprparse import parse_scalar_text
from qwh.freealg import NCPoly
from qwh.linalg import pair_to_lin, rhat_builtin
from qwh.presentations import builtin
from qwh.rewrite import build_rules
from qwh.scalar import Scalar


XSPACE = builtin("xspace")

POINTS = {
    "symbolic": None,
    "u=2,s=3": {"u": Fraction(2), "s": Fraction(3)},
    "u=1,s=0": {"u": Fraction(1), "s": Fraction(0)},
    "u=-1,s=0": {"u": Fraction(-1), "s": Fraction(0)},
}


def _x_words(max_len):
    return [w for n in range(max_len + 1) for w in itertools.product(range(3), repeat=n)]


def test_wz_confluence_passes():
    rep = wz_confluence()
    assert rep.ok, rep.render_text()
    assert rep.items  # overlaps were actually enumerated


def test_no_derivative_derivative_overlaps_exist():
    # no lhs ends in a derivative letter, so no overlap shares one; this is
    # also what makes `apply_derivative` exact when it drops every word that
    # ends in one
    for bindings in (POINTS["symbolic"], POINTS["u=2,s=3"]):
        system = wz_system(bindings=bindings)
        d_gids = {system.table.gen(f"d{i}") for i in (1, 2, 3)}
        assert system.rules
        for rule in system.rules:
            assert rule.lhs[-1] not in d_gids


@pytest.mark.parametrize("point", list(POINTS))
def test_derivative_matches_the_full_normal_form_without_derivative_words(point):
    # the left-ideal reduction against the whole normal form of d_i * p in
    # the calculus, its words that hold a derivative letter dropped
    bindings = POINTS[point]
    system = wz_system(bindings=bindings)
    table = system.table
    xtable = builtin("xspace", bindings).table
    to_wz, from_wz = xtable.gid_map(table), table.gid_map(xtable)
    dropped = 0
    for word in _x_words(4):
        p = NCPoly.word(xtable, word)
        for i in (1, 2, 3):
            d_p = NCPoly.word(table, (table.gen(f"d{i}"),)) * p.relabel(table, to_wz)
            full = system.normal_form(d_p)
            expected = full.relabel(xtable, from_wz)  # drops every word with a d
            dropped += len(full.terms) - len(expected.terms)
            assert apply_derivative(i, p, bindings=bindings) == expected, (point, word, i)
    assert dropped  # the full normal forms did hold derivative words


@pytest.mark.parametrize("point", ["symbolic", "u=2,s=3"])
def test_derivative_output_is_normal_in_the_coordinate_space(point):
    # `qwh d` prints the output without reducing it again in xspace
    bindings = POINTS[point]
    xspace = builtin("xspace", bindings)
    xsys = xspace.rewrite_system()
    for word in _x_words(4):
        p = NCPoly.word(xspace.table, word)
        for i in (1, 2, 3):
            out = apply_derivative(i, p, bindings=bindings)
            assert xsys.normal_form(out) == out, (point, word, i)


def test_relations_are_graded():
    pres = wz_relations()
    for rel in pres.relations:
        degs = {
            sum(WZ_DEGREES[pres.table.name(g)] for g in w) for w in rel.terms
        }
        assert len(degs) == 1, rel.render()


def test_generic_q_confluence_fails_with_q_u2_residuals():
    rep = wz_confluence(generic_q=True)
    assert rep.status == "FAIL"
    u2 = parse_scalar_text("u^2")
    pres = wz_relations(generic_q=True)
    sys_generic = wz_system(generic_q=True)
    from qwh.rewrite import overlap_residual, overlaps

    failing = [
        overlap_residual(sys_generic, ov)
        for ov in overlaps(sys_generic)
    ]
    nonzero = [r for r in failing if not r.is_zero()]
    assert nonzero
    for res in nonzero:
        assert res.substitute_scalars({"q": u2}).is_zero()


def test_derivative_of_coordinates_is_kronecker():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            out = apply_derivative(i, NCPoly.parse(XSPACE.table, f"x{j}"))
            if i == j:
                assert out == NCPoly.one(XSPACE.table)
            else:
                assert out.is_zero()


words = st.lists(st.integers(0, 2), max_size=3).map(tuple)
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).map(
    Scalar.from_fraction
)


@st.composite
def xpolys(draw):
    terms = draw(st.dictionaries(words, coeffs, max_size=3))
    p = NCPoly.zero(XSPACE.table)
    for w, c in terms.items():
        p = p + NCPoly.word(XSPACE.table, w, c)
    return p


@settings(max_examples=20, deadline=None)
@given(xpolys(), xpolys())
def test_derivative_is_linear(p, q):
    for i in (1, 2, 3):
        assert apply_derivative(i, p + q) == apply_derivative(i, p) + apply_derivative(i, q)


def test_twisted_leibniz_suite():
    assert twisted_leibniz_check().ok


def test_classical_limit_matches_partial_derivatives():
    # at u=1, s=0 the coordinates commute and the derivative action is the
    # ordinary one; compare on every monomial up to length 4
    b = {"u": 1, "s": 0}
    table = XSPACE.table
    classical = builtin("classical_R").substitute({"s": 0})
    csys = build_rules(classical.relations, classical.table)
    for length in range(5):
        for word in itertools.product(range(3), repeat=length):
            p = NCPoly.word(table, word)
            for i in (1, 2, 3):
                deformed = apply_derivative(i, p, bindings=b)
                expected = classical_derivative(i, p)
                diff = csys.normal_form(deformed - expected)
                assert diff.is_zero(), (word, i, diff.render())


def test_specialized_calculus_checks():
    b = {"u": Fraction(4, 3), "s": Fraction(5)}
    assert wz_confluence(bindings=b).ok
    assert twisted_leibniz_check(bindings=b).ok


def reference_cross_relations(R, table):
    """The 27 cross relations as the index loops that built them before
    they were matrix products, in the same order."""

    def gen(name):
        return NCPoly.word(table, (table.gen(name),))

    rels = []
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            rel = gen(f"x{k}") * gen(f"xi{l}")
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    c = R[pair_to_lin(k, l), pair_to_lin(m, n)]
                    if not c.is_zero():
                        rel = rel - (gen(f"xi{m}") * gen(f"x{n}")).scale(c)
            rels.append(rel)
            rel = gen(f"d{k}") * gen(f"xi{l}")
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    c = R[pair_to_lin(l, m), pair_to_lin(k, n)]
                    if not c.is_zero():
                        rel = rel - (gen(f"xi{n}") * gen(f"d{m}")).scale(c)
            rels.append(rel)
            rel = gen(f"d{l}") * gen(f"x{k}")
            if k == l:
                rel = rel - NCPoly.one(table)
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    c = R[pair_to_lin(k, m), pair_to_lin(l, n)]
                    if not c.is_zero():
                        rel = rel - (gen(f"x{n}") * gen(f"d{m}")).scale(c)
            rels.append(rel)
    return rels


@pytest.mark.parametrize(
    "generic_q, bindings",
    [(False, None), (False, {"u": 2, "s": 3}), (True, None)],
    ids=["symbolic", "u=2,s=3", "generic-q"],
)
def test_cross_relation_products_match_the_index_loops(generic_q, bindings):
    pres = wz_relations(generic_q=generic_q, bindings=bindings)
    want = reference_cross_relations(rhat_builtin(bindings), pres.table)
    assert pres.relations[-27:] == want
