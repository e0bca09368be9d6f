"""Coaction, comodule checks, constraint derivation, and the ansatz solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh import coaction
from qwh import scalar as sc
from qwh.cli import run_suite
from qwh.coaction import (
    CoactionError,
    ConstraintSystem,
    MixedAlgebra,
    ansatz_check,
    ansatz_solve,
    comodule_check,
    constraint_span_check,
    derive_group_constraints,
    pin_free_coefficients,
)
from qwh.exprparse import parse_scalar_text
from qwh.freealg import NCPoly
from qwh.presentations import builtin, parse_presentation
from qwh.quantumgroup import group_presentation
from qwh.rewrite import build_rules, diamond_check
from qwh.scalar import Scalar


GROUP = builtin("TT7")
XSPACE = builtin("xspace")
XISPACE = builtin("xispace")
MIXED = MixedAlgebra(GROUP, XSPACE)


def coact(p):
    """The block-sorted coaction image of an xspace polynomial."""
    return MIXED.normal_form(MIXED.coact(p))


def test_coact_on_generators_is_matrix_times_vector():
    img = coact(NCPoly.parse(XSPACE.table, "x3"))
    # last row of the quantum matrix has a single entry
    assert img == NCPoly.parse(MIXED.table, "T33*x3")


def test_coact_on_each_generator_is_its_matrix_row():
    # the space's generators, in table order, index the matrix columns
    for x, row in [("x1", "T11*x1 + T12*x2 + T13*x3"), ("x2", "T21*x1 + T22*x2 + T23*x3")]:
        img = coact(NCPoly.parse(XSPACE.table, x))
        assert img == NCPoly.parse(MIXED.table, row)


def test_a_space_of_another_size_has_no_coaction():
    plane = parse_presentation("algebra plane\ngenerators a > b\nrel a*b = b*a")
    with pytest.raises(CoactionError):
        MixedAlgebra(GROUP, plane)


def test_normal_words_put_group_letters_before_space_letters():
    mixed = MixedAlgebra(GROUP, XSPACE)
    x1, t12 = NCPoly.parse(XSPACE.table, "x1"), NCPoly.parse(GROUP.table, "T12")
    nf = mixed.normal_form(mixed.tensor(x1, t12))
    assert nf == NCPoly.parse(mixed.table, "T12*x1")
    assert mixed.split(next(iter(nf.terms))) == ((0,), (1,))


words = st.lists(st.integers(0, 2), min_size=0, max_size=2).map(tuple)
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).map(
    Scalar.from_fraction
)


@st.composite
def xpolys(draw):
    terms = draw(st.dictionaries(words, coeffs, max_size=2))
    p = NCPoly.zero(XSPACE.table)
    for w, c in terms.items():
        p = p + NCPoly.word(XSPACE.table, w, c)
    return p


@settings(max_examples=15, deadline=None)
@given(xpolys(), xpolys())
def test_coact_is_an_algebra_homomorphism(p, q):
    assert MIXED.normal_form(coact(p) * coact(q) - coact(p * q)).is_zero()


def test_comodule_checks_pass():
    assert comodule_check(XSPACE, GROUP).ok
    assert comodule_check(XISPACE, GROUP).ok


def test_comodule_fails_for_wrong_space():
    # the classical coordinate relations are not preserved by the deformed
    # quantum matrix
    assert not comodule_check(builtin("classical_R"), GROUP).ok


def test_constraint_span_equality():
    assert constraint_span_check().ok


def test_derived_constraints_vanish_in_the_group():
    sys_ = build_rules(GROUP.relations, GROUP.table)
    for c in derive_group_constraints(builtin("xspace_generic_q"), GROUP):
        reduced = sys_.normal_form(c.substitute_scalars({"q": parse_scalar_text("u^2")}))
        assert reduced.is_zero()


def test_ansatz_solver_pins_all_six_unknowns():
    system = ansatz_solve(builtin("ansatz_xi"))
    assert not system.inconsistent
    expected = {
        "k": sc.ZERO,
        "lam12": sc.ZERO,
        "mu12": sc.ZERO,
        "c21": parse_scalar_text("-u^(-2)"),
        "lam": parse_scalar_text("-u^(-1)"),
        "mu": parse_scalar_text("-u"),
    }
    assert system.solved == expected
    assert not system.residual


def test_ansatz_variant_is_inconsistent():
    system = ansatz_solve(builtin("ansatz_xi3sq_variant"))
    assert system.inconsistent
    assert any("degree 0" in w for w in system.witnesses)


K = Scalar.param("k")


@pytest.mark.parametrize(
    "equation", [K * K + K - 6, 1 / K - 1], ids=["quadratic", "reciprocal"]
)
def test_elimination_leaves_an_equation_not_linear_in_its_unknown(equation):
    """Only an equation linear in its one unknown is solved; any other stays
    unresolved, neither a pin read off two values nor a witness."""
    solved, residual, witnesses = coaction._eliminate([("e", equation)])
    assert (solved, residual, witnesses) == ({}, [("e", equation)], [])
    system = ConstraintSystem("t", solved, residual, witnesses)
    assert system.render() == f"ansatz t:\n  unresolved: {equation} = 0   [e]"


def test_an_empty_constraint_system_renders_as_no_constraints():
    assert ConstraintSystem("t").render() == "ansatz t:\n  no constraints"


def test_pin_free_coefficients_matches_builtin_one_forms():
    pins, report = pin_free_coefficients()
    assert report.ok, report.render_text()
    assert pins["c21"] == parse_scalar_text("-u^(-2)")
    assert pins["lam"] == parse_scalar_text("-u^(-1)")
    assert pins["mu"] == parse_scalar_text("-u")


@pytest.mark.parametrize("bindings", [None, {"u": 2, "s": 3}], ids=["symbolic", "u=2,s=3"])
def test_pinned_confluence_is_checked_in_the_ansatz_order(bindings, monkeypatch):
    checked = []

    def recording(system, suite="diamond"):
        checked.append(system)
        return diamond_check(system, suite)

    monkeypatch.setattr(coaction, "diamond_check", recording)
    pins, report = pin_free_coefficients(bindings)
    assert report.ok
    (system,) = checked
    # xi3 > xi2 > xi1, where the built-in one-form algebra has xi1 > xi2 > xi3
    names = ("xi3", "xi2", "xi1")
    assert tuple(system.table.names) == tuple(builtin("ansatz_xi").table.names) == names
    assert tuple(builtin("xispace").table.names) == ("xi1", "xi2", "xi3")
    assert len(system.rules) == 6


def test_ansatz_check_suite():
    rep = ansatz_check()
    assert rep.ok, rep.render_text()


def test_elimination_substitutes_only_into_equations_holding_the_unknown(monkeypatch):
    """A solved unknown is substituted only into the pending equations that
    contain it: in a warm ansatz suite at a point, no substitution made by
    the elimination binds a name its scalar lacks, and the pins are the
    symbolic pins at that point."""
    point = {"u": Fraction(5, 3), "s": Fraction(-7, 2)}
    assert run_suite("ansatz", point, False).ok
    depth, idle, calls = [], [], []
    real_eliminate, real_substitute = coaction._eliminate, Scalar.substitute

    def eliminate(equations):
        depth.append(None)
        try:
            return real_eliminate(equations)
        finally:
            depth.pop()

    def substitute(self, bindings):
        if depth:
            calls.append(bindings)
            if not set(bindings) & self.params_used():
                idle.append(bindings)
        return real_substitute(self, bindings)

    monkeypatch.setattr(coaction, "_eliminate", eliminate)
    monkeypatch.setattr(Scalar, "substitute", substitute)
    assert run_suite("ansatz", point, False).ok
    assert calls and idle == []

    at_point = ansatz_solve(builtin("ansatz_xi", point), builtin("TT7", point))
    symbolic = ansatz_solve(builtin("ansatz_xi"))
    assert at_point.solved == {
        n: v.substitute(point) for n, v in symbolic.solved.items()
    }
    assert at_point.solved == {
        "k": sc.ZERO,
        "lam12": sc.ZERO,
        "mu12": sc.ZERO,
        "c21": Scalar.from_fraction(Fraction(-9, 25)),
        "lam": Scalar.from_fraction(Fraction(-3, 5)),
        "mu": Scalar.from_fraction(Fraction(-5, 3)),
    }
    pins, report = pin_free_coefficients(bindings=point)
    assert report.ok and pins == {n: at_point.solved[n] for n in pins}


def test_specialized_comodule_still_passes():
    b = {"u": Fraction(7, 4), "s": Fraction(2, 3)}
    assert comodule_check(XSPACE.substitute(b), GROUP.substitute(b)).ok
    assert constraint_span_check(bindings=b).ok


@pytest.mark.parametrize(
    "bindings", [None, {"u": Fraction(2), "s": Fraction(3)}], ids=["symbolic", "u=2,s=3"]
)
@pytest.mark.parametrize("space", ["xspace", "xispace"])
def test_nine_generator_group_coacts_on_both_spaces(space, bindings):
    """The coordinate and one-form spaces are comodules of the 9-generator
    group as well: its RTT relations keep both relation spans invariant."""
    group = group_presentation("H10", bindings)
    rep = comodule_check(builtin(space, bindings), group)
    assert rep.ok, rep.render_text()
