"""Acceptance gate: one test per acceptance criterion, each emitting a
single pass/fail line (collected in the terminal summary)."""

import itertools
import random
from fractions import Fraction

import pytest

from qwh import scalar as sc
from qwh.coaction import (
    ansatz_solve,
    comodule_check,
    comodule_residuals,
    constraint_span_check,
    derive_group_constraints,
    pin_free_coefficients,
)
from qwh.diffcalc import (
    apply_derivative,
    classical_derivative,
    twisted_leibniz_check,
    wz_confluence,
    wz_system,
)
from qwh.exprparse import parse_scalar_text
from qwh.freealg import NCPoly
from qwh.linalg import (
    eigenspace_identification,
    involution_check,
    quadratic_vectors,
    rhat_builtin,
    row_space,
    ybe_check,
)
from qwh.presentations import builtin
from qwh.quantumgroup import (
    det_commutation_derive,
    group_system,
    hopf_check,
    intertwiner_check,
    inverse_check,
    rtt7_span_check,
    rtt9_completion_check,
    subalgebra_check,
)
from qwh.rewrite import build_rules, diamond_check, overlap_residual, overlaps
from qwh.scalar import Scalar
from test_linalg import eigensplit

U2 = parse_scalar_text("u^2")


def test_criterion_01_yang_baxter(criterion):
    rep = ybe_check(rhat_builtin())
    criterion(1, "Yang-Baxter equation holds with exact zero residual", rep.ok)


def test_criterion_02_involutivity(criterion):
    rep = involution_check(rhat_builtin())
    criterion(2, "deformation matrix squares to the identity exactly", rep.ok)


def test_criterion_03_eigenstructure(criterion):
    plus, minus = eigensplit(rhat_builtin())
    dims_ok = {len(plus), len(minus)} == {6, 3}
    rep = eigenspace_identification()
    criterion(
        3,
        "eigenspace dims {6,3}; coordinate/one-form relation spans are the "
        "eigenspaces and are complementary",
        dims_ok and rep.ok,
    )


def test_criterion_04_invariance_derivation(criterion):
    rep = constraint_span_check()
    criterion(
        4,
        "derived invariance constraints span exactly the transcribed "
        "relations (mutual membership)",
        rep.ok,
    )


def test_criterion_05_generic_q_obstruction(criterion):
    # comodule side
    group = builtin("TT7")
    generic_fail = False
    residuals_in_ideal = True
    triples = comodule_residuals(builtin("xspace_generic_q"), group)
    for _, res, _ in triples:
        if not res.is_zero():
            generic_fail = True
            if not res.substitute_scalars({"q": U2}).is_zero():
                residuals_in_ideal = False
    # confluence side
    sys_generic = wz_system(generic_q=True)
    for ov in overlaps(sys_generic):
        res = overlap_residual(sys_generic, ov)
        if not res.is_zero():
            generic_fail = True
            if not res.substitute_scalars({"q": U2}).is_zero():
                residuals_in_ideal = False
    tied_pass = comodule_check(builtin("xspace"), group).ok and wz_confluence().ok
    criterion(
        5,
        "generic q breaks comodule/confluence with every residual divisible "
        "by (q - u^2); q = u^2 restores both",
        generic_fail and residuals_in_ideal and tied_pass,
    )


def test_criterion_06_ansatz(criterion):
    system = ansatz_solve(builtin("ansatz_xi"))
    zeros_ok = (
        not system.inconsistent
        and all(system.solved.get(n) == sc.ZERO for n in ("k", "lam12", "mu12"))
    )
    variant = ansatz_solve(builtin("ansatz_xi3sq_variant"))
    pins, pin_rep = pin_free_coefficients()
    pins_ok = (
        pin_rep.ok
        and pins["lam"] == parse_scalar_text("-u^(-1)")
        and pins["mu"] == parse_scalar_text("-u")
        and pins["c21"] == parse_scalar_text("-u^(-2)")
    )
    criterion(
        6,
        "ansatz forces k = lam12 = mu12 = 0, the independent-square variant "
        "is impossible, and the pins match the one-form relations",
        zeros_ok and variant.inconsistent and pins_ok,
    )


def test_criterion_07_hopf_h8(criterion):
    ok = (
        diamond_check(group_system("H8")).ok
        and rtt7_span_check().ok
        and intertwiner_check().ok
        and inverse_check("H8").ok
        and det_commutation_derive("H8").ok
        and hopf_check("H8").ok
    )
    criterion(
        7,
        "seven-generator group: confluent relations, intertwining, inverse, "
        "determinant quasi-commutation (noncentral), Hopf axioms",
        ok,
    )


def test_criterion_08_hopf_h10(criterion):
    ok = (
        rtt9_completion_check().ok
        and inverse_check("H10").ok
        and det_commutation_derive("H10").ok
        and hopf_check("H10").ok
        and subalgebra_check().ok
    )
    criterion(
        8,
        "nine-generator group: RTT completion at word length 3, inverse, "
        "determinant quasi-commutation, Hopf axioms, Hopf-subalgebra embedding",
        ok,
    )


def test_criterion_09_differential_calculus(criterion):
    confluent = wz_confluence().ok
    representative = twisted_leibniz_check().ok
    xspace = builtin("xspace")
    table = xspace.table
    # linearity on a handful of combinations
    rng = random.Random(5)
    linear = True
    for _ in range(10):
        p = NCPoly.word(table, tuple(rng.randrange(3) for _ in range(rng.randint(0, 3))))
        q = NCPoly.word(table, tuple(rng.randrange(3) for _ in range(rng.randint(0, 3))))
        i = rng.randint(1, 3)
        if apply_derivative(i, p + q) != apply_derivative(i, p) + apply_derivative(i, q):
            linear = False
    # classical limit on all monomials up to length 4
    b = {"u": 1, "s": 0}
    classical = builtin("classical_R").substitute({"s": 0})
    csys = build_rules(classical.relations, classical.table)
    classical_ok = True
    for length in range(5):
        for word in itertools.product(range(3), repeat=length):
            p = NCPoly.word(table, word)
            for i in (1, 2, 3):
                diff = apply_derivative(i, p, bindings=b) - classical_derivative(i, p)
                if not csys.normal_form(diff).is_zero():
                    classical_ok = False
    criterion(
        9,
        "calculus is confluent; derivatives are linear, representative-"
        "independent, and classical at u=1, s=0 up to length 4",
        confluent and representative and linear and classical_ok,
    )


def test_criterion_10_classical_limit(criterion):
    # the coordinate relations at u=1 are exactly the undeformed ones
    limit = builtin("xspace").substitute({"u": 1})
    classical = builtin("classical_R")
    rels_ok = set(limit.relations) == set(classical.relations)
    # the derived constraints at u=1 admit the classical subgroup pattern:
    # T11*T22 - T12*T21 = T33^2 modulo commutativity
    group = builtin("TT7").substitute({"u": 1})
    derived = derive_group_constraints(limit, group)
    table = group.table
    commutators = [
        NCPoly.parse(table, f"{a}*{b} - {b}*{a}")
        for a in table.names
        for b in table.names
        if a < b
    ]
    span = quadratic_vectors(derived + commutators, table)
    pattern = quadratic_vectors(
        [NCPoly.parse(table, "T11*T22 - T12*T21 - T33*T33")], table
    )
    pattern_ok = row_space(span) == row_space(span + pattern)
    criterion(
        10,
        "u=1 restores the undeformed coordinate relations and the classical "
        "subgroup condition T11*T22 - T12*T21 = T33^2",
        rels_ok and pattern_ok,
    )


def test_criterion_11_specialization_soundness(criterion):
    rng = random.Random(11)
    ok = True
    for _ in range(5):
        while True:
            u = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
            if u not in (0, 1, -1):
                break
        s = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        b = {"u": u, "s": s}
        R = rhat_builtin().map(lambda e: e.substitute(b))
        group = builtin("TT7").substitute(b)
        reports = [
            ybe_check(R),
            involution_check(R),
            eigenspace_identification(bindings=b),
            constraint_span_check(bindings=b),
            comodule_check(builtin("xspace").substitute(b), group),
            comodule_check(builtin("xispace").substitute(b), group),
            rtt7_span_check(bindings=b),
            rtt9_completion_check(bindings=b),
            intertwiner_check(bindings=b),
            inverse_check("H8", bindings=b),
            inverse_check("H10", bindings=b),
            det_commutation_derive("H8", bindings=b),
            det_commutation_derive("H10", bindings=b),
            hopf_check("H8", bindings=b),
            hopf_check("H10", bindings=b),
            subalgebra_check(bindings=b),
            wz_confluence(bindings=b),
            twisted_leibniz_check(bindings=b),
        ]
        if not all(r.ok for r in reports):
            ok = False
    criterion(
        11,
        "all symbolic passes survive 5 random rational specializations with "
        "u not in {0, 1, -1}",
        ok,
    )
