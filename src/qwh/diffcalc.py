"""The invariant differential calculus: cross-relations among variables,
one-forms, and derivatives generated from the deformation matrix, joint
confluence, and evaluation of derivatives on normal-ordered monomials.

Normal words are block-sorted one-forms, then variables, then derivatives;
the derivative/variable exchange rule is the unique inhomogeneous one (it
carries the Kronecker term), so reducing a derivative against a polynomial
in the variables performs differentiation.  The derivatives act on the
quantum space, the quotient module A/A{d1, d2, d3} (each kills 1), so that
reduction drops a word as soon as it ends in a derivative letter.
"""

from __future__ import annotations

import random
from typing import List

from .freealg import GenTable, NCPoly
from .linalg import Matrix, involution_check, kron, rhat_builtin
from .memo import memoised
from .presentations import X_DEGREES, X_GENS, XI_GENS, Presentation, builtin
from .report import CheckItem, CheckReport
from .rewrite import RewriteSystem, diamond_check


class DiffCalcError(Exception):
    pass


_D_GENS = ["d1", "d2", "d3"]

#: grading on the calculus: a one-form has its variable's degree, and a
#: derivative the opposite one
WZ_DEGREES = {
    name: sign * d
    for names, sign in ((X_GENS, 1), (XI_GENS, 1), (_D_GENS, -1))
    for name, d in zip(names, X_DEGREES)
}


def wz_relations(generic_q: bool = False, bindings=None) -> Presentation:
    """The full three-block presentation: variable relations, one-form
    relations, and the 27 cross-relations
        x^k xi^l = R^{kl}_{mn} xi^m x^n
        d_k xi^l = R^{lm}_{kn} xi^n d_m      (the matrix is its own inverse)
        d_l x^k  = delta^k_l + R^{km}_{ln} x^n d_m
    oriented so one-forms sort left, derivatives right; as products on
    generator columns, x (x) xi = R (xi (x) x), d (x) xi = Q (xi (x) d) and
    d (x) x = delta + Q (x (x) d)."""
    R = rhat_builtin(bindings)
    if not involution_check(R).ok:
        raise DiffCalcError(
            "the deformation matrix must be involutive (its inverse is itself)"
        )
    table = GenTable(_D_GENS + X_GENS + XI_GENS)

    rels: List[NCPoly] = []
    for space in (
        builtin("xspace_generic_q" if generic_q else "xspace", bindings),
        builtin("xispace", bindings),
    ):
        to_wz = space.table.gid_map(table)
        rels += [r.relabel(table, to_wz) for r in space.relations]

    # the generator columns, R on constant polynomials, and
    # Q[(k, l), (n, m)] = R[(l, m), (k, n)], all in pair-index order
    zero, one = NCPoly.zero(table), NCPoly.one(table)
    x, xi, der = (
        Matrix([[NCPoly.generator(table, table.gen(n))] for n in names], zero)
        for names in (X_GENS, XI_GENS, _D_GENS)
    )
    R = R.map(lambda c: NCPoly.constant(table, c), zero)
    three = range(3)
    Q = Matrix(
        [[R[3 * l + m, 3 * k + n] for n in three for m in three] for k in three for l in three],
        zero,
    )
    delta = Matrix([[one if k == l else zero] for k in three for l in three], zero)
    x_xi = kron(x, xi) - R * kron(xi, x)
    d_xi = kron(der, xi) - Q * kron(xi, der)
    d_x = kron(der, x) - delta - Q * kron(x, der)
    for k in three:
        for l in three:
            rels += [x_xi[3 * k + l, 0], d_xi[3 * k + l, 0], d_x[3 * l + k, 0]]

    return Presentation(
        name="wz_generic_q" if generic_q else "wz",
        table=table,
        relations=rels,
        degree={table.gen(n): d for n, d in WZ_DEGREES.items()},
    )


def wz_system(generic_q: bool = False, bindings=None) -> RewriteSystem:
    def make():
        return wz_relations(generic_q=generic_q, bindings=bindings).rewrite_system()

    return memoised(("wz", generic_q), bindings, make)


def wz_confluence(generic_q: bool = False, bindings=None) -> CheckReport:
    """Diamond check of the combined three-block system.  No rule has a
    derivative letter in second (last) position, so no derivative/derivative
    ambiguity ever forms; the check covers every overlap that exists."""
    system = wz_system(generic_q=generic_q, bindings=bindings)
    return diamond_check(system, suite="diffcalc")


def apply_derivative(i: int, p: NCPoly, bindings=None) -> NCPoly:
    """The action of the i-th derivative on a polynomial in the variables:
    the normal form of derivative times polynomial in the calculus modulo
    the left ideal of the derivatives (each acts as zero on 1), so a word is
    dropped as soon as it ends in a derivative letter.  No lhs of the
    calculus ends in one (see `wz_confluence`), which makes this exact."""
    if i not in (1, 2, 3):
        raise DiffCalcError(f"derivative index must be 1..3, got {i}")
    system = wz_system(bindings=bindings)
    table = system.table
    to_wz = p.table.gid_map(table)
    if len(to_wz) != len(p.table):
        raise DiffCalcError(f"{p.table} has letters outside the calculus")
    lifted = p.relabel(table, to_wz)
    image = system.normal_form(
        NCPoly.word(table, (table.gen(f"d{i}"),)) * lifted,
        trailing={table.gen(n) for n in _D_GENS},
    )
    xi_gids = {table.gen(n) for n in XI_GENS}
    if any(g in xi_gids for w in image.terms for g in w):
        raise DiffCalcError("one-form letter appeared while differentiating")
    return image.relabel(p.table, table.gid_map(p.table))


def twisted_leibniz_check(bindings=None) -> CheckReport:
    """The derivative action is well-defined on the quotient: acting on a
    product before or after normal-ordering it gives the same result, and
    every variable relation is annihilated; 20 random words, seed 0.  A
    derivative's output is already normal-ordered in the variables (the
    calculus orients their relations as xspace does), so each item tests it
    for zero as it stands: an output that is not normal fails."""
    rng = random.Random(0)
    xspace = builtin("xspace", bindings)
    xsys = xspace.rewrite_system()
    items = []
    for rel in xspace.relations:
        for i in (1, 2, 3):
            out = apply_derivative(i, rel, bindings=bindings)
            ok = out.is_zero()
            items.append(
                CheckItem(
                    f"derivative {i} annihilates relation {rel.render()}",
                    ok,
                    residual=None if ok else out.render(),
                )
            )
    for _ in range(20):
        wlen = rng.randint(0, 3)
        word = tuple(rng.randrange(3) for _ in range(wlen))
        i = rng.randint(1, 3)
        p = NCPoly.word(xspace.table, word)
        via_raw = apply_derivative(i, p, bindings=bindings)
        via_nf = apply_derivative(i, xsys.normal_form(p), bindings=bindings)
        ok = (via_raw - via_nf).is_zero()
        items.append(
            CheckItem(
                f"derivative {i} on {'1' if not word else p.render()}:"
                " raw and normal-ordered representatives agree",
                ok,
            )
        )
    return CheckReport.from_items("twisted-leibniz", items)


def classical_derivative(i: int, p: NCPoly) -> NCPoly:
    """Ordinary partial differentiation of a commutative monomial sum,
    computed term by term on noncommutative words."""
    table = p.table
    target = table.gen(f"x{i}")
    out = NCPoly.zero(table)
    for w, c in p.terms.items():
        for pos, g in enumerate(w):
            if g == target:
                out = out + NCPoly.word(table, w[:pos] + w[pos + 1:], c)
    return out
