"""The Hopf algebras H8 and H10: RTT relation generation, intertwiner
verification, determinants, explicit inverses, Hopf axioms, and the
embedding of the 7-generator quantum group into the 9-generator one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Optional, Tuple

from . import scalar as sc
from .freealg import AlgebraMap, GenTable, NCPoly
from .linalg import Matrix, kron, quadratic_vectors, rhat_builtin, row_space
from .memo import memoised, specialised
from .presentations import (
    Presentation,
    TensorAlgebra,
    builtin,
    transcribed_T_constraints,
)
from .report import CheckItem, CheckReport
from .rewrite import RewriteError, RewriteSystem, complete, interreduce_relations
from .scalar import Scalar


class QuantumGroupError(Exception):
    pass


#: the extended presentation (matrix generators plus the determinant
#: inverse, listed last) of each algebra
_EXT = {"H8": "TDinv", "H10": "tdinv"}


def generator_matrix(pres: Presentation) -> Matrix:
    """The defining quantum matrix of a presentation (zero where the shape
    forces an entry to vanish)."""
    if pres.matrix is None:
        raise QuantumGroupError(f"{pres.name} carries no quantum-matrix structure")
    return Matrix.of_grid(pres.table, pres.matrix)


# ---------------------------------------------------------------------------
# RTT relations
# ---------------------------------------------------------------------------

def _rtt_identities(R: Matrix, T: Matrix) -> Matrix:
    """R (T (x) T) - (T (x) T) R, with R lifted to constant polynomials:
    entry ((j, i), (m, n)), in pair-index order, is the identity
    R^{ji}_{kl} T^k_m T^l_n - T^j_l T^i_k R^{lk}_{mn}."""
    table = T.zero.table
    R = R.map(lambda c: NCPoly.constant(table, c), T.zero)
    TT = kron(T, T)
    return R * TT - TT * R


def rtt_relations(ngen: int = 9, bindings=None) -> Presentation:
    """All 81 instances of the defining identity
    R^{ji}_{kl} T^k_m T^l_n = T^j_l T^i_k R^{lk}_{mn} of the built-in
    matrix, Gaussian-eliminated to an independent list.  ngen selects the
    full 9-generator matrix of H10 or the 7-generator shape of H8 (lower-left
    corner zero), each as its extended presentation states it."""
    R = rhat_builtin(bindings)
    if ngen not in (7, 9):
        raise QuantumGroupError(f"ngen must be 7 or 9, got {ngen}")
    ext = builtin(_EXT["H8" if ngen == 7 else "H10"])
    table = GenTable(ext.table.names[:-1])  # all but the det-inverse
    identities = _rtt_identities(R, Matrix.of_grid(table, ext.matrix))
    raw = [rel for row in identities.entries for rel in row if not rel.is_zero()]
    return Presentation(
        name=f"rtt{ngen}",
        table=table,
        relations=interreduce_relations(raw),
        degree={g: d for g, d in ext.degree.items() if g < len(table)},
        matrix=ext.matrix,
    )


def group_presentation(which: str, bindings=None) -> Presentation:
    """The working presentation of either Hopf algebra's matrix part:
    transcribed relations for H8, RTT-generated ones for H10."""
    if which == "H8":
        return builtin("TT7", bindings)
    if which == "H10":
        return memoised(
            "rtt9", bindings, lambda: rtt_relations(ngen=9, bindings=bindings)
        )
    raise QuantumGroupError(f"unknown algebra {which!r}; expected H8 or H10")


def group_system(which: str, bindings=None) -> RewriteSystem:
    """Confluent rewrite system for the matrix part (H10's is completed,
    bounded at word length 3)."""
    def make():
        pres = group_presentation(which, bindings)
        try:
            return complete(pres.rewrite_system(), max_word_len=3)
        except RewriteError:
            raise QuantumGroupError(
                f"{which} matrix relations do not complete within word length 3"
            ) from None

    return memoised(("system", which), bindings, make)


def rtt7_span_check(bindings=None, generic_q: bool = False) -> CheckReport:
    """The 7-generator RTT relations span exactly the transcribed relation
    list of the 7-generator quantum group.  With generic_q, the comparison
    target is the invariance-constraint span with q kept independent, which
    the RTT span cannot reproduce."""
    derived = memoised("rtt7", bindings, lambda: rtt_relations(ngen=7, bindings=bindings))
    tt7 = builtin("TT7", bindings)
    dv = quadratic_vectors(derived.relations, derived.table)
    if generic_q:
        target = transcribed_T_constraints(bindings)
        label = (
            f"RTT relations ({len(derived.relations)} independent) span the"
            " generic-q invariance constraints"
        )
    else:
        target = tt7.relations
        label = (
            f"RTT relations ({len(derived.relations)} independent) span the"
            " transcribed relation list"
        )
    tv = quadratic_vectors(target, tt7.table)
    items = [CheckItem(label, row_space(dv) == row_space(tv))]
    return CheckReport.from_items("rtt-7", items)


def rtt9_completion_check(bindings=None) -> CheckReport:
    pres = group_presentation("H10", bindings)
    try:
        system = group_system("H10", bindings)
    except QuantumGroupError as e:
        return CheckReport.error("rtt-9", str(e))
    items = [
        CheckItem(
            f"{len(pres.relations)} independent relations complete to a"
            f" confluent system of {len(system.rules)} rules within word length 3",
            True,
        )
    ]
    # complete returns a system only after a round in which every one of its
    # overlaps resolved, and raises through group_system otherwise, so that
    # round was the diamond check
    items.append(CheckItem("completed system passes the diamond check", True))
    return CheckReport.from_items("rtt-9", items)


def intertwiner_check(bindings=None) -> CheckReport:
    """All 81 instances of the defining identity hold in the quotient."""
    R = rhat_builtin(bindings)
    group = builtin("TT7", bindings)
    system = group.rewrite_system()
    pairs = list(product((1, 2, 3), repeat=2))  # row and column labels
    items = []
    for (j, i), row in zip(pairs, _rtt_identities(R, generator_matrix(group)).entries):
        worst = None  # the row's first failing instance
        for (m, n), rel in zip(pairs, row):
            residual = system.normal_form(rel)
            if not residual.is_zero():
                worst = f"({j}{i}|{m}{n}): {residual.render()}"
                break
        items.append(
            CheckItem(
                f"row pair ({j},{i}): all 9 column instances reduce to 0",
                worst is None,
                residual=worst,
            )
        )
    return CheckReport.from_items("intertwiner", items)


# ---------------------------------------------------------------------------
# determinants and inverses
# ---------------------------------------------------------------------------

_D7_TEXT = "T11*T22*T33 - u^(-2)*T12*T21*T33"

# the t11*t23*t32 coefficient is the derived one: it is the unique value
# for which matrix x adjugate = d x identity holds and d quasi-commutes
# with every generator
_d9_TEXT = (
    "t11*t22*t33 + t13*t21*t32 + u^(-3)*t12*t23*t31"
    " - u*t11*t23*t32 - u^(-2)*t12*t21*t33 - u^(-2)*t13*t22*t31"
)

_ADJ7_TEXTS = [
    ["T22*T33", "-u^2*T12*T33", "T12*T23 - u*T13*T22"],
    ["-u^(-2)*T21*T33", "T11*T33", "-u^(-2)*T11*T23 + u^(-3)*T13*T21"],
    ["0", "0", "T11*T22 - u^(-2)*T12*T21"],
]

_ADJ9_TEXTS = [
    ["t22*t33 - u*t23*t32", "-u^2*t12*t33 + u^3*t13*t32", "t12*t23 - u*t13*t22"],
    [
        "-u^(-2)*t21*t33 + u^(-3)*t23*t31",
        "t11*t33 - u^(-1)*t13*t31",
        "-u^(-2)*t11*t23 + u^(-3)*t13*t21",
    ],
    ["t21*t32 - u^(-2)*t22*t31", "-u^2*t11*t32 + t12*t31", "t11*t22 - u^(-2)*t12*t21"],
]

_ADJ_TEXTS = {"H8": _ADJ7_TEXTS, "H10": _ADJ9_TEXTS}
_DET_TEXTS = {"H8": _D7_TEXT, "H10": _d9_TEXT}


def determinant(which: str, bindings=None) -> NCPoly:
    """The quantum determinant of H8 or H10, transcribed (D7 as the
    two-term product form expanded, d9 as the printed six-term sum).
    Memoised like `builtin`."""
    return specialised(
        ("det", which),
        bindings,
        lambda: NCPoly.parse(group_presentation(which).table, _DET_TEXTS[which]),
        NCPoly.substitute_scalars,
    )


def adjugate(which: str, bindings=None) -> Matrix:
    """The printed inverse matrix without its determinant-inverse factor.
    Memoised like `builtin`."""

    def make():
        table = group_presentation(which).table
        rows = [[NCPoly.parse(table, t) for t in row] for row in _ADJ_TEXTS[which]]
        return Matrix(rows, NCPoly.zero(table))

    return specialised(
        ("adjugate", which),
        bindings,
        make,
        lambda A, b: A.map(lambda e: e.substitute_scalars(b)),
    )


def extended_presentation(which: str, bindings=None) -> Presentation:
    """H8 or H10 as one presentation on the matrix generators plus the
    determinant inverse (listed last): the matrix relations lifted to the
    extended table, then the commutation relations of the inverse."""
    def make():
        ext = builtin(_EXT[which], bindings)
        pres = group_presentation(which, bindings)
        to_ext = pres.table.gid_map(ext.table)
        lifted = [r.relabel(ext.table, to_ext) for r in pres.relations]
        return replace(ext, relations=lifted + ext.relations)

    return memoised(("extended", which), bindings, make)


def extended_system(which: str, bindings=None) -> RewriteSystem:
    """The rewrite system of `extended_presentation`."""
    return extended_presentation(which, bindings).rewrite_system()


def inverse_check(which: str, bindings=None) -> CheckReport:
    """Adjugate identity first (matrix times adjugate equals determinant
    times identity, both sides, entrywise in the matrix quotient), then the
    determinant-inverse commutation relations certify a genuine two-sided
    inverse without ever rewriting the inversion pair itself."""
    pres = group_presentation(which, bindings)
    system = group_system(which, bindings)
    A = adjugate(which, bindings)
    det = determinant(which, bindings)
    adj_ok = _is_scalar_matrix(system.normal_form, generator_matrix(pres) * A, det)
    # the adjugate is one-sided by construction (the printed inverse puts
    # the determinant inverse on the right); the left inverse only holds
    # with the det-inverse weighting that the antipode S(T) carries
    right_ok, left_ok = _inverse_pair(hopf_data(which, bindings))
    items = [
        CheckItem("matrix x adjugate = determinant x identity", adj_ok),
        CheckItem(
            "matrix x (adjugate x det-inverse) reduces to det x det-inverse x identity",
            right_ok,
        ),
        CheckItem(
            "(adjugate x det-inverse) x matrix reduces to det-inverse x det x identity",
            left_ok,
        ),
    ]
    return CheckReport.from_items(f"inverse-{which.lower()}", items)


# ---------------------------------------------------------------------------
# determinant commutation
# ---------------------------------------------------------------------------

def _proportionality(p: NCPoly, q: NCPoly) -> Optional[Scalar]:
    """c with p = c*q, or None."""
    if p.is_zero() and q.is_zero():
        return sc.ONE
    if p.is_zero() or q.is_zero():
        return None
    if set(p.terms) != set(q.terms):
        return None
    w0 = next(iter(p.terms))
    c = p.terms[w0] / q.terms[w0]
    return c if (q.scale(c) - p).is_zero() else None


def det_commutation_derive(which: str, bindings=None) -> CheckReport:
    """Derive, for every generator g, the factor in g*det = c*det*g from
    the matrix relations alone, and match the induced det-inverse relation
    g*dinv = c^{-1}*dinv*g against the loaded commutation table; also
    confirms the determinant is not central."""
    pres = group_presentation(which, bindings)
    system = group_system(which, bindings)
    ext = extended_presentation(which, bindings)
    det = determinant(which, bindings)
    esys = extended_system(which, bindings)
    dinv = len(ext.table) - 1  # the det-inverse is listed last
    items = []
    noncentral = False
    for gname in pres.table.names:
        g = NCPoly.word(pres.table, (pres.table.gen(gname),))
        p = system.normal_form(g * det)
        q = system.normal_form(det * g)
        c = _proportionality(p, q)
        if c is None:
            items.append(
                CheckItem(f"{gname}: determinant does not quasi-commute", False)
            )
            continue
        if c != sc.ONE:
            noncentral = True
        r = sc.ONE / c
        # the loaded rule g*dinv -> r*dinv*g leaves one term, coefficient r
        (printed,) = esys.normal_form(
            NCPoly.word(ext.table, (ext.table.gen(gname), dinv))
        ).terms.values()
        items.append(
            CheckItem(
                f"{gname}*det = ({c})*det*{gname}; table factor {printed}",
                r == printed,
                residual=None if r == printed else f"derived factor {r}",
            )
        )
    items.append(CheckItem("determinant is not central", noncentral))
    return CheckReport.from_items(f"det-comm-{which.lower()}", items)


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------

#: the ground field, as the free algebra on no generators
_GROUND = GenTable([])


@dataclass
class HopfData:
    """Coproduct, counit and antipode of the extended algebra (matrix
    entries plus determinant inverse `dinv`), each an `AlgebraMap` fixed by
    its images of the generators; the antipode is an anti-homomorphism and
    the counit maps into the ground table.  The coproduct lands in
    `doubled`, two commuting copies of the extended algebra: the left copy
    comes first in its table, so normal words read the right copy first;
    reduce there with `doubled.normal_form(p, system, system)`, where
    `system` is `ext.rewrite_system()`."""

    #: `extended_presentation(which, bindings)`
    ext: Presentation
    doubled: TensorAlgebra
    dinv: NCPoly
    coproduct: AlgebraMap
    counit: AlgebraMap
    antipode: AlgebraMap


def hopf_data(which: str, bindings=None) -> HopfData:
    """The Hopf structure of H8 or H10 on its extended algebra: the only
    place the antipode S(T) = adjugate x det-inverse is built.  Each map's
    images of the matrix generators are the entries of one matrix at their
    grid positions, Delta(T) = T (x) T, epsilon(T) = I and S(T) = adjugate x
    det-inverse; the det-inverse's image follows.  Memoised like
    `group_system`."""
    def make():
        ext = extended_presentation(which, bindings)
        pres = group_presentation(which, bindings)
        to_ext = pres.table.gid_map(ext.table)
        dinv_gid = len(ext.table) - 1  # the det-inverse is listed last
        dinv = NCPoly.generator(ext.table, dinv_gid)
        position = {
            g: (i, j)
            for i, row in enumerate(ext.matrix)
            for j, g in enumerate(row)
            if g is not None
        }

        def images(P, dinv_image):  # P's entries, then the det-inverse's image
            return [P[position[g]] for g in range(dinv_gid)] + [dinv_image]

        doubled = TensorAlgebra(
            ext, ext, [f"{n}.{side}" for side in "lr" for n in ext.table.names]
        )
        M = generator_matrix(ext)

        def in_copy(ids):  # M in one copy of the doubled algebra
            return M.map(lambda e: e.relabel(doubled.table, ids), NCPoly.zero(doubled.table))

        delta = in_copy(doubled.first) * in_copy(doubled.second)
        unit = Matrix.identity(3).map(
            lambda c: NCPoly.constant(_GROUND, c), NCPoly.zero(_GROUND)
        )
        S = adjugate(which, bindings).map(
            lambda e: e.relabel(ext.table, to_ext) * dinv, NCPoly.zero(ext.table)
        )
        # S(D^{-1}) = D, since S(D) = D^{-1} and S is an anti-automorphism
        det = determinant(which, bindings).relabel(ext.table, to_ext)
        return HopfData(
            ext=ext,
            doubled=doubled,
            dinv=dinv,
            coproduct=AlgebraMap(
                ext.table, doubled.table, images(delta, doubled.tensor(dinv, dinv))
            ),
            counit=AlgebraMap(ext.table, _GROUND, images(unit, NCPoly.one(_GROUND))),
            antipode=AlgebraMap(ext.table, ext.table, images(S, det), anti=True),
        )

    return memoised(("hopf", which), bindings, make)


def _is_scalar_matrix(normal_form, P: Matrix, unit: NCPoly) -> bool:
    """Whether P equals unit x identity, entrywise in normal form."""
    diagonal = normal_form(unit)
    return all(
        normal_form(P[i, j]) == (diagonal if i == j else P.zero)
        for i, j in product(range(3), repeat=2)
    )


def _inverse_pair(data: HopfData) -> Tuple[bool, bool]:
    """Whether T x S(T) = det x det-inverse x identity and S(T) x T =
    det-inverse x det x identity, entrywise in the extended quotient."""
    M = generator_matrix(data.ext)
    SM = M.map(data.antipode)
    det = data.antipode(data.dinv)  # S(det-inverse) = det
    nf = data.ext.rewrite_system().normal_form
    return (
        _is_scalar_matrix(nf, M * SM, det * data.dinv),
        _is_scalar_matrix(nf, SM * M, data.dinv * det),
    )


def hopf_check(which: str, bindings=None) -> CheckReport:
    """The three Hopf-algebra axioms on the extended algebra: the coproduct
    preserves every relation, the counit annihilates every relation and
    splits the coproduct, and the antipode composes to the counit through
    the adjugate identity."""
    data = hopf_data(which, bindings)
    ext, esys = data.ext, data.ext.rewrite_system()
    relations = ext.relations
    items = [
        CheckItem.all_zero(
            f"coproduct preserves all {len(relations)} relations",
            (data.doubled.normal_form(data.coproduct(r), esys, esys) for r in relations),
        )
    ]

    eps_ok = all(data.counit(r).is_zero() for r in relations)
    items.append(CheckItem("counit annihilates every relation", eps_ok))

    def counit_x_id(w):  # evaluate the left copy of a doubled word
        left, right = data.doubled.split(w)
        c = data.counit(NCPoly.word(ext.table, left)).as_scalar()
        return NCPoly.word(ext.table, right, c)

    split_ok = all(
        data.coproduct(g).map_words(ext.table, counit_x_id) == g
        for g in (NCPoly.generator(ext.table, gid) for gid in range(len(ext.table)))
    )
    items.append(CheckItem("(counit x id) o coproduct = id on generators", split_ok))
    items.append(
        CheckItem(
            "antipode axiom m(S x id)coproduct = counit = m(id x S)coproduct"
            " on matrix generators (against det x det-inverse = 1)",
            all(_inverse_pair(data)),
        )
    )
    items.append(
        CheckItem(
            "antipode on the det-inverse: S(det-inverse)*det-inverse is the"
            " inversion pair itself (definitional)",
            True,
        )
    )
    return CheckReport.from_items(f"hopf-{which.lower()}", items)


# ---------------------------------------------------------------------------
# the embedding H8 -> H10
# ---------------------------------------------------------------------------

def subalgebra_check(bindings=None) -> CheckReport:
    """The specialization map sends every relation of the 9-generator
    algebra into the ideal of the 7-generator one and commutes with the
    Hopf structure maps on generators."""
    data8 = hopf_data("H8", bindings)
    data10 = hopf_data("H10", bindings)
    h8_ext, h10_ext = data8.ext, data10.ext
    # the map t^i_j -> T^i_j, d^{-1} -> D^{-1} renames t11 to T11 and dinv
    # to Dinv; T31 and T32 do not exist, so words holding t31 or t32 die
    embed = h10_ext.table.gid_map(h8_ext.table, str.capitalize)
    esys8 = h8_ext.rewrite_system()
    items = [
        CheckItem.all_zero(
            f"all {len(h10_ext.relations)} relations map into the 7-generator ideal",
            (esys8.normal_form(r.relabel(h8_ext.table, embed)) for r in h10_ext.relations),
        ),
        CheckItem(
            "9-generator determinant maps to the 7-generator determinant",
            esys8.normal_form(data10.antipode(data10.dinv).relabel(h8_ext.table, embed))
            == esys8.normal_form(data8.antipode(data8.dinv)),
        ),
    ]

    doubled8_table = data8.doubled.table
    embed_doubled = data10.doubled.table.gid_map(doubled8_table, str.capitalize)
    cop_ok = eps_ok = anti_ok = True
    for name in h10_ext.table.names:
        g10 = NCPoly.word(h10_ext.table, (h10_ext.table.gen(name),))
        g8 = g10.relabel(h8_ext.table, embed)
        lhs = data10.coproduct(g10).relabel(doubled8_table, embed_doubled)
        rhs = data8.coproduct(g8)
        if not data8.doubled.normal_form(lhs - rhs, esys8, esys8).is_zero():
            cop_ok = False
        if data10.counit(g10) != data8.counit(g8):
            eps_ok = False
        lhs_s = data10.antipode(g10).relabel(h8_ext.table, embed)
        rhs_s = data8.antipode(g8)
        if esys8.normal_form(lhs_s - rhs_s) != NCPoly.zero(h8_ext.table):
            anti_ok = False
    items.append(CheckItem("map commutes with the coproduct on generators", cop_ok))
    items.append(CheckItem("map commutes with the counit on generators", eps_ok))
    items.append(CheckItem("map commutes with the antipode on generators", anti_ok))
    return CheckReport.from_items("subalgebra", items)
