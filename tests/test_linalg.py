"""Exact linear algebra over the scalar field and the deformation matrix."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh import linalg
from qwh import scalar as sc
from qwh.cli import _SUITES, run_suite
from qwh.linalg import (
    LinalgError,
    Matrix,
    eigenspace_identification,
    generic_q_not_eigenspace,
    involution_check,
    kernel_basis,
    kron,
    pair_to_lin,
    quadratic_vectors,
    rhat_builtin,
    row_space,
    rref,
    ybe_check,
)
from qwh.presentations import builtin
from qwh.report import FAIL
from qwh.scalar import Scalar


# -- references: the rank-based span tests and the eigenprojector bases that
#    row spaces and R v = lambda v replaced in qwh.linalg ------------------

def rank(M):
    return len(dense_rref(M)[1])


def _column_rank(cols):
    """Rank of the matrix whose columns are `cols` (0 with no columns)."""
    return rank(Matrix(cols).transpose())


def span_contains(basis, vecs):
    """Every vector of `vecs` lies in span(basis)?"""
    return _column_rank(basis) == _column_rank(basis + vecs)


def span_equal(a, b):
    """span(a) = span(b), that is, a, b and a + b have one rank."""
    return _column_rank(a) == _column_rank(a + b) == _column_rank(b)


def column_space_basis(M):
    cols = M.transpose().entries
    return [cols[c] for c in dense_rref(M)[1]]


def eigensplit(R):
    """Column bases of the +1 / -1 eigenprojections of an involutive matrix."""
    if not involution_check(R).ok:
        raise LinalgError("eigensplit requires an involutive matrix")
    n = R.rows
    half = sc.ONE / Scalar.from_int(2)
    p_plus = (Matrix.identity(n) + R).map(lambda e: e * half)
    p_minus = (Matrix.identity(n) - R).map(lambda e: e * half)
    return column_space_basis(p_plus), column_space_basis(p_minus)


def test_pair_index_is_a_bijection_onto_0_to_8():
    seen = set()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            a = pair_to_lin(i, j)
            assert 0 <= a < 9
            seen.add(a)
    assert len(seen) == 9


def test_ybe_and_involution_pass():
    R = rhat_builtin()
    assert ybe_check(R).ok
    assert involution_check(R).ok


def test_perturbed_matrix_fails_ybe():
    R = rhat_builtin()
    entries = [[R[i, j] for j in range(9)] for i in range(9)]
    entries[0][1] = entries[0][1] + sc.ONE
    broken = Matrix(entries)
    assert not ybe_check(broken).ok


def test_eigensplit_dimensions_and_projectors():
    R = rhat_builtin()
    plus, minus = eigensplit(R)
    assert {len(plus), len(minus)} == {6, 3}
    # each basis vector really is an eigenvector
    for basis, val in ((plus, sc.ONE), (minus, -sc.ONE)):
        M = Matrix([[v[i] for v in basis] for i in range(9)])
        assert (R * M - M.map(lambda e: e * val)).is_zero()


def test_eigenspace_identification_passes():
    assert eigenspace_identification().ok


def test_eigenspace_identification_fails_when_no_convention_works(monkeypatch):
    # the identity is involutive, with a 9-dim +1 eigenspace and no -1 one
    monkeypatch.setattr(linalg, "rhat_builtin", lambda bindings: Matrix.identity(9))
    rep = eigenspace_identification()
    assert rep.status == FAIL
    assert [(i.label, i.passed) for i in rep.items] == [
        ("eigenspace dimensions {9, 0} = {6, 3}", False),
        ("coordinate relations span equals an eigenspace", False),
        ("one-form relations span equals an eigenspace", False),
    ]


def test_generic_q_relations_leave_the_eigenspace():
    assert generic_q_not_eigenspace().ok


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4).map(
    Scalar.from_fraction
)


@st.composite
def matrices(draw, rows=3, cols=4):
    return Matrix(
        [[draw(rationals) for _ in range(cols)] for _ in range(rows)]
    )


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_rref_pivots_and_rank(M):
    E, pivots = rref(M)
    assert rank(M) == len(pivots)
    for r, c in enumerate(pivots):
        assert E[r, c] == sc.ONE
        for rr in range(E.rows):
            if rr != r:
                assert E[rr, c].is_zero()


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(M):
    for v in kernel_basis(M):
        out = [
            sum((M[i, j] * v[j] for j in range(M.cols)), sc.ZERO)
            for i in range(M.rows)
        ]
        assert all(x.is_zero() for x in out)
    assert rank(M) + len(kernel_basis(M)) == M.cols


@settings(max_examples=30, deadline=None)
@given(matrices(rows=4, cols=3))
def test_rank_nullity_and_span_reflexivity(M):
    cols = [[M[i, j] for i in range(M.rows)] for j in range(M.cols)]
    assert span_contains(cols, cols)
    assert span_equal(cols, cols)


# mostly zero, otherwise a rational or a parameter expression that can
# cancel against another entry's
sparse_entries = st.integers(0, 5).flatmap(
    lambda kind: st.just(sc.ZERO)
    if kind < 4
    else rationals
    if kind == 4
    else st.tuples(rationals, st.integers(-2, 2), st.sampled_from([-1, 0, 1])).map(
        lambda t: t[0] * sc.U ** t[1] + Scalar.from_int(t[2]) * sc.S
    )
)


@st.composite
def sparse_factors(draw):
    """A product A x B of non-square shapes, with an all-zero row of A and
    an all-zero column of B."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    a = [[draw(sparse_entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(sparse_entries) for _ in range(m)] for _ in range(k)]
    a[draw(st.integers(0, n - 1))] = [sc.ZERO] * k
    zero_col = draw(st.integers(0, m - 1))
    for row in b:
        row[zero_col] = sc.ZERO
    return Matrix(a), Matrix(b)


@settings(max_examples=40, deadline=None)
@given(sparse_factors())
def test_sparse_product_matches_plain_triple_loop(factors):
    A, B = factors
    plain = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = sc.ZERO
            for k in range(A.cols):
                acc = acc + A[i, k] * B[k, j]
            row.append(acc)
        plain.append(row)
    product = A * B
    assert product == Matrix(plain)
    assert [[type(x.f) for x in row] for row in product.entries] == [
        [type(x.f) for x in row] for row in plain
    ]


# -- sparse elimination against the dense elimination it replaced ---------

def dense_rref(M):
    """The dense reference: every row a full list, every entry of a row
    operation computed, pivots chosen by least term count (first on ties)."""
    m = [row[:] for row in M.entries]
    rows, cols = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        candidates = [i for i in range(r, rows) if not m[i][c].is_zero()]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: m[i][c].term_count())
        m[r], m[best] = m[best], m[r]
        inv = sc.ONE / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return Matrix(m), pivots


def assert_rref_matches_dense(M):
    """Equal pivots, and equal entries by value and by representation."""
    E, pivots = rref(M)
    D, dense_pivots = dense_rref(M)
    assert pivots == dense_pivots
    assert (E.rows, E.cols) == (D.rows, D.cols)
    for got, want in zip(E.entries, D.entries):
        assert got == want
        assert [type(x.f) for x in got] == [type(x.f) for x in want]


POINTS = [None, {"u": Fraction(2), "s": Fraction(3)}]


@pytest.mark.parametrize("bindings", POINTS, ids=["symbolic", "u=2,s=3"])
def test_rref_matches_dense_on_every_suite_matrix(bindings, monkeypatch):
    """Every matrix the 18 suites (and the generic-q variants) eliminate."""
    seen = []

    def capture(M, real=linalg.rref):
        seen.append(M)
        return real(M)

    monkeypatch.setattr(linalg, "rref", capture)
    for name, (_, supports_gq) in _SUITES.items():
        for generic_q in (False, True) if supports_gq else (False,):
            run_suite(name, bindings, generic_q)
    assert len(seen) >= 12
    assert any(type(x.f) is not Fraction for M in seen for row in M.entries for x in row)
    for M in seen:
        assert_rref_matches_dense(M)


@st.composite
def sparse_matrices(draw):
    """Mostly-zero rows, one of them a combination of two others, so that
    entries cancel during elimination."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    m = [[draw(sparse_entries) for _ in range(cols)] for _ in range(rows)]
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
    a, b = draw(sparse_entries), draw(sparse_entries)
    m.insert(draw(st.integers(0, rows)), [a * x + b * y for x, y in zip(m[i], m[j])])
    return Matrix(m)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_rref_matches_dense_on_sparse_matrices(M):
    assert_rref_matches_dense(M)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), st.data())
def test_span_equal_is_mutual_containment(M, data):
    """Three ranks decide what two containment tests decided."""
    cols = M.transpose().entries
    a = data.draw(st.lists(st.sampled_from(cols), max_size=4))
    b = data.draw(st.lists(st.sampled_from(cols), max_size=4))
    assert span_equal(a, b) == (span_contains(a, b) and span_contains(b, a))


def test_span_equal_detects_difference():
    e1 = [sc.ONE, sc.ZERO]
    e2 = [sc.ZERO, sc.ONE]
    assert not span_equal([e1], [e2])
    assert span_equal([e1, e2], [e2, e1])


# -- row spaces and eigenspace membership against the references ----------

def assert_row_spaces_match_ranks(a, b):
    """Equal row spaces decide span equality, and a row space unchanged by
    adding b decides containment, as the ranks do."""
    assert (row_space(a) == row_space(b)) == span_equal(a, b)
    assert (row_space(a) == row_space(a + b)) == span_contains(a, b)
    assert len(row_space(a)) == _column_rank(a)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), st.data())
def test_row_spaces_match_ranks_on_sparse_matrices(M, data):
    a = data.draw(st.lists(st.sampled_from(M.entries), max_size=4))
    b = data.draw(st.lists(st.sampled_from(M.entries), max_size=4))
    assert_row_spaces_match_ranks(a, b)
    assert_row_spaces_match_ranks(a, a[::-1])


SPAN_POINTS = [
    (None, False),
    ({"u": Fraction(2), "s": Fraction(3)}, False),
    ({"u": Fraction(1), "s": Fraction(3)}, False),
    (None, True),
]
SPAN_IDS = ["symbolic", "u=2,s=3", "u=1,s=3", "generic-q"]


@pytest.mark.parametrize("bindings, generic_q", SPAN_POINTS, ids=SPAN_IDS)
def test_row_spaces_match_ranks_on_every_suite_comparison(bindings, generic_q, monkeypatch):
    """Every vector list whose row space a suite takes, paired with every
    other one of the same length: the lists each suite compares, and more."""
    seen = []
    real = linalg.row_space

    def capture(vecs):
        seen.append(vecs)
        return real(vecs)

    for module in [m for name, m in sys.modules.items() if name.startswith("qwh")]:
        if getattr(module, "row_space", None) is real:
            monkeypatch.setattr(module, "row_space", capture)
    for name, (_, supports_gq) in _SUITES.items():
        if supports_gq or not generic_q:
            run_suite(name, bindings, generic_q)
    assert len(seen) >= (2 if generic_q else 9)
    for a, b in itertools.combinations_with_replacement(seen, 2):
        if len(a[0]) == len(b[0]):
            assert_row_spaces_match_ranks(a, b)
            assert_row_spaces_match_ranks(b, a)


@pytest.mark.parametrize("bindings", [b for b, _ in SPAN_POINTS[:3]], ids=SPAN_IDS[:3])
def test_eigenspace_membership_matches_the_eigenprojectors(bindings):
    """For both conventions: the dimensions read off the trace are those of
    the projector bases, and the coordinate, one-form and generic-q relation
    lists each span an eigenspace by R v = lambda v exactly when they span
    that projector basis."""
    R = rhat_builtin(bindings)
    lists = []
    for name in ("xspace", "xispace", "xspace_generic_q"):
        pres = builtin(name, bindings)
        lists.append(quadratic_vectors(pres.relations, pres.table))
    for M in (R, R.transpose()):
        plus, minus = eigensplit(M)
        assert linalg._eigen_dims(M) == (len(plus), len(minus))
        for sign, basis in ((1, plus), (-1, minus)):
            assert linalg._spans_eigenspace(M, basis, sign, len(basis))
            assert not linalg._spans_eigenspace(M, basis, -sign, len(basis))
            assert not linalg._spans_eigenspace(M, basis[1:] + basis[1:], sign, len(basis))
            for vecs in lists:
                spans = linalg._spans_eigenspace(M, vecs, sign, len(basis))
                assert spans == span_equal(vecs, basis)


def reference_triple_ops(R):
    """(R x 1, 1 x R) as the index loop that built them before they were
    Kronecker products."""
    R1 = [[sc.ZERO] * 27 for _ in range(27)]
    R2 = [[sc.ZERO] * 27 for _ in range(27)]
    for i, j, k, l, m, n in itertools.product(range(3), repeat=6):
        row, col = 9 * i + 3 * j + k, 9 * l + 3 * m + n
        if k == n:
            R1[row][col] = R[3 * i + j, 3 * l + m]
        if i == l:
            R2[row][col] = R[3 * j + k, 3 * m + n]
    return Matrix(R1), Matrix(R2)


@pytest.mark.parametrize("bindings", POINTS, ids=["symbolic", "u=2,s=3"])
def test_triple_ops_match_the_index_loop(bindings):
    R = rhat_builtin(bindings)
    assert linalg._triple_ops(R) == reference_triple_ops(R)


@st.composite
def kron_factors(draw):
    """A, C and B, D with A*C and B*D defined."""
    p, q, r, s, t, v = (draw(st.integers(1, 3)) for _ in range(6))
    A, C = draw(matrices(p, q)), draw(matrices(q, r))
    B, D = draw(matrices(s, t)), draw(matrices(t, v))
    return A, B, C, D


@settings(max_examples=30, deadline=None)
@given(kron_factors())
def test_kron_mixed_product(factors):
    A, B, C, D = factors
    assert kron(A, B) * kron(C, D) == kron(A * C, B * D)


def test_specialized_checks_still_pass():
    b = {"u": Fraction(5, 3), "s": Fraction(7)}
    R = rhat_builtin().map(lambda e: e.substitute(b))
    assert ybe_check(R).ok
    assert involution_check(R).ok
    assert eigenspace_identification(bindings=b).ok
