"""Exact matrices over the Scalar field and the 9x9 deformation matrix.

Pair indices (i, j), i, j in {1,2,3}, are linearized row-major:
(1,1),(1,2),(1,3),(2,1),(2,2),(2,3),(3,1),(3,2),(3,3).
"""

from __future__ import annotations

from typing import List, Tuple

from . import scalar as sc
from .freealg import GenTable, NCPoly
from .memo import specialised
from .presentations import builtin
from .report import CheckItem, CheckReport
from .rewrite import eliminate_rows
from .scalar import Scalar


class LinalgError(Exception):
    pass


def pair_to_lin(i: int, j: int) -> int:
    """(i, j) with i, j in 1..3 to 0-based linear index."""
    return 3 * (i - 1) + (j - 1)


class ScalarMatrix:
    def __init__(self, entries: List[List[Scalar]]):
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != self.cols:
                raise LinalgError("ragged matrix")

    @staticmethod
    def zero(rows, cols) -> "ScalarMatrix":
        return ScalarMatrix([[sc.ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n) -> "ScalarMatrix":
        m = [[sc.ONE if i == j else sc.ZERO for j in range(n)] for i in range(n)]
        return ScalarMatrix(m)

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __mul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows:
            raise LinalgError(f"dimension mismatch {self.cols} vs {other.rows}")
        # each right-hand row's nonzero (column, value) pairs; sums run up k
        sparse = [
            [(j, b) for j, b in enumerate(row) if not b.is_zero()]
            for row in other.entries
        ]
        out = []
        for row in self.entries:
            acc = [sc.ZERO] * other.cols
            for a, pairs in zip(row, sparse):
                if not a.is_zero():
                    for j, b in pairs:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return ScalarMatrix(out)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("dimension mismatch")
        return ScalarMatrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("dimension mismatch")
        return ScalarMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def scale(self, c: Scalar) -> "ScalarMatrix":
        return ScalarMatrix(
            [[e * c for e in row] for row in self.entries]
        )

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def substitute(self, bindings) -> "ScalarMatrix":
        return ScalarMatrix(
            [[e.substitute(bindings) for e in row] for row in self.entries]
        )

    def columns(self) -> List[List[Scalar]]:
        return [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]


# ---------------------------------------------------------------------------
# the built-in 9x9 matrix
# ---------------------------------------------------------------------------

def rhat_builtin(bindings=None) -> ScalarMatrix:
    """Exact transcription of the 9x9 deformation matrix (rows/cols in
    pair-index order), specialised at bindings if given.  Memoised through
    `qwh.memo`, so callers must not mutate the result."""
    return specialised(
        "rhat", bindings, _transcribed_rhat, ScalarMatrix.substitute
    )


def _transcribed_rhat() -> ScalarMatrix:
    u, s = sc.U, sc.S
    m = ScalarMatrix.zero(9, 9)
    e = m.entries

    def put(rp, cp, val):
        e[pair_to_lin(*rp)][pair_to_lin(*cp)] = val

    put((1, 1), (1, 1), sc.ONE)
    put((1, 2), (2, 1), u ** 2)
    put((1, 2), (3, 3), s)
    put((1, 3), (3, 1), u)
    put((2, 1), (1, 2), u ** -2)
    put((2, 1), (3, 3), -s * u ** -2)
    put((2, 2), (2, 2), sc.ONE)
    put((2, 3), (3, 2), u ** -1)
    put((3, 1), (1, 3), u ** -1)
    put((3, 2), (2, 3), u)
    put((3, 3), (3, 3), sc.ONE)
    return m


def _triple_ops(R: ScalarMatrix) -> Tuple[ScalarMatrix, ScalarMatrix]:
    """(R (x) 1, 1 (x) R) as 27x27 matrices on V (x) V (x) V with dim V = 3."""
    if (R.rows, R.cols) != (9, 9):
        raise LinalgError("expected a 9x9 matrix")
    R1 = ScalarMatrix.zero(27, 27)
    R2 = ScalarMatrix.zero(27, 27)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                row = 9 * i + 3 * j + k
                for l in range(3):
                    for m_ in range(3):
                        for n in range(3):
                            col = 9 * l + 3 * m_ + n
                            if k == n:
                                R1.entries[row][col] = R.entries[3 * i + j][3 * l + m_]
                            if i == l:
                                R2.entries[row][col] = R.entries[3 * j + k][3 * m_ + n]
    return R1, R2


def ybe_check(R: ScalarMatrix) -> CheckReport:
    """Braid-form Yang-Baxter check: (R x 1)(1 x R)(R x 1) = (1 x R)(R x 1)(1 x R)."""
    R1, R2 = _triple_ops(R)
    lhs = R1 * R2 * R1
    rhs = R2 * R1 * R2
    diff = lhs - rhs
    items = []
    bad = [
        (i, j)
        for i in range(27)
        for j in range(27)
        if not diff.entries[i][j].is_zero()
    ]
    if not bad:
        items.append(CheckItem("27x27 residual identically zero", True))
    else:
        for i, j in bad[:20]:
            items.append(
                CheckItem(
                    f"residual entry ({i},{j})", False, str(diff.entries[i][j])
                )
            )
    return CheckReport.from_items("ybe", items)


def involution_check(R: ScalarMatrix) -> CheckReport:
    if R.rows != R.cols:
        raise LinalgError("involution check needs a square matrix")
    diff = R * R - ScalarMatrix.identity(R.rows)
    items = []
    if diff.is_zero():
        items.append(CheckItem("R*R = identity", True))
    else:
        for i in range(R.rows):
            for j in range(R.cols):
                if not diff.entries[i][j].is_zero():
                    items.append(
                        CheckItem(
                            f"(R*R - 1) entry ({i},{j})",
                            False,
                            str(diff.entries[i][j]),
                        )
                    )
    return CheckReport.from_items("involution", items)


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def rref(M: ScalarMatrix) -> Tuple[ScalarMatrix, List[int]]:
    """Reduced row echelon form and its pivots, by `eliminate_rows` on the
    rows' nonzero entries.  Every rank goes through here."""
    m = [{j: e for j, e in enumerate(row) if not e.is_zero()} for row in M.entries]
    pivots = eliminate_rows(m, range(M.cols))
    dense = [[row.get(j, sc.ZERO) for j in range(M.cols)] for row in m]
    return ScalarMatrix(dense), pivots


def rank(M: ScalarMatrix) -> int:
    return len(rref(M)[1])


def kernel_basis(M: ScalarMatrix) -> List[List[Scalar]]:
    """Basis of the right null space."""
    R, pivots = rref(M)
    free = [c for c in range(M.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [sc.ZERO] * M.cols
        v[fc] = sc.ONE
        for r, pc in enumerate(pivots):
            v[pc] = -R.entries[r][fc]
        basis.append(v)
    return basis


def column_space_basis(M: ScalarMatrix) -> List[List[Scalar]]:
    _, pivots = rref(M)
    cols = M.columns()
    return [cols[c] for c in pivots]


def _column_rank(cols: List[List[Scalar]]) -> int:
    """Rank of the matrix whose columns are `cols` (0 with no columns)."""
    return rank(ScalarMatrix(cols).transpose())


def span_contains(basis: List[List[Scalar]], vecs: List[List[Scalar]]) -> bool:
    """Every vector of `vecs` lies in span(basis)?"""
    return _column_rank(basis) == _column_rank(basis + vecs)


def span_equal(a: List[List[Scalar]], b: List[List[Scalar]]) -> bool:
    """span(a) = span(b), that is, a, b and a + b have one rank."""
    return _column_rank(a) == _column_rank(a + b) == _column_rank(b)


def quadratic_vectors(polys: List[NCPoly], table: GenTable) -> List[List[Scalar]]:
    """Quadratic polynomials as vectors over the length-2 words, the word
    (a, b) at component a * len(table) + b.  For a 3-generator space whose
    vector order is its table order, these are the pair-index components."""
    n = len(table)
    out = []
    for p in polys:
        v = [sc.ZERO] * (n * n)
        for w, c in p.terms.items():
            if len(w) != 2:
                raise LinalgError(f"non-quadratic term in {p}")
            v[w[0] * n + w[1]] = c
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# eigenstructure
# ---------------------------------------------------------------------------

def eigensplit(R: ScalarMatrix):
    """Column bases of the +1 / -1 eigenprojections of an involutive matrix."""
    if not involution_check(R).ok:
        raise LinalgError("eigensplit requires an involutive matrix")
    n = R.rows
    half = sc.ONE / Scalar.from_int(2)
    p_plus = (ScalarMatrix.identity(n) + R).scale(half)
    p_minus = (ScalarMatrix.identity(n) - R).scale(half)
    return column_space_basis(p_plus), column_space_basis(p_minus)


def eigenspace_identification(bindings=None) -> CheckReport:
    """Identify the two eigenspaces of the built-in matrix with the spans of
    the coordinate-space and one-form-space relations.

    The source fixes no pair-index linearization, so the check tries the
    printed convention first and its transpose second, reporting which one
    satisfies everything.
    """
    R = rhat_builtin(bindings)
    xspace, xispace = builtin("xspace", bindings), builtin("xispace", bindings)
    x_vecs = quadratic_vectors(xspace.relations, xspace.table)
    xi_vecs = quadratic_vectors(xispace.relations, xispace.table)

    for convention, M in (("as-printed", R), ("transposed", R.transpose())):
        vp, vm = eigensplit(M)
        dims_ok = {len(vp), len(vm)} == {6, 3}
        three = vp if len(vp) == 3 else vm
        six = vp if len(vp) == 6 else vm
        x_ok = span_equal(x_vecs, three)
        xi_ok = span_equal(xi_vecs, six)
        comp_ok = _column_rank(x_vecs + xi_vecs) == 9
        if dims_ok and x_ok and xi_ok and comp_ok:
            x_sign = "+1" if three is vp else "-1"
            xi_sign = "+1" if six is vp else "-1"
            items = [
                CheckItem(f"eigenspace dimensions are {{6, 3}} [{convention}]", True),
                CheckItem(
                    f"coordinate relations span = 3-dim eigenspace "
                    f"(eigenvalue {x_sign})",
                    True,
                ),
                CheckItem(
                    f"one-form relations span = 6-dim eigenspace "
                    f"(eigenvalue {xi_sign})",
                    True,
                ),
                CheckItem("spans are complementary (joint rank 9)", True),
            ]
            return CheckReport.from_items("eigen", items)

    # neither convention works: report the as-printed failure in detail
    vp, vm = eigensplit(R)
    items = [
        CheckItem(
            f"eigenspace dimensions {{{len(vp)}, {len(vm)}}} = {{6, 3}}",
            {len(vp), len(vm)} == {6, 3},
        ),
        CheckItem("coordinate relations span equals an eigenspace", False),
        CheckItem("one-form relations span equals an eigenspace", False),
    ]
    return CheckReport.from_items("eigen", items)


def generic_q_not_eigenspace(bindings=None) -> CheckReport:
    """With q kept independent the coordinate relations stop being an
    eigenspace of the built-in matrix (either convention)."""
    R = rhat_builtin(bindings)
    pres = builtin("xspace_generic_q", bindings)
    vecs = quadratic_vectors(pres.relations, pres.table)
    items = []
    for convention, M in (("as-printed", R), ("transposed", R.transpose())):
        vp, vm = eigensplit(M)
        three = vp if len(vp) == 3 else vm
        ok = not span_equal(vecs, three)
        items.append(
            CheckItem(
                f"generic-q span differs from the 3-dim eigenspace [{convention}]",
                ok,
            )
        )
    return CheckReport.from_items("eigen-generic-q", items)
