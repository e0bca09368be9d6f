"""Exact matrices over the Scalar field or a free algebra, and the 9x9
deformation matrix.

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


class Matrix:
    """Matrix indexed [row, col] from 0, its entries in one ring: Scalars,
    or NCPolys over one table.  `zero` is that ring's zero.  The product
    keeps the left-to-right factor order of noncommuting entries."""

    def __init__(self, entries: List[list], zero=sc.ZERO):
        self.entries = entries
        self.zero = zero
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != self.cols:
                raise LinalgError("ragged matrix")

    @staticmethod
    def identity(n) -> "Matrix":
        m = [[sc.ONE if i == j else sc.ZERO for j in range(n)] for i in range(n)]
        return Matrix(m)

    @staticmethod
    def of_grid(table: GenTable, grid) -> "Matrix":
        """Generator words from a grid of ids (None = entry forced to zero)."""
        zero = NCPoly.zero(table)
        return Matrix(
            [[zero if g is None else NCPoly.generator(table, g) for g in row] for row in grid],
            zero,
        )

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinalgError(f"dimension mismatch {self.cols} vs {other.rows}")
        # each right-hand row's nonzero (column, value) pairs; sums run up k
        sparse = [
            [(j, b) for j, b in enumerate(row) if not b.is_zero()]
            for row in other.entries
        ]
        out = []
        for row in self.entries:
            acc = [self.zero] * other.cols
            for a, pairs in zip(row, sparse):
                if not a.is_zero():
                    for j, b in pairs:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix(out, self.zero)

    def _check_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("dimension mismatch")

    def __sub__(self, other):
        self._check_shape(other)
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.zero,
        )

    def __add__(self, other):
        self._check_shape(other)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.zero,
        )

    def map(self, fn, zero=None) -> "Matrix":
        """fn applied to every entry; `zero` is the zero of fn's ring, by
        default this matrix's."""
        return Matrix(
            [[fn(e) for e in row] for row in self.entries],
            self.zero if zero is None else zero,
        )

    def transpose(self) -> "Matrix":
        return Matrix([list(col) for col in zip(*self.entries)], self.zero)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product: entry (i * b.rows + k, j * b.cols + l) is
    a[i, j] * b[k, l], with a's entry on the left."""
    out = [[a.zero] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    nonzero = [
        (k, l, y) for k, row in enumerate(b.entries) for l, y in enumerate(row)
        if not y.is_zero()
    ]
    for i, row in enumerate(a.entries):
        for j, x in enumerate(row):
            if not x.is_zero():
                for k, l, y in nonzero:
                    out[i * b.rows + k][j * b.cols + l] = x * y
    return Matrix(out, a.zero)


# ---------------------------------------------------------------------------
# the built-in 9x9 matrix
# ---------------------------------------------------------------------------

def rhat_builtin(bindings=None) -> Matrix:
    """Exact transcription of the 9x9 deformation matrix (rows/cols in
    pair-index order), specialised at bindings if given.  Memoised through
    `qwh.memo`, so callers must not mutate the result."""
    return specialised(
        "rhat", bindings, _transcribed_rhat,
        lambda R, b: R.map(lambda e: e.substitute(b)),
    )


def _transcribed_rhat() -> Matrix:
    u, s = sc.U, sc.S
    e = [[sc.ZERO] * 9 for _ in range(9)]

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
    return Matrix(e)


def _triple_ops(R: Matrix) -> Tuple[Matrix, Matrix]:
    """(R (x) 1, 1 (x) R) as 27x27 matrices on V (x) V (x) V with dim V = 3."""
    if (R.rows, R.cols) != (9, 9):
        raise LinalgError("expected a 9x9 matrix")
    one = Matrix.identity(3)
    return kron(R, one), kron(one, R)


def ybe_check(R: Matrix) -> CheckReport:
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


def involution_check(R: Matrix) -> CheckReport:
    if R.rows != R.cols:
        raise LinalgError("involution check needs a square matrix")
    diff = R * R - Matrix.identity(R.rows)
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

def rref(M: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and its pivots, by `eliminate_rows` on the
    rows' nonzero entries.  Every kernel and span test goes through here."""
    m = [{j: e for j, e in enumerate(row) if not e.is_zero()} for row in M.entries]
    pivots = eliminate_rows(m, range(M.cols))
    dense = [[row.get(j, sc.ZERO) for j in range(M.cols)] for row in m]
    return Matrix(dense), pivots


def kernel_basis(M: Matrix) -> List[List[Scalar]]:
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


def row_space(vecs: List[List[Scalar]]) -> List[List[Scalar]]:
    """The nonzero rows of the reduced row echelon form of `vecs`.  The form
    is canonical, so span(a) = span(b) exactly when a and b have one row
    space, and b lies in span(a) exactly when a and a + b have one."""
    E, pivots = rref(Matrix(vecs))
    return E.entries[: len(pivots)]


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

def _eigen_dims(M: Matrix) -> Tuple[int, int]:
    """Dimensions of the +1 and -1 eigenspaces of an involutive matrix.  The
    space is their direct sum, so they are (n + tr M) / 2 and (n - tr M) / 2."""
    if not involution_check(M).ok:
        raise LinalgError("eigenspace checks require an involutive matrix")
    tr = int(sum((M[i, i] for i in range(M.rows)), sc.ZERO).as_fraction())
    return (M.rows + tr) // 2, (M.rows - tr) // 2


def _spans_eigenspace(M: Matrix, vecs: List[List[Scalar]], sign: int, dim: int) -> bool:
    """span(vecs) is the `sign` eigenspace of M, of dimension `dim`: each v
    has M v = sign * v, and `dim` of them are independent."""
    lam = Scalar.from_int(sign)
    cols = [Matrix([[c] for c in v]) for v in vecs]
    return all(M * v == v.map(lambda e: e * lam) for v in cols) and len(row_space(vecs)) == dim


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
        plus, minus = _eigen_dims(M)
        x_sign = 1 if plus == 3 else -1
        if (
            {plus, minus} == {6, 3}
            and _spans_eigenspace(M, x_vecs, x_sign, 3)
            and _spans_eigenspace(M, xi_vecs, -x_sign, 6)
            and len(row_space(x_vecs + xi_vecs)) == 9
        ):
            items = [
                CheckItem(f"eigenspace dimensions are {{6, 3}} [{convention}]", True),
                CheckItem(
                    f"coordinate relations span = 3-dim eigenspace "
                    f"(eigenvalue {x_sign:+d})",
                    True,
                ),
                CheckItem(
                    f"one-form relations span = 6-dim eigenspace "
                    f"(eigenvalue {-x_sign:+d})",
                    True,
                ),
                CheckItem("spans are complementary (joint rank 9)", True),
            ]
            return CheckReport.from_items("eigen", items)

    # neither convention works: report the as-printed failure in detail
    plus, minus = _eigen_dims(R)
    items = [
        CheckItem(
            f"eigenspace dimensions {{{plus}, {minus}}} = {{6, 3}}",
            {plus, minus} == {6, 3},
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
        plus, minus = _eigen_dims(M)
        sign, dim = (1, plus) if plus == 3 else (-1, minus)
        ok = not _spans_eigenspace(M, vecs, sign, dim)
        items.append(
            CheckItem(
                f"generic-q span differs from the 3-dim eigenspace [{convention}]",
                ok,
            )
        )
    return CheckReport.from_items("eigen-generic-q", items)
