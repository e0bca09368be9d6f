"""Built-in algebra presentations, the presentation DSL, and the degree map."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import scalar as sc
from .exprparse import NAME, ParseError, SourceSpan, parse_poly_text
from .freealg import AlgebraError, GenTable, NCPoly, Word, deglex_key
from .memo import specialised
from .rewrite import RewriteSystem, build_rules


class PresentationError(Exception):
    pass


@dataclass
class Presentation:
    name: str
    table: GenTable
    relations: List[NCPoly]
    #: the generator ids in coordinate order, as a space on which a matrix
    #: coacts (None = table order)
    vector: Optional[Tuple[int, ...]] = None
    degree: Optional[Dict[int, int]] = None
    # 3x3 grid of generator ids (None = entry forced to zero) for quantum matrices
    matrix: Optional[Tuple[Tuple[Optional[int], ...], ...]] = None
    _system: Optional[RewriteSystem] = field(
        default=None, init=False, compare=False, repr=False
    )
    #: the monomial order's sort key on words, the same for every presentation
    order = staticmethod(deglex_key)

    def __post_init__(self):
        if self.degree is not None:
            for r in self.relations:
                check_homogeneous(r, self.degree, self.name)

    def rewrite_system(self) -> RewriteSystem:
        """`build_rules` of the relations, built on the first call and kept
        for as long as this presentation lives; callers must not mutate it."""
        if self._system is None:
            self._system = build_rules(self.relations, self.table)
        return self._system

    def substitute(self, bindings) -> "Presentation":
        return Presentation(
            name=self.name,
            table=self.table,
            relations=[r.substitute_scalars(bindings) for r in self.relations],
            vector=self.vector,
            degree=self.degree,
            matrix=self.matrix,
        )


class TensorAlgebra:
    """The tensor product of two presented algebras: one table holding the
    first block's generators, then the second's, with every letter of one
    block commuting with every letter of the other.

    Each block keeps its own table order and the first block ranks above
    the second, so a normal word reads its second-block letters first, and
    the normal form of tensor(a, b) is b's word followed by a's.  No joint
    rewrite system is built: `normal_form` reduces each block in its own.
    """

    def __init__(self, first: Presentation, second: Presentation, names=None):
        n = len(first.table)
        self.table = GenTable(names or first.table.names + second.table.names)
        #: gid maps from each block's table into the joint one
        self.first = {g: g for g in range(n)}
        self.second = {g: n + g for g in range(len(second.table))}

    def tensor(self, a: NCPoly, b: NCPoly) -> NCPoly:
        """a (x) b, for a over the first block and b over the second."""
        return a.relabel(self.table, self.first) * b.relabel(self.table, self.second)

    def split(self, w: Word) -> Tuple[Word, Word]:
        """A joint word as (its first-block letters, its second-block
        letters), each over its own block's table."""
        n = len(self.first)
        return tuple(g for g in w if g < n), tuple(g - n for g in w if g >= n)

    def normal_form(self, p: NCPoly, first=None, second=None) -> NCPoly:
        """p modulo each block's RewriteSystem (None for a free block) and
        the commutation of the blocks.  Each word splits into its blocks'
        parts, each part reduces in its own block, and each pair of normal
        parts rejoins as second-block word + first-block word.  With both
        systems confluent this is the normal form in the joint system
        (Bergman's diamond lemma), which is never built.  Part normal forms
        are kept in each system's `word_forms` for as long as it lives."""
        if p.table != self.table:
            raise AlgebraError("polynomial over a different generator table")
        n = len(self.first)

        def reduce(system, w):
            if system is None:
                return {w: sc.ONE}
            forms = system.word_forms
            if w not in forms:
                forms[w] = system.normal_form(NCPoly.word(system.table, w)).terms
            return forms[w]

        out = {}
        for w, c in p.terms.items():
            a, b = self.split(w)
            tails = reduce(first, a)
            for wb, cb in reduce(second, b).items():
                head, cb = tuple(n + g for g in wb), c * cb
                for wa, ca in tails.items():
                    out[head + wa] = out.get(head + wa, sc.ZERO) + cb * ca
        return NCPoly(self.table, out)


def check_homogeneous(p: NCPoly, degree: Dict[int, int], where="relation"):
    degs = sorted({sum(degree[g] for g in w) for w in p.terms})
    if len(degs) > 1:
        raise PresentationError(
            f"{where}: relation {p} is not degree-homogeneous (degrees {degs})"
        )


# ---------------------------------------------------------------------------
# built-in presentations
# ---------------------------------------------------------------------------

X_GENS = ["x1", "x2", "x3"]
XI_GENS = ["xi1", "xi2", "xi3"]
T_GENS = ["T11", "T12", "T13", "T21", "T22", "T23", "T33"]
t_GENS = ["t11", "t12", "t13", "t21", "t22", "t23", "t31", "t32", "t33"]

#: the grading of the coordinates x1, x2, x3; the coaction keeps it when
#: the matrix entry in row i, column j has degree X_DEGREES[i] - X_DEGREES[j]
X_DEGREES = (1, -1, 0)


def _pres(name, gens, rel_texts, matrix=None, precedence=None):
    """A built-in presentation; `precedence`, a permutation of `gens`, lists
    the table in monomial order, while `gens` stays the coordinate order."""
    vector = None
    if precedence is not None:
        if sorted(precedence) != sorted(gens):
            raise AlgebraError("precedence list must mention every generator once")
        vector = tuple(precedence.index(n) for n in gens)
        gens = precedence
    table = GenTable(gens)
    rels = [NCPoly.parse(table, t) for t in rel_texts]
    degree = mat = None
    if matrix is not None:
        mat = tuple(
            tuple(None if n is None else table.gen(n) for n in row) for row in matrix
        )
        grid = {
            g: X_DEGREES[i] - X_DEGREES[j]
            for i, row in enumerate(mat)
            for j, g in enumerate(row)
        }
        # the determinant inverse, off the grid, has degree 0
        degree = {g: grid.get(g, 0) for g in range(len(table))}
    return Presentation(
        name=name,
        table=table,
        relations=rels,
        vector=vector,
        degree=degree,
        matrix=mat,
    )


_T7_MATRIX = [
    ["T11", "T12", "T13"],
    ["T21", "T22", "T23"],
    [None, None, "T33"],
]

_TT7_RELS = [
    "T11*T12 - u^(-2)*T12*T11",
    "T11*T13 - u^(-1)*T13*T11",
    "T11*T22 - T22*T11",
    "T11*T21 - u^2*T21*T11",
    "T11*T23 - u*T23*T11",
    "T11*T33 - T33*T11",
    "T12*T13 - u*T13*T12",
    "T12*T22 - u^2*T22*T12",
    "T12*T21 - u^4*T21*T12",
    "T12*T23 - u^3*T23*T12",
    "T12*T33 - u^2*T33*T12",
    "T13*T22 - u*T22*T13",
    "T13*T21 - u^3*T21*T13",
    "T13*T33 - u*T33*T13",
    "T22*T21 - u^2*T21*T22",
    "T22*T23 - u*T23*T22",
    "T22*T33 - T33*T22",
    "T21*T23 - u^(-1)*T23*T21",
    "T21*T33 - u^(-2)*T33*T21",
    "T23*T33 - u^(-1)*T33*T23",
    "T13*T23 - u^2*T23*T13 + s*(T11*T22 - u^2*T21*T12 - T33*T33)",
]

_TDINV_RELS = [
    "T11*Dinv - Dinv*T11",
    "T12*Dinv - u^(-6)*Dinv*T12",
    "T13*Dinv - u^(-3)*Dinv*T13",
    "T22*Dinv - Dinv*T22",
    "T21*Dinv - u^6*Dinv*T21",
    "T23*Dinv - u^3*Dinv*T23",
    "T33*Dinv - Dinv*T33",
]

# commutation of the nine-generator determinant inverse; the t21 and t23
# factors are the derived ones (they also restrict correctly to the
# seven-generator table under the subalgebra embedding)
_tdinv_RELS = [
    "t11*dinv - dinv*t11",
    "t12*dinv - u^(-6)*dinv*t12",
    "t13*dinv - u^(-3)*dinv*t13",
    "t22*dinv - dinv*t22",
    "t21*dinv - u^6*dinv*t21",
    "t23*dinv - u^3*dinv*t23",
    "t31*dinv - u^3*dinv*t31",
    "t32*dinv - u^(-3)*dinv*t32",
    "t33*dinv - dinv*t33",
]

_ANSATZ_RELS = [
    "xi1*xi1",
    "xi2*xi2",
    "xi3*xi3 - k*xi1*xi2",
    "xi2*xi1 - c21*xi1*xi2",
    "xi3*xi1 - lam*xi1*xi3 - lam12*xi1*xi2",
    "xi3*xi2 - mu*xi2*xi3 - mu12*xi1*xi2",
]

# variant with xi1*xi2 = 0 and (xi3)^2 kept independent; the degree
# analysis pares the general coefficients down to this shape
_ANSATZ_VARIANT_RELS = [
    "xi1*xi1",
    "xi2*xi2",
    "xi1*xi2",
    "xi2*xi1",
    "xi3*xi1 - lam*xi1*xi3",
    "xi3*xi2 - mu*xi2*xi3",
]

_BUILTINS = {
    "classical_R": dict(
        gens=X_GENS,
        rel_texts=[
            "x1*x2 - x2*x1 - s*x3*x3",
            "x1*x3 - x3*x1",
            "x2*x3 - x3*x2",
        ],
    ),
    "xspace": dict(
        gens=X_GENS,
        rel_texts=[
            "x1*x2 - u^2*x2*x1 - s*x3*x3",
            "x1*x3 - u*x3*x1",
            "x2*x3 - u^(-1)*x3*x2",
        ],
    ),
    "xispace": dict(
        gens=XI_GENS,
        rel_texts=[
            "xi1*xi1",
            "xi2*xi2",
            "xi3*xi3",
            "xi2*xi1 + u^(-2)*xi1*xi2",
            "xi1*xi3 + u*xi3*xi1",
            "xi2*xi3 + u^(-1)*xi3*xi2",
        ],
    ),
    "TT7": dict(
        gens=T_GENS,
        rel_texts=_TT7_RELS,
        matrix=_T7_MATRIX,
    ),
    "TDinv": dict(
        gens=T_GENS + ["Dinv"],
        rel_texts=_TDINV_RELS,
        matrix=_T7_MATRIX,
    ),
    "tdinv": dict(
        gens=t_GENS + ["dinv"],
        rel_texts=_tdinv_RELS,
        matrix=[t_GENS[0:3], t_GENS[3:6], t_GENS[6:9]],
    ),
    "xspace_generic_q": dict(
        gens=X_GENS,
        rel_texts=[
            "x1*x2 - q*x2*x1 - s*x3*x3",
            "x1*x3 - u*x3*x1",
            "x2*x3 - u^(-1)*x3*x2",
        ],
    ),
    "ansatz_xi": dict(
        gens=XI_GENS,
        rel_texts=_ANSATZ_RELS,
        precedence=["xi3", "xi2", "xi1"],
    ),
    "ansatz_xi3sq_variant": dict(
        gens=XI_GENS,
        rel_texts=_ANSATZ_VARIANT_RELS,
        precedence=["xi3", "xi2", "xi1"],
    ),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, bindings=None) -> Presentation:
    """The built-in algebra presentations, loaded from fixed literal data
    and, with bindings, specialised at that point.  Memoised through
    `qwh.memo`, so callers must not mutate the result.

    `xspace` carries the derived constraint q=u^2 baked in; use
    `xspace_generic_q` to keep q independent and exhibit the obstruction.
    """
    if name not in _BUILTINS:
        raise PresentationError(f"unknown builtin {name!r}; valid names: {BUILTIN_NAMES}")
    return specialised(
        ("builtin", name),
        bindings,
        lambda: _pres(name, **_BUILTINS[name]),
        Presentation.substitute,
    )


# quadratic constraints on the quantum-matrix entries forced by invariance
# of the coordinate space, with q kept independent (the grid of eight swap
# relations plus the four longer ones, the last inhomogeneous in s)
_T_CONSTRAINT_TEXTS = [
    "T11*T33 - T33*T11",
    "T12*T33 - u^2*T33*T12",
    "T13*T33 - u*T33*T13",
    "T21*T33 - u^(-2)*T33*T21",
    "T22*T33 - T33*T22",
    "T23*T33 - u^(-1)*T33*T23",
    "T11*T21 - q*T21*T11",
    "T12*T22 - q*T22*T12",
    "u*T11*T23 - q*T23*T11 - q*u*T21*T13 + T13*T21",
    "T12*T23 - q*u*T23*T12 - q*T22*T13 + u*T13*T22",
    "T11*T22 - T22*T11 - q*T21*T12 + q^(-1)*T12*T21",
    "s*(T11*T22 - q*T21*T12) - s*T33*T33 + T13*T23 - q*T23*T13",
]


def transcribed_T_constraints(bindings=None) -> List[NCPoly]:
    """The twelve quantum-matrix constraints derived from coordinate-space
    invariance, transcribed verbatim (generic q) over the seven-generator
    table, and specialised at bindings if given.  Memoised like `builtin`."""
    return specialised(
        "T-constraints",
        bindings,
        lambda: [NCPoly.parse(builtin("TT7").table, t) for t in _T_CONSTRAINT_TEXTS],
        lambda rels, b: [r.substitute_scalars(b) for r in rels],
    )


# ---------------------------------------------------------------------------
# presentation DSL
# ---------------------------------------------------------------------------

def parse_presentation(text: str, file: str = "<presentation>") -> Presentation:
    """Parse the presentation DSL.

    Lines: `algebra NAME`, `params u s q`, `generators a > b > c`,
    `degree GEN = INT`, `rel EXPR = EXPR` (or `rel EXPR`), `#` comments.
    The first three occur once each, a generator has one degree line, and
    no generator is named like a declared parameter.
    """
    name = None
    params: List[str] = []
    gens: List[str] = []
    degree_lines: List[Tuple[str, int, SourceSpan]] = []
    rel_lines: List[Tuple[str, int, int]] = []
    once = set()  # the once-only directives seen

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        span = SourceSpan(file, lineno, indent + 1)
        head, _, rest = stripped.partition(" ")
        rest = rest.strip()
        if head in once:
            raise ParseError(f"second `{head}` line", span)
        if head in ("algebra", "params", "generators"):
            once.add(head)
        if head == "algebra":
            if not rest:
                raise ParseError("missing algebra name", span)
            name = rest
        elif head == "params":
            params = rest.split()
            for p in params:
                if p not in sc.PARAM_NAMES:
                    raise ParseError(f"unknown parameter {p!r}", span)
        elif head == "generators":
            gens = [g.strip() for g in rest.split(">")]
            if any(not g for g in gens):
                raise ParseError("malformed generator precedence list", span)
            bad = next((g for g in gens if not NAME.fullmatch(g)), None)
            if bad is not None:
                raise ParseError(f"generator {bad!r} is not a name ({NAME.pattern})", span)
            dup = next((g for i, g in enumerate(gens) if g in gens[:i]), None)
            if dup is not None:
                raise ParseError(f"duplicate generator {dup!r}", span)
            gens_span = span
        elif head == "degree":
            gen_name, _, val = rest.partition("=")
            gen_name, val = gen_name.strip(), val.strip()
            try:
                d = int(val)
            except ValueError:
                raise ParseError(f"bad degree value {val!r}", span) from None
            if any(gen_name == g for g, _, _ in degree_lines):
                raise ParseError(f"second degree line for {gen_name!r}", span)
            degree_lines.append((gen_name, d, span))
        elif head == "rel":
            rel_lines.append((rest, lineno, len(line) - len(rest)))
        else:
            raise ParseError(f"unknown directive {head!r}", span)

    if name is None:
        raise ParseError("missing `algebra` line", SourceSpan(file, 1, 1))
    if not gens:
        raise ParseError("missing `generators` line", SourceSpan(file, 1, 1))
    # an expression reads a name as a generator first, so the parameter
    # would be out of reach
    clash = next((g for g in gens if g in params), None)
    if clash is not None:
        raise ParseError(f"generator {clash!r} is a declared parameter", gens_span)

    table = GenTable(gens)
    degree = None
    if degree_lines:
        degree = {g: 0 for g in range(len(table))}
        for gen_name, d, span in degree_lines:
            gid = table.lookup(gen_name)
            if gid is None:
                raise ParseError(f"unknown generator {gen_name!r}", span)
            degree[gid] = d

    relations = []
    for rel_text, lineno, col0 in rel_lines:
        # col0 is rel_text's 0-based offset; the tokenizer counts the spaces it skips
        lhs_text, eq, rhs_text = rel_text.partition("=")
        lhs = parse_poly_text(lhs_text, table, file, lineno, col0)
        if eq:
            rhs = parse_poly_text(
                rhs_text, table, file, lineno, col0 + len(lhs_text) + 1
            )
            rel = lhs - rhs
        else:
            rel = lhs
        span = SourceSpan(file, lineno, col0 + 1)
        extra = set().union(*(c.params_used() for c in rel.terms.values())) - set(params)
        if extra:
            raise ParseError(f"relation uses undeclared parameters {sorted(extra)}", span)
        if degree is not None:
            try:
                check_homogeneous(rel, degree, name)
            except PresentationError as e:
                raise ParseError(str(e), span) from None
        relations.append(rel)

    return Presentation(
        name=name,
        table=table,
        relations=relations,
        degree=degree,
    )
