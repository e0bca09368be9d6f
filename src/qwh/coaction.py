"""Left coaction of the quantum matrices on quantum spaces.

A MixedAlgebra is the tensor product of a space block (coordinates or
one-forms) with a group block (quantum-matrix entries); normal words carry
the group letters first.  Coaction images reduce block by block, each block
in its presentation's own rewrite system (`TensorAlgebra.normal_form`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .freealg import AlgebraMap, NCPoly, Word
from .linalg import quadratic_vectors, row_space
from .presentations import (
    Presentation,
    TensorAlgebra,
    builtin,
    transcribed_T_constraints,
)
from .report import CheckItem, CheckReport
from .rewrite import diamond_check
from .scalar import ONE, Scalar


class CoactionError(Exception):
    pass


class MixedAlgebra(TensorAlgebra):
    """The space block (first) tensored with the group block (second), with
    the coaction `coact`, the algebra map delta(x_i) = sum_j T_ij (x) x_j of
    each space generator, x_i being generator `self.vector[i]` (the space's
    `vector`, or table order).  Its images are not block-sorted
    (`normal_form` with free blocks sorts them)."""

    def __init__(self, group: Presentation, space: Presentation):
        if group.matrix is None:
            raise CoactionError(f"{group.name} carries no quantum-matrix structure")
        if len(space.table) != len(group.matrix):
            raise CoactionError(
                f"{space.name} has {len(space.table)} generators, not the"
                f" {len(group.matrix)} of {group.name}'s matrix"
            )
        super().__init__(space, group)
        self.space = space
        self.vector = space.vector or tuple(range(len(space.table)))
        images = [None] * len(space.table)
        for x, row in zip(self.vector, group.matrix):
            pairs = [(g, y) for y, g in zip(self.vector, row) if g is not None]
            words = {(self.second[g], self.first[y]): ONE for g, y in pairs}
            images[x] = NCPoly(self.table, words)
        self.coact = AlgebraMap(space.table, self.table, images)

    def coordinates(self, w: Word) -> Word:
        """A space word as the coordinate index of each letter."""
        return tuple(self.vector.index(g) for g in w)


# ---------------------------------------------------------------------------
# comodule checks
# ---------------------------------------------------------------------------

def comodule_residuals(
    space: Presentation, group: Presentation
) -> List[Tuple[NCPoly, NCPoly, MixedAlgebra]]:
    """(space relation, residual of its coaction image, mixed context): the
    image normal-ordered in both blocks, the one coaction image that the
    comodule check, the ansatz equations and the pin read."""
    mixed = MixedAlgebra(group, space)
    systems = space.rewrite_system(), group.rewrite_system()
    return [
        (rel, mixed.normal_form(mixed.coact(rel), *systems), mixed)
        for rel in space.relations
    ]


def comodule_check(
    space: Presentation,
    group: Presentation,
    suite: Optional[str] = None,
) -> CheckReport:
    """Every space relation must map to zero under the coaction, modulo the
    group relations, the space relations and the commutation of the two."""
    suite = suite or f"comodule({space.name},{group.name})"
    items = [
        CheckItem.all_zero(f"coaction preserves {rel.render()} = 0", [residual])
        for rel, residual, mixed in comodule_residuals(space, group)
    ]
    return CheckReport.from_items(suite, items)


def derive_group_constraints(space: Presentation, group: Presentation) -> List[NCPoly]:
    """Constraints on the (free) quantum-matrix entries forced by invariance
    of the space relations: coact each relation, express it in the basis
    {group word x normal space word}, and return the group coefficients,
    relation by relation with space words ascending.  The group block stays
    free: its relations are what the coefficients are compared against."""
    mixed = MixedAlgebra(group, space)
    system = space.rewrite_system()
    constraints = []
    for rel in space.relations:
        coeffs: Dict[Word, Dict[Word, Scalar]] = {}
        for w, c in mixed.normal_form(mixed.coact(rel), system).terms.items():
            sword, gword = mixed.split(w)
            coeffs.setdefault(sword, {})[gword] = c
        constraints.extend(
            NCPoly(group.table, coeffs[sw]) for sw in sorted(coeffs, key=mixed.coordinates)
        )
    return constraints


def constraint_span_check(bindings=None) -> CheckReport:
    """Derived coordinate-space constraints span exactly the transcribed
    invariance relations (mutual membership, generic q)."""
    group = builtin("TT7", bindings)
    derived = derive_group_constraints(builtin("xspace_generic_q", bindings), group)
    transcribed = transcribed_T_constraints(bindings)
    dv = quadratic_vectors(derived, group.table)
    tv = quadratic_vectors(transcribed, group.table)
    joint = row_space(dv + tv)
    items = [
        CheckItem("derived span contains transcribed relations", row_space(dv) == joint),
        CheckItem("transcribed span contains derived relations", row_space(tv) == joint),
    ]
    return CheckReport.from_items("constraints", items)


# ---------------------------------------------------------------------------
# the ansatz solver
# ---------------------------------------------------------------------------

#: elimination priority for the one-form ansatz unknowns
ANSATZ_UNKNOWNS = ("k", "lam12", "mu12", "c21", "lam", "mu")


@dataclass
class ConstraintSystem:
    """Solved form of the invariance conditions on an ansatz.

    ``solved`` maps unknown -> pinned Scalar value; anything that would not
    eliminate stays in ``residual``.  ``witnesses`` lists coefficients that
    reduced to a nonzero constant: a nonempty list means no choice of the
    unknowns makes the space a comodule.
    """

    ansatz: str
    solved: Dict[str, Scalar] = field(default_factory=dict)
    residual: List[Tuple[str, Scalar]] = field(default_factory=list)
    witnesses: List[str] = field(default_factory=list)

    @property
    def inconsistent(self) -> bool:
        return bool(self.witnesses)

    def render(self) -> str:
        lines = [f"ansatz {self.ansatz}:"]
        if self.inconsistent:
            lines.append("  inconsistent; no solution exists")
            for w in self.witnesses:
                lines.append(f"  witness: {w}")
            return "\n".join(lines)
        for name, value in self.solved.items():
            lines.append(f"  {name} = {value}")
        for label, value in self.residual:
            lines.append(f"  unresolved: {value} = 0   [{label}]")
        if len(lines) == 1:
            lines.append("  no constraints")
        return "\n".join(lines)


def _unknowns_in(x: Scalar) -> List[str]:
    used = x.params_used()
    return [name for name in ANSATZ_UNKNOWNS if name in used]


def ansatz_equations(
    ansatz: Presentation, group: Presentation
) -> List[Tuple[str, Scalar]]:
    """One scalar equation per word of the coaction images that
    `comodule_residuals` gives, each word split into its group and one-form
    parts and labelled with the degree of the group part.  Whatever survives
    must vanish identically.  Equations go by relation, then one-form word,
    then degree, then group word."""
    if group.degree is None:
        raise CoactionError(f"{group.name} carries no degree grading")
    keyed = []
    for i, (rel, residual, mixed) in enumerate(comodule_residuals(ansatz, group)):
        template = rel.render()
        for w, c in residual.terms.items():
            sword, gword = mixed.split(w)
            d = sum(group.degree[g] for g in gword)
            sname = "*".join(ansatz.table.name(g) for g in sword)
            wname = "*".join(group.table.name(g) for g in gword)
            label = f"coact({template}): coefficient of {wname} (x) {sname} at degree {d}"
            keyed.append(((i, mixed.coordinates(sword), d, gword), label, c))
    keyed.sort(key=lambda e: e[0])
    return [(label, c) for _, label, c in keyed]


def _solvable(
    pending: List[Tuple[str, Scalar, List[str]]]
) -> Optional[Tuple[str, Scalar]]:
    """(unknown, value) from the first pending equation that is linear in
    that unknown alone, unknowns taken in priority order ANSATZ_UNKNOWNS."""
    for target in ANSATZ_UNKNOWNS:
        for _, c, unknowns in pending:
            if unknowns == [target] and c.is_linear_in(target):
                const = c.substitute({target: 0})
                return target, -const / (c.substitute({target: 1}) - const)
    return None


def _eliminate(
    equations: List[Tuple[str, Scalar]]
) -> Tuple[Dict[str, Scalar], List[Tuple[str, Scalar]], List[str]]:
    """Deterministic elimination: repeatedly solve an equation that is
    linear in a single unknown and substitute the value into the pending
    equations that contain it, which leaves none containing it.  Each
    pending equation carries its unknowns, found again only in what a
    substitution leaves nonzero."""
    pending = [(label, c, _unknowns_in(c)) for label, c in equations if not c.is_zero()]
    solved: Dict[str, Scalar] = {}
    while found := _solvable(pending):
        target, value = found
        solved[target] = value
        substituted = []
        for label, c, unknowns in pending:
            if target in unknowns:
                c = c.substitute({target: value})
                if c.is_zero():
                    continue
                unknowns = _unknowns_in(c)
            substituted.append((label, c, unknowns))
        pending = substituted
    witnesses = [
        f"{label}: residual {c}" for label, c, unknowns in pending if not unknowns
    ]
    residual = [(label, c) for label, c, unknowns in pending if unknowns]
    return solved, residual, witnesses


def ansatz_solve(
    ansatz: Presentation, group: Optional[Presentation] = None
) -> ConstraintSystem:
    """Solve the invariance conditions on an ansatz of quadratic one-form
    relations with unknown coefficients: every coefficient of every coacted
    template, normal-ordered in both blocks, must vanish.  Both
    presentations are used as given (group defaults to the symbolic
    seven-generator group); pass them specialised to solve at a point."""
    if group is None:
        group = builtin("TT7")
    solved, residual, witnesses = _eliminate(ansatz_equations(ansatz, group))
    ordered = {n: solved[n] for n in ANSATZ_UNKNOWNS if n in solved}
    return ConstraintSystem(
        ansatz=ansatz.name,
        solved=ordered,
        residual=residual,
        witnesses=witnesses,
    )


def pin_free_coefficients(bindings=None) -> Tuple[Dict[str, Scalar], CheckReport]:
    """Re-derive the one-form structure constants independently: substitute
    the forced zeros into the ansatz, pin the rest with `ansatz_solve`, and
    confirm the pinned system is confluent and spans the built-in one-form
    relations."""
    group = builtin("TT7", bindings)
    base = builtin("ansatz_xi", bindings).substitute({"k": 0, "lam12": 0, "mu12": 0})
    system = ansatz_solve(base, group)
    pins = system.solved
    items = [
        CheckItem(
            "comodule residual equations eliminate completely",
            not system.residual and not system.witnesses,
        )
    ]
    for name in ("c21", "lam", "mu"):
        items.append(
            CheckItem(
                f"pinned {name} = {pins[name]}" if name in pins else f"{name} unpinned",
                name in pins,
            )
        )
    if all(i.passed for i in items):
        pinned = base.substitute(pins)
        xis = builtin("xispace", bindings)
        to_xis = pinned.table.gid_map(xis.table)
        pv = quadratic_vectors(
            [p.relabel(xis.table, to_xis) for p in pinned.relations], xis.table
        )
        xv = quadratic_vectors(xis.relations, xis.table)
        items.append(
            CheckItem(
                "pinned relation span equals the built-in one-form relations",
                row_space(pv) == row_space(xv),
            )
        )
        joint = diamond_check(pinned.rewrite_system(), suite="xi-diamond")
        items.append(CheckItem("pinned one-form system is confluent", joint.ok))
        mixed_rep = comodule_check(pinned, group)
        items.append(CheckItem("pinned ansatz is a comodule", mixed_rep.ok))
    return pins, CheckReport.from_items("ansatz-pin", items)


def ansatz_check(bindings=None) -> CheckReport:
    """Suite wrapper for the ansatz analysis: the general one-form ansatz
    forces its three obstruction coefficients to zero, the variant keeping
    the square of the third one-form independent is impossible, and the
    remaining structure constants pin to the built-in one-form
    presentation."""
    group = builtin("TT7", bindings)
    system = ansatz_solve(builtin("ansatz_xi", bindings), group)
    zero_names = ("k", "lam12", "mu12")
    items = [
        CheckItem(
            f"general ansatz solves with {name} = 0",
            name in system.solved and system.solved[name].is_zero(),
        )
        for name in zero_names
    ]
    items.append(
        CheckItem("general ansatz is consistent", not system.inconsistent)
    )
    variant = ansatz_solve(builtin("ansatz_xi3sq_variant", bindings), group)
    witness = next(
        (w for w in variant.witnesses if "xi3*xi3" in w and "degree 0" in w),
        None,
    )
    items.append(
        CheckItem(
            "variant with an independent square of the third one-form is"
            " impossible",
            variant.inconsistent,
            residual=witness,
        )
    )
    _, pin_report = pin_free_coefficients(bindings=bindings)
    items.extend(pin_report.items)
    return CheckReport.from_items("ansatz", items)
