"""Exact work counts of symbolic passes and passes at a point, which the
host's speed cannot blur.

A symbolic pass runs the 18 suites and then the three generic-q variants,
as `perfbench/run.py --workload suites-symbolic` does; a pass at a point
runs the 18 suites at u=2, s=3; a derivative pass applies each of the three
derivatives to every coordinate word up to length 4 (363 queries), as
`perfbench/run.py --workload calculus-queries` does first.  Each row starts
from an empty memo, runs its passes, and counts the last one: sums that
enter sympy's field (`scalar._field_op`), substitutions into scalars
(`Scalar.substitute`), normal forms (`RewriteSystem.normal_form`) and redex
searches (`RewriteSystem.find_redex`).  The counts do not depend on the hash seed.
They are a record, not a bound: a change that moves them states each count,
old -> new, and why.  Print every row of the tree under test with

    PYTHONPATH=src python tests/test_work_counts.py
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from qwh import memo
from qwh import scalar as sc
from qwh.cli import _SUITES
from qwh.diffcalc import apply_derivative
from qwh.freealg import NCPoly
from qwh.presentations import builtin
from qwh.rewrite import RewriteSystem

POINT = {"u": Fraction(2), "s": Fraction(3)}


def _symbolic_pass():
    for runner, _ in _SUITES.values():
        runner(None, False)
    for runner, supports_gq in _SUITES.values():
        if supports_gq:
            runner(None, True)


def _point_pass():
    for runner, _ in _SUITES.values():
        runner(POINT, False)


def _derivative_pass():
    table = builtin("xspace").table
    for n in range(5):
        for word in itertools.product(range(len(table)), repeat=n):
            p = NCPoly.word(table, word)
            for i in (1, 2, 3):
                apply_derivative(i, p)


#: row -> (its passes, the counts of the last one)
ROWS = {
    "warm symbolic": (
        (_symbolic_pass, _symbolic_pass),
        {
            "scalar._field_op": 145,
            "Scalar.substitute": 149,
            "RewriteSystem.normal_form": 773,
            "RewriteSystem.find_redex": 3873,
        },
    ),
    "cold symbolic": (
        (_symbolic_pass,),
        {
            "scalar._field_op": 147,
            "Scalar.substitute": 149,
            "RewriteSystem.normal_form": 1493,
            "RewriteSystem.find_redex": 5721,
        },
    ),
    "first at u=2,s=3": (
        (_point_pass,),
        {
            "scalar._field_op": 75,
            "Scalar.substitute": 419,
            "RewriteSystem.normal_form": 1273,
            "RewriteSystem.find_redex": 5046,
        },
    ),
    "second at u=2,s=3": (
        (_point_pass, _point_pass),
        {
            "scalar._field_op": 75,
            "Scalar.substitute": 149,
            "RewriteSystem.normal_form": 589,
            "RewriteSystem.find_redex": 3241,
        },
    ),
    "warm derivatives": (
        (_derivative_pass, _derivative_pass),
        {
            "scalar._field_op": 226,
            "Scalar.substitute": 0,
            "RewriteSystem.normal_form": 363,
            "RewriteSystem.find_redex": 2761,
        },
    ),
}


def work_counts(mp, passes):
    """The counts of the last of `passes`, run in order from an empty memo."""
    counts = Counter()

    def counting(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        mp.setattr(owner, name, wrapper)

    mp.setattr(memo, "_symbolic", {})
    mp.setattr(memo, "_point", {})
    mp.setattr(memo, "_point_key", ())
    counting(sc, "_field_op", "scalar._field_op")
    counting(sc.Scalar, "substitute", "Scalar.substitute")
    counting(RewriteSystem, "normal_form", "RewriteSystem.normal_form")
    counting(RewriteSystem, "find_redex", "RewriteSystem.find_redex")
    for run in passes[:-1]:
        run()
    counts.clear()
    passes[-1]()
    return {key: counts[key] for key in ROWS["warm symbolic"][1]}


def test_warm_symbolic_pass_counts(monkeypatch):
    passes, expected = ROWS["warm symbolic"]
    assert work_counts(monkeypatch, passes) == expected


@pytest.mark.parametrize("row", [row for row in ROWS if row != "warm symbolic"])
def test_pass_counts(row, monkeypatch):
    passes, expected = ROWS[row]
    assert work_counts(monkeypatch, passes) == expected


if __name__ == "__main__":
    for row, (passes, _) in ROWS.items():
        with pytest.MonkeyPatch.context() as mp:
            print(f"{row}: {work_counts(mp, passes)}")
