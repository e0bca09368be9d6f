"""Exact work counts of a warm symbolic pass, which the host's speed cannot
blur.

A pass runs the 18 suites and then the three generic-q variants, as
`perfbench/run.py --workload suites-symbolic` does.  The memo starts empty,
a first pass fills it, and the second pass is counted: sums that enter
sympy's field (`scalar._field_op`), substitutions into scalars
(`Scalar.substitute`), normal forms (`RewriteSystem.normal_form`) and redex
searches (`RewriteSystem.find_redex`).  The counts do not depend on the
hash seed.  They are a record, not a bound: a change that moves them states each count,
old -> new, and why.  Print the counts of the tree under test with

    PYTHONPATH=src python tests/test_work_counts.py
"""

from collections import Counter

import pytest

from qwh import memo
from qwh import scalar as sc
from qwh.cli import _SUITES
from qwh.rewrite import RewriteSystem

WARM_SYMBOLIC_COUNTS = {
    "scalar._field_op": 152,
    "Scalar.substitute": 149,
    "RewriteSystem.normal_form": 802,
    "RewriteSystem.find_redex": 3980,
}


def _pass():
    for runner, _ in _SUITES.values():
        runner(None, False)
    for runner, supports_gq in _SUITES.values():
        if supports_gq:
            runner(None, True)


def warm_symbolic_counts(mp):
    """The counts of the second of two symbolic passes from an empty memo."""
    counts = Counter()

    def counting(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[key] += 1
            return real(*args)

        mp.setattr(owner, name, wrapper)

    mp.setattr(memo, "_symbolic", {})
    mp.setattr(memo, "_point", {})
    mp.setattr(memo, "_point_key", ())
    counting(sc, "_field_op", "scalar._field_op")
    counting(sc.Scalar, "substitute", "Scalar.substitute")
    counting(RewriteSystem, "normal_form", "RewriteSystem.normal_form")
    counting(RewriteSystem, "find_redex", "RewriteSystem.find_redex")
    _pass()
    counts.clear()
    _pass()
    return dict(counts)


def test_warm_symbolic_pass_counts(monkeypatch):
    assert warm_symbolic_counts(monkeypatch) == WARM_SYMBOLIC_COUNTS


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        print(warm_symbolic_counts(mp))
