"""The shared memo of built-ins, presentations and rewrite systems: one
entry per artifact and point, the most recent point only, equal to a fresh
build, and never mutated by the suites that share it."""

import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from qwh import memo, quantumgroup, rewrite
from qwh.cli import _SUITES
from qwh.diffcalc import wz_relations, wz_system
from qwh.freealg import AlgebraMap, NCPoly
from qwh.linalg import Matrix, rhat_builtin
from qwh.memo import bindings_key, memoised
from qwh.presentations import (
    BUILTIN_NAMES,
    _BUILTINS,
    _pres,
    builtin,
    transcribed_T_constraints,
)
from qwh.quantumgroup import (
    HopfData,
    adjugate,
    determinant,
    extended_system,
    group_presentation,
    group_system,
    hopf_data,
    rtt7_span_check,
    rtt_relations,
)
from qwh.rewrite import build_rules, complete
from qwh.scalar import Scalar

POINT = {"u": 2, "s": 3}


def _artifacts(bindings):
    return {
        "rtt9": group_presentation("H10", bindings),
        "rtt7": memoised("rtt7", bindings, lambda: rtt_relations(ngen=7, bindings=bindings)),
        "wz": wz_system(bindings=bindings),
        "wz-generic-q": wz_system(generic_q=True, bindings=bindings),
        "system-H8": group_system("H8", bindings),
        "system-H10": group_system("H10", bindings),
        "extended-H8": extended_system("H8", bindings),
        "extended-H10": extended_system("H10", bindings),
        "hopf-H8": hopf_data("H8", bindings),
        "hopf-H10": hopf_data("H10", bindings),
        "rhat": rhat_builtin(bindings),
        "T-constraints": transcribed_T_constraints(bindings),
        **{f"builtin-{name}": builtin(name, bindings) for name in BUILTIN_NAMES},
        **{f"det-{w}": determinant(w, bindings) for w in ("H8", "H10")},
        **{f"adjugate-{w}": adjugate(w, bindings) for w in ("H8", "H10")},
    }


def test_equal_rationals_give_equal_keys():
    assert bindings_key({"u": 2, "s": 3}) == bindings_key(
        {"s": Fraction(3), "u": Fraction(4, 2)}
    )
    assert bindings_key(None) == bindings_key({}) == ()
    assert bindings_key({"u": 2}) != bindings_key({"u": 3})


def test_same_point_shares_and_a_new_point_evicts():
    first = _artifacts(dict(POINT))
    again = _artifacts({"s": Fraction(3), "u": Fraction(2)})
    assert all(again[k] is first[k] for k in first)

    # lists and slotted polynomials take no weak reference; the rest stand
    # for them, since one dict holds every entry of a point
    refs = {k: weakref.ref(v) for k, v in first.items() if type(v).__weakrefoffset__}
    assert {"rtt9", "wz", "rhat", "builtin-TT7", "adjugate-H10", "hopf-H10"} <= set(refs)
    other = _artifacts({"u": 3, "s": 3})
    assert all(other[k] is not first[k] for k in first)
    del first, again
    gc.collect()
    assert all(ref() is None for ref in refs.values()), "old point still held"

    # the symbolic entries survive any number of points
    assert wz_system() is wz_system()
    assert group_system("H10") is group_system(which="H10", bindings={})


def _rules(system):
    return [(r.lhs, r.rhs) for r in system.rules]


@pytest.mark.parametrize("bindings", [None, POINT], ids=["symbolic", "u=2,s=3"])
def test_memoised_systems_match_fresh_builds(bindings):
    def at(pres):
        return pres.substitute(bindings) if bindings else pres

    wz = wz_relations(bindings=bindings)
    assert _rules(wz_system(bindings=bindings)) == _rules(
        build_rules(wz.relations, wz.table)
    )

    rtt7_span_check(bindings)
    rtt7 = memoised("rtt7", bindings, None)  # the entry the check memoised
    assert rtt7.relations == rtt_relations(ngen=7, bindings=bindings).relations

    rtt9 = rtt_relations(ngen=9, bindings=bindings)
    assert group_presentation("H10", bindings).relations == rtt9.relations
    assert _rules(group_system("H10", bindings)) == _rules(
        complete(rtt9.rewrite_system(), max_word_len=3)
    )

    for which, pres in (("H8", at(builtin("TT7"))), ("H10", rtt9)):
        ext = at(builtin("TDinv" if which == "H8" else "tdinv"))
        to_ext = pres.table.gid_map(ext.table)
        lifted = [r.relabel(ext.table, to_ext) for r in pres.relations]
        fresh = build_rules(lifted + ext.relations, ext.table)
        assert _rules(extended_system(which, bindings)) == _rules(fresh)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_at_a_point_match_fresh_substitution(name):
    fresh = _pres(name, **_BUILTINS[name])
    assert builtin(name).relations == fresh.relations
    at_point = builtin(name, POINT)
    assert at_point.relations == fresh.substitute(POINT).relations
    assert at_point.table == fresh.table and at_point.vector == fresh.vector
    assert builtin(name, {"s": Fraction(3), "u": Fraction(2)}) is at_point
    assert builtin(name) is builtin(name, {})


def _snapshot(obj):
    if isinstance(obj, NCPoly):
        return dict(obj.terms)
    if isinstance(obj, list):
        return [_snapshot(x) for x in obj]
    if isinstance(obj, Matrix):
        return [[_snapshot(e) for e in row] for row in obj.entries]
    if isinstance(obj, AlgebraMap):
        return _snapshot(obj.images)
    if isinstance(obj, HopfData):  # its system is listed apart
        return _snapshot([obj.ext.relations, obj.coproduct, obj.counit, obj.antipode])
    if hasattr(obj, "relations"):  # a Presentation
        return _snapshot(obj.relations)
    if hasattr(obj, "rules"):  # a RewriteSystem
        return [(r.lhs, dict(r.rhs.terms)) for r in obj.rules]
    # anything else would be compared with itself, so no mutation could show
    assert isinstance(obj, Scalar), f"no snapshot of a {type(obj).__name__}"
    return obj


def _cached_objects():
    return {
        (point, name): obj
        for point, bindings in (("symbolic", None), ("u=2,s=3", POINT))
        for name, obj in _artifacts(bindings).items()
    }


def test_suites_leave_cached_objects_unchanged():
    cached = _cached_objects()
    before = {k: _snapshot(v) for k, v in cached.items()}

    for bindings in (None, dict(POINT)):
        for runner, _ in _SUITES.values():
            assert runner(bindings, False).status == "PASS"

    after = _cached_objects()
    assert all(after[k] is cached[k] for k in cached)
    assert {k: _snapshot(v) for k, v in cached.items()} == before


def test_a_pass_at_a_point_builds_each_system_once(monkeypatch):
    """One pass of the 18 suites at a fresh point orients each relation
    list once: presentations keep their systems, and the memo shares one
    presentation per point."""
    point = {"u": Fraction(7, 3), "s": Fraction(2, 5)}
    builtin("TT7", POINT)  # any other point evicts this one's entries
    built = Counter()
    real = rewrite.build_rules

    def counting(relations, table):
        built[tuple(table.names), tuple(map(str, relations))] += 1
        return real(relations, table)

    for module in [m for name, m in sys.modules.items() if name.startswith("qwh")]:
        if getattr(module, "build_rules", None) is real:
            monkeypatch.setattr(module, "build_rules", counting)
    for runner, _ in _SUITES.values():
        assert runner(point, False).status == "PASS"
    t7 = tuple(builtin("TT7").table.names)
    assert sum(n for (names, _), n in built.items() if names == t7) == 1
    assert set(built.values()) == {1}


def _run_every_suite(bindings):
    for runner, has_generic_q in _SUITES.values():
        runner(bindings, False)
        if has_generic_q:
            runner(bindings, True)


def test_the_memo_holds_exactly_the_artifacts_listed_here(monkeypatch):
    """Every key the suites memoise is one `_artifacts` names, so the
    sharing, eviction and immutability tests above cover each of them.
    `_artifacts` lists every built-in, and only `classical_R` is read by
    no suite (`qwh normalize` reads it)."""

    def fresh_memo():
        monkeypatch.setattr(memo, "_symbolic", {})
        monkeypatch.setattr(memo, "_point", {})
        monkeypatch.setattr(memo, "_point_key", ())

    fresh_memo()
    for bindings in (None, dict(POINT)):
        _run_every_suite(bindings)
    used = set(memo._symbolic), set(memo._point)
    fresh_memo()
    for bindings in (None, dict(POINT)):
        _artifacts(bindings)
    unused = {("builtin", "classical_R")}
    assert (set(memo._symbolic) - unused, set(memo._point) - unused) == used


def test_a_pass_at_a_point_builds_the_hopf_data_once_per_algebra(monkeypatch):
    point = {"u": Fraction(7, 3), "s": Fraction(2, 5)}
    builtin("TT7", POINT)  # any other point evicts this one's entries
    built = []
    real = quantumgroup.TensorAlgebra

    def counting(*args, **kwargs):
        built.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(quantumgroup, "TensorAlgebra", counting)
    for runner, _ in _SUITES.values():
        assert runner(point, False).status == "PASS"
    assert sorted(built) == ["TDinv", "tdinv"]
