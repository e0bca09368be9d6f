"""One memo for the built-in presentations, the deformation matrix and the
presentations and rewrite systems built from them, shared by every module
that reads them.

An entry is keyed on the artifact (its name plus every input that changes
it) and on the parameter bindings it was built at.  Symbolic entries are
kept for the life of the process.  Entries built at a rational point are
kept only until another point is asked for: a run at a point reuses its
systems across suites, while a sweep over many points holds one point's
systems at a time.  A presentation keeps the rewrite system built from it
and a system the part-word normal forms reduced in it, so they live as long
as the entry that holds them.  Cached objects are shared, so callers must
not mutate them.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Tuple, TypeVar

T = TypeVar("T")

_symbolic: Dict[Hashable, object] = {}
_point: Dict[Hashable, object] = {}
_point_key: Tuple = ()


def bindings_key(bindings) -> Tuple:
    """The bindings as sorted (name, value) pairs.  Equal rationals hash
    and compare equal whatever their type, so {"u": 2} and
    {"u": Fraction(2)} give the same key."""
    return tuple(sorted(bindings.items())) if bindings else ()


def memoised(key: Hashable, bindings, make: Callable[[], T]) -> T:
    """The artifact ``key`` at ``bindings``, built by ``make()`` on a miss."""
    global _point_key
    if not bindings:
        hit = _symbolic.get(key)
        if hit is None:
            hit = _symbolic[key] = make()
        return hit
    point = bindings_key(bindings)
    if point != _point_key:
        _point.clear()
        _point_key = point
    hit = _point.get(key)
    if hit is None:
        hit = _point[key] = make()
    return hit


def specialised(
    key: Hashable, bindings, make: Callable[[], T], substitute: Callable[[T, object], T]
) -> T:
    """The artifact ``key`` built symbolically by ``make()`` and, with
    bindings, specialised from that symbolic build by
    ``substitute(artifact, bindings)``; both are memoised."""
    symbolic = memoised(key, None, make)
    if not bindings:
        return symbolic
    return memoised(key, bindings, lambda: substitute(symbolic, bindings))
