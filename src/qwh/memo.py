"""One memo for the presentations and rewrite systems built from the
deformation matrix, shared by the quantum-group and calculus modules.

An entry is keyed on the artifact (its name plus every input that changes
it) and on the parameter bindings it was built at.  Symbolic entries are
kept for the life of the process.  Entries built at a rational point are
kept only until another point is asked for: a run at a point reuses its
systems across suites, while a sweep over many points holds one point's
systems at a time.  Cached objects are shared, so callers must not mutate
them.
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

