"""Per-layer tracing of qwh from outside the package.

The tracer replaces public functions and methods of the loaded ``qwh.*``
modules with timing wrappers and puts the originals back on ``uninstall``.
A function is replaced under every name that binds that same object in any
``qwh.*`` module, because ``cli`` and ``diffcalc`` import names with
``from ... import``; a method is replaced on its class.  The private
``_CACHE`` dicts are never touched.

Three kinds of boundary:

* ``SPAN``: each call is recorded as a span (id, name, start, end, parent
  span, op id).  Used for coarse calls (a few thousand per pass at most).
* ``AGG``: hot calls (scalar arithmetic, NCPoly arithmetic, normal forms).
  They are timed like spans, but instead of one span per call the tracer
  keeps one aggregate (calls, inclusive s, self s) per name and enclosing
  span.
* ``COUNT``: only the number of calls is kept; the time stays with the
  caller.

Self time is a call's duration minus the time its timed children cover.
The program is single-threaded, so children never overlap and the covered
time is the sum of their durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

SPAN, AGG, COUNT = "span", "agg", "count"

_SCALAR_OPS = tuple(
    f"Scalar.{m}"
    for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__", "__neg__",
    )
)
_NCPOLY_OPS = tuple(
    f"NCPoly.{m}"
    for m in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale",
              "substitute_scalars", "map_words")
)


def _sorted_key(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _sorted_key(v)) for k, v in value.items()))
    return value


def _call_key(fn):
    """Key of a call: its bound arguments with defaults applied and any
    bindings dict sorted, so equal requests give equal keys."""
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple((k, _sorted_key(v)) for k, v in bound.arguments.items())

    return key


def _count_overlaps(tracer, result):
    tracer.counts["rewrite.overlaps.examined"] += len(result)


def _count_rules(tracer, result):
    system = getattr(result, "system", result)  # CompletionFailure carries one
    tracer.counts["rewrite.rules_after_completion"] += len(system.rules)


# (boundary name, module, attributes, kind, options)
BOUNDARIES = (
    ("scalar", "qwh.scalar", _SCALAR_OPS, AGG, {}),
    ("scalar.cancel", "sympy.polys.rings", ("PolyElement.cancel",), AGG, {}),
    ("scalar.substitute", "qwh.scalar", ("Scalar.substitute",), AGG, {}),
    ("exprparse", "qwh.exprparse", ("parse_poly_text", "parse_scalar_text"), AGG, {}),
    ("presentations.builtin", "qwh.presentations", ("builtin",), SPAN, {}),
    ("presentations.substitute", "qwh.presentations",
     ("Presentation.substitute",), SPAN, {}),
    ("freealg", "qwh.freealg", _NCPOLY_OPS, AGG, {}),
    ("rewrite.normal_form", "qwh.rewrite", ("RewriteSystem.normal_form",), AGG, {}),
    ("rewrite.find_redex", "qwh.rewrite", ("RewriteSystem.find_redex",), COUNT, {}),
    ("rewrite.build_rules", "qwh.rewrite", ("build_rules",), SPAN, {}),
    ("rewrite.complete", "qwh.rewrite", ("complete",), SPAN, {"after": _count_rules}),
    ("rewrite.overlaps", "qwh.rewrite", ("overlaps",), COUNT, {"after": _count_overlaps}),
    ("linalg.rref", "qwh.linalg", ("rref",), SPAN, {}),
    ("coaction.ansatz_solve", "qwh.coaction", ("ansatz_solve",), SPAN, {}),
    ("coaction.comodule_check", "qwh.coaction", ("comodule_check",), SPAN, {}),
    ("quantumgroup.group_system", "qwh.quantumgroup", ("group_system",), SPAN,
     {"repeat": True}),
    ("quantumgroup.extended_system", "qwh.quantumgroup", ("extended_system",), SPAN, {}),
    ("quantumgroup.hopf_check", "qwh.quantumgroup", ("hopf_check",), SPAN, {}),
    ("diffcalc.wz_system", "qwh.diffcalc", ("wz_system",), SPAN, {"repeat": True}),
    ("diffcalc.apply_derivative", "qwh.diffcalc", ("apply_derivative",), SPAN, {}),
)

# Workloads on which each boundary must be entered at least once in a
# traced run.  A boundary that is never entered there means a refactor
# moved the work out from under the wrapper, and its metrics would read 0.
SUITES = ("suites-symbolic", "suites-specialized")
ALL = SUITES + ("calculus-queries",)
REQUIRED_ON = {
    "scalar": ALL,
    "scalar.cancel": ALL,
    "scalar.substitute": ("suites-specialized",),
    "exprparse": SUITES,
    "presentations.builtin": SUITES,
    "presentations.substitute": ("suites-specialized",),
    "freealg": ALL,
    "rewrite.normal_form": ALL,
    "rewrite.find_redex": ALL,
    "rewrite.build_rules": SUITES,
    "rewrite.complete": SUITES,
    "rewrite.overlaps": SUITES,
    "linalg.rref": SUITES,
    "coaction.ansatz_solve": SUITES,
    "coaction.comodule_check": SUITES,
    "quantumgroup.group_system": SUITES,
    "quantumgroup.extended_system": SUITES,
    "quantumgroup.hopf_check": SUITES,
    "diffcalc.wz_system": ALL,
    "diffcalc.apply_derivative": ("suites-specialized", "calculus-queries"),
}

# per-layer metric -> (boundary or counter, statistic)
LAYER_METRICS = {
    "scalar.ops": ("scalar", "calls"),
    "scalar.self_s": ("scalar", "self_s"),
    "scalar.cancel_calls": ("scalar.cancel", "calls"),
    "scalar.cancel_s": ("scalar.cancel", "s"),
    "scalar.substitute.calls": ("scalar.substitute", "calls"),
    "scalar.substitute.self_s": ("scalar.substitute", "self_s"),
    "exprparse.self_s": ("exprparse", "self_s"),
    "presentations.builtin.calls": ("presentations.builtin", "calls"),
    "presentations.substitute.calls": ("presentations.substitute", "calls"),
    "presentations.substitute.self_s": ("presentations.substitute", "self_s"),
    "freealg.self_s": ("freealg", "self_s"),
    "rewrite.normal_form.calls": ("rewrite.normal_form", "calls"),
    "rewrite.normal_form.self_s": ("rewrite.normal_form", "self_s"),
    "rewrite.find_redex.calls": ("rewrite.find_redex", "calls"),
    "rewrite.build_rules.calls": ("rewrite.build_rules", "calls"),
    "rewrite.build_rules.self_s": ("rewrite.build_rules", "self_s"),
    "rewrite.complete.calls": ("rewrite.complete", "calls"),
    "rewrite.complete.self_s": ("rewrite.complete", "self_s"),
    "rewrite.overlaps.examined": ("rewrite.overlaps.examined", "count"),
    "rewrite.rules_after_completion": ("rewrite.rules_after_completion", "count"),
    "linalg.rref.calls": ("linalg.rref", "calls"),
    "linalg.rref.self_s": ("linalg.rref", "self_s"),
    "coaction.ansatz_solve.self_s": ("coaction.ansatz_solve", "self_s"),
    "coaction.comodule_check.self_s": ("coaction.comodule_check", "self_s"),
    "quantumgroup.group_system.calls": ("quantumgroup.group_system", "calls"),
    "quantumgroup.group_system.s": ("quantumgroup.group_system", "s"),
    "quantumgroup.group_system.repeat_share": ("quantumgroup.group_system", "repeat_share"),
    "quantumgroup.extended_system.calls": ("quantumgroup.extended_system", "calls"),
    "quantumgroup.extended_system.s": ("quantumgroup.extended_system", "s"),
    "quantumgroup.hopf_check.self_s": ("quantumgroup.hopf_check", "self_s"),
    "diffcalc.wz_system.calls": ("diffcalc.wz_system", "calls"),
    "diffcalc.wz_system.s": ("diffcalc.wz_system", "s"),
    "diffcalc.wz_system.repeat_share": ("diffcalc.wz_system", "repeat_share"),
    "diffcalc.apply_derivative.calls": ("diffcalc.apply_derivative", "calls"),
    "diffcalc.apply_derivative.self_s": ("diffcalc.apply_derivative", "self_s"),
}

# Metrics also reported for the cold pass (prefix ``cold.``): the ones the
# layer map ties to ``cold_s``, where warm passes reuse cached systems.
COLD_METRICS = (
    "exprparse.self_s",
    "rewrite.build_rules.calls",
    "rewrite.build_rules.self_s",
    "rewrite.complete.calls",
    "rewrite.complete.self_s",
    "rewrite.overlaps.examined",
    "rewrite.rules_after_completion",
    "linalg.rref.calls",
    "linalg.rref.self_s",
)


class TracerError(Exception):
    pass


def _resolve(owner, path):
    """(object holding the attribute, attribute name, current value)."""
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError(f"wrapped name {path!r} is gone")
    if attr not in vars(owner):
        raise TracerError(f"wrapped name {path!r} is gone")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Wraps the boundaries in ``BOUNDARIES`` and accumulates, per pass,
    calls, inclusive time and self time per boundary.

    ``clock`` is injectable so that tests can drive time by hand."""

    def __init__(self, boundaries=BOUNDARIES, clock=time.perf_counter):
        self.clock = clock
        self.boundaries = boundaries
        self.stack = [[0.0, 0.0, None]]  # frames: [start, covered, span id]
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])  # (name, span id)
        self.op_id = None
        self.seen = defaultdict(set)  # boundary -> call keys seen in the process
        self.total_calls = defaultdict(int)
        self._patches = []  # (owner, attr, original, wrapper)
        self._begin_counters()
        for name, module, attrs, kind, opts in boundaries:
            mod = importlib.import_module(module)
            for path in attrs:
                self._plan(name, mod, path, kind, opts)

    # -- installation -----------------------------------------------------

    def _plan(self, name, mod, path, kind, opts):
        owner, attr, original = _resolve(mod, path)
        wrapper = self._wrap(name, original, kind, opts)
        if "." in path:  # a method: patch its class only
            self._patches.append((owner, attr, original, wrapper))
            return
        for modname, other in list(sys.modules.items()):
            if modname == "qwh" or modname.startswith("qwh."):
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patches.append((other, key, original, wrapper))

    def install(self):
        for owner, attr, original, wrapper in self._patches:
            if vars(owner).get(attr) is not original:
                raise TracerError(f"{owner.__name__}.{attr} changed under the tracer")
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name, fn, kind, opts):
        tracer = self
        after = opts.get("after")
        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, result)
                return result
            return counted

        record = kind == SPAN
        key_of = _call_key(fn) if opts.get("repeat") else None
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if key_of is not None:
                tracer._note_key(name, key_of(args, kwargs))
            stack = tracer.stack
            parent = stack[-1]
            frame = [clock(), 0.0, parent[2]]
            if record:
                frame[2] = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id; filled on return
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(name, frame, end, parent, record)
            if after is not None:
                after(tracer, result)
            return result

        return timed

    # -- bookkeeping ------------------------------------------------------

    def _close(self, name, frame, end, parent, record):
        dur = end - frame[0]
        own = dur - frame[1]
        parent[1] += dur
        self.calls[name] += 1
        self.incl_s[name] += dur
        self.self_s[name] += own
        if record:
            self.spans[frame[2]] = (frame[2], name, frame[0], end, parent[2], self.op_id)
        else:
            agg = self.aggregates[(name, parent[2])]
            agg[0] += 1
            agg[1] += dur
            agg[2] += own

    def _note_key(self, name, key):
        seen = self.seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def _begin_counters(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.repeats = defaultdict(int)
        self.counts = defaultdict(int)

    def span(self, name, fn):
        """Run ``fn()`` inside a recorded span of the benchmark's own."""
        return self._wrap(name, fn, SPAN, {})()

    def begin_pass(self):
        self._begin_counters()

    def end_pass(self):
        """Per-layer metrics of the pass that just ended."""
        for name, n in self.calls.items():
            self.total_calls[name] += n
        out = {}
        for metric, (name, stat) in LAYER_METRICS.items():
            if stat == "calls":
                out[metric] = self.calls[name]
            elif stat == "self_s":
                out[metric] = self.self_s[name]
            elif stat == "s":
                out[metric] = self.incl_s[name]
            elif stat == "count":
                out[metric] = self.counts[name]
            else:  # repeat_share
                n = self.calls[name]
                out[metric] = self.repeats[name] / n if n else 0.0
        return out

    def check_coverage(self, workload):
        """Raise if a boundary assigned to ``workload`` was never entered."""
        missing = [
            name for name, where in REQUIRED_ON.items()
            if workload in where and not self.total_calls[name]
        ]
        if missing:
            raise TracerError(
                f"boundaries never entered on {workload}: {', '.join(missing)}"
            )

    def write(self, path):
        """Write every span, with the aggregates under it, as JSON lines."""
        under = defaultdict(dict)
        for (name, sid), (n, incl, own) in self.aggregates.items():
            under[sid][name] = [n, incl, own]
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "agg": under.get(sid, {}),
                }) + "\n")
            if None in under:
                fh.write(json.dumps({"id": None, "name": "(outside spans)",
                                     "agg": under[None]}) + "\n")
