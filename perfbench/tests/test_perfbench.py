"""Tests of the benchmark's own rules: the percentile rule, self time, the
wrapper coverage, the derivative oracle and the counting of wrong answers.

    python3 -m pytest perfbench/tests
"""

import math
import sys
import types

import pytest

import run
import tracer as tr
import workloads as wls
from qwh.diffcalc import apply_derivative, wz_system
from qwh.freealg import NCPoly
from qwh.presentations import builtin
from qwh.report import CheckItem, CheckReport
from qwh.scalar import Scalar


# -- percentile rule --------------------------------------------------------

def test_percentile_is_nearest_rank_and_counts_samples_beyond():
    samples = list(range(1, 101))
    assert run.percentile(samples, 50) == (50, 50)
    assert run.percentile(samples, 99) == (99, 1)
    assert run.percentile([7.0], 99) == (7.0, 0)


@pytest.mark.parametrize("n, ok", [(999, False), (1000, True), (1110, True)])
def test_p99_needs_ten_samples_beyond(n, ok):
    samples = [float(i) for i in range(n)]
    if ok:
        assert run.tail_percentile(samples, 99) == samples[math.ceil(0.99 * n) - 1]
    else:
        with pytest.raises(ValueError, match="beyond"):
            run.tail_percentile(samples, 99)


def test_calculus_pass_is_sized_for_p99():
    n = 3 * sum(3 ** k for k in range(wls.DERIVATIVE_MAX_LEN + 1))
    n += wls.NF_WORDS_PER_PASS + len(wls.README_NORMAL_FORMS)
    assert run.percentile(range(n), 99)[1] >= 10


# -- self time --------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _fake_layers(clock):
    mod = types.ModuleType("perfbench_fake_layers")

    class Layer:
        def outer(self):
            clock.t += 1
            self.inner()
            clock.t += 2
            self.inner()
            return "done"

        def inner(self):
            clock.t += 4

    mod.Layer = Layer
    return mod


def test_self_time_is_duration_minus_children():
    clock = _Clock()
    sys.modules["perfbench_fake_layers"] = mod = _fake_layers(clock)
    try:
        boundaries = (
            ("outer", "perfbench_fake_layers", ("Layer.outer",), tr.SPAN, {}),
            ("inner", "perfbench_fake_layers", ("Layer.inner",), tr.AGG, {}),
        )
        t = tr.Tracer(boundaries, clock=clock)
        t.install()
        assert mod.Layer().outer() == "done"
        t.uninstall()
    finally:
        del sys.modules["perfbench_fake_layers"]
    assert t.incl_s["outer"] == 11 and t.self_s["outer"] == 3
    assert t.calls["inner"] == 2 and t.self_s["inner"] == 8
    (span,) = t.spans
    assert span[1:5] == ("outer", 0.0, 11.0, None)
    # the inner calls are aggregated under the outer span, not recorded
    assert dict(t.aggregates) == {("inner", 0): [2, 8.0, 8.0]}


# -- wrapper coverage -------------------------------------------------------

def test_functions_are_wrapped_under_every_binding_and_restored():
    import qwh
    import qwh.cli
    import qwh.diffcalc

    original = qwh.diffcalc.apply_derivative
    t = tr.Tracer()
    t.install()
    try:
        wrapped = qwh.diffcalc.apply_derivative
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert qwh.cli.apply_derivative is wrapped
        assert qwh.apply_derivative is wrapped
        t.begin_pass()
        apply_derivative_out = qwh.cli.apply_derivative(
            1, NCPoly.word(builtin("xspace").table, (0,)))
        layers = t.end_pass()
    finally:
        t.uninstall()
    assert qwh.cli.apply_derivative is original
    assert apply_derivative_out.as_scalar() == Scalar.from_int(1)
    assert layers["diffcalc.apply_derivative.calls"] == 1
    assert layers["rewrite.normal_form.calls"] >= 1


def test_a_vanished_name_is_an_error():
    boundaries = (("gone", "qwh.rewrite", ("no_such_function",), tr.SPAN, {}),)
    with pytest.raises(tr.TracerError, match="gone"):
        tr.Tracer(boundaries)


def test_a_boundary_never_entered_is_an_error():
    t = tr.Tracer(())
    t.total_calls["scalar"] = 5
    with pytest.raises(tr.TracerError, match="calculus-queries"):
        t.check_coverage("calculus-queries")


def test_repeat_share_keys_on_sorted_bindings():
    t = tr.Tracer()
    t.install()
    try:
        import qwh.diffcalc

        t.begin_pass()
        qwh.diffcalc.wz_system()
        qwh.diffcalc.wz_system(False)
        layers = t.end_pass()
    finally:
        t.uninstall()
    assert layers["diffcalc.wz_system.calls"] == 2
    assert layers["diffcalc.wz_system.repeat_share"] == 0.5


# -- oracles and error counting ---------------------------------------------

XTABLE = builtin("xspace").table


def _word(*names):
    return tuple(XTABLE.gen(n) for n in names)


def test_partial_derivative():
    assert wls.partial_derivative(1, (2, 1, 0)) == {(1, 1, 0): 2}
    assert wls.partial_derivative(3, (2, 1, 0)) == {}


@pytest.mark.parametrize("names", [(), ("x1",), ("x1", "x2"), ("x3", "x1", "x3", "x2")])
def test_derivative_oracle_accepts_qwh(names):
    word = _word(*names)
    exps = tuple(names.count(x) for x in ("x1", "x2", "x3"))
    for i in (1, 2, 3):
        out = apply_derivative(i, NCPoly.word(XTABLE, word))
        assert wls.classical_limit_check(i, exps, out) is None


def test_derivative_oracle_rejects_wrong_answers():
    p = NCPoly.word(XTABLE, _word("x1", "x2"))
    right = apply_derivative(1, p)
    assert wls.classical_limit_check(1, (1, 1, 0), right.scale(Scalar.from_int(2)))
    assert wls.classical_limit_check(1, (1, 1, 0), apply_derivative(2, p))
    u = Scalar.param("u")
    # a pole at u = 1 cannot be a correct derivative
    pole = right.scale(Scalar.from_int(1) / (u - 1))
    assert "specialise" in wls.classical_limit_check(1, (1, 1, 0), pole)


def test_normal_form_oracle():
    system = wz_system()
    table = system.table
    p = NCPoly.word(table, (table.gen("d1"), table.gen("x1")))
    assert wls.normal_form_check(system, system.normal_form(p)) is None
    assert "redex" in wls.normal_form_check(system, p)


class _FakeWorkload:
    span_prefix = "fake."

    def __init__(self, reports):
        self.reports = reports

    def ops(self, k):
        for i, (report, expected) in enumerate(self.reports):
            yield f"op{i}", (lambda r=report: r()), wls._verdict_check(expected)


def _report(status):
    def make():
        if status == "raise":
            raise RuntimeError("boom")
        return CheckReport.from_items("fake", [CheckItem("x", status == "PASS")])
    return make


def test_wrong_answers_and_raising_ops_count_as_failed():
    wl = _FakeWorkload([
        (_report("PASS"), "PASS"),
        (_report("FAIL"), "FAIL"),
        (_report("PASS"), "FAIL"),  # wrong verdict
        (_report("raise"), "PASS"),  # raising op
    ])
    _, ops, attempted, failures = run.run_pass(wl, 0)
    assert attempted == 4 and len(ops) == 4
    assert len(failures) == 2
    assert "verdict PASS, expected FAIL" in failures[0]
    assert "RuntimeError: boom" in failures[1]


def test_suite_tables_match_the_registry():
    wl = wls.SuitesSymbolic(seed=0, worker=0)
    labels = [label for label, _, _ in wl.ops(0)]
    assert labels[:18] == list(wls.SUITE_NAMES)
    assert labels[18:] == ["eigen-generic-q", "rtt-7-generic-q", "diffcalc-generic-q"]


def test_specialized_points_avoid_the_degenerate_locus():
    import random

    rng = random.Random(0)
    for _ in range(200):
        assert wls.generic_point(rng)["u"] not in (0, 1, -1)
