"""Check reports: serialization, schema validation, CLI behavior."""

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh import cli
from qwh.cli import main, suite_names
from qwh.report import FAIL, PASS, CheckItem, CheckReport


SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "check_report.schema.json")


def _validate(payload):
    import jsonschema

    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)


def test_report_round_trip():
    """A report's dict form survives JSON unchanged and matches the schema."""
    rep = CheckReport.from_items(
        "demo", [CheckItem("ok", True), CheckItem("bad", False, residual="u - 1")]
    )
    rep.params = {"u": "2"}
    assert rep.status == FAIL
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload == rep.to_dict()
    _validate(payload)
    assert (payload["status"], payload["params"]) == (FAIL, {"u": "2"})
    assert [(i["status"], i["time"]) for i in payload["items"]] == [(PASS, 0.0), (FAIL, 0.0)]
    assert payload["items"][1]["residual"] == "u - 1"


def test_status_aggregation():
    assert CheckReport.from_items("s", [CheckItem("a", True)]).status == PASS
    assert CheckReport.from_items("s", []).status == PASS
    assert CheckReport.error("s", "boom").status == "ERROR"


def run(args):
    return CliRunner().invoke(main, args)


def test_check_pass_exit_zero():
    res = run(["check", "--suite", "ybe"])
    assert res.exit_code == 0
    assert "PASS" in res.output


def test_check_fail_exit_one():
    res = run(["check", "--suite", "rtt-7", "--generic-q"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_generic_q_with_bound_q_exit_two():
    # a report labelled q=generic must never have been computed at a fixed q
    for suite in ("rtt-7", "all"):
        res = run(["check", "--suite", suite, "--generic-q", "--params", "u=2,q=4"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "--generic-q" in lines[0] and "bound q" in lines[0]


def test_generic_q_on_a_suite_without_the_variant_exit_two():
    res = run(["check", "--suite", "ybe", "--generic-q"])
    _assert_one_line_error(res, "")
    assert res.output == (
        "error: suite 'ybe' has no generic-q variant"
        " (supported: eigen, rtt-7, diffcalc)\n"
    )


def test_unknown_suite_exit_two_lists_registry():
    res = run(["check", "--suite", "nope"])
    assert res.exit_code == 2
    for name in ("ybe", "rtt-7", "all"):
        assert name in res.output


def test_bad_params_exit_two():
    assert run(["check", "--suite", "ybe", "--params", "zz=1"]).exit_code == 2
    assert run(["check", "--suite", "ybe", "--params", "u"]).exit_code == 2


def _check_all_process(params):
    """`qwh check --suite all --params PARAMS` run as its own process."""
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run(
        [sys.executable, "-m", "qwh.cli", "check", "--suite", "all", "--params", params],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_check_all_bad_params_exit_two():
    res = _check_all_process("u=x")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: bad rational value 'x' for u")
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "command, bindable",
    [
        (["check", "--suite", "ansatz"], "s, u"),
        (["derive"], "s, u"),
        (["d", "-i", "1", "-e", "x1"], "s, u"),
    ],
    ids=["check", "derive", "d"],
)
@pytest.mark.parametrize("unknown", ["k", "lam12", "mu12", "c21", "lam", "mu"])
def test_ansatz_unknowns_cannot_be_bound(command, bindable, unknown):
    # binding what the ansatz solves for would report on a different problem
    res = run(command + ["-p", f"u=2,{unknown}=0"])
    _assert_one_line_error(res, "")
    assert res.output == (
        f"error: {unknown} is an ansatz unknown, not a parameter; bindable: {bindable}\n"
    )


@pytest.mark.parametrize(
    "command",
    [["d", "-i", "1", "-e", "x1*x2"], ["derive"], ["check", "--suite", "all"]],
    ids=["d", "derive", "check"],
)
def test_d_and_derive_refuse_a_bound_q(command):
    # their algebras have q = u^2 built in: a bound q would be ignored, or
    # only label reports it never specialised
    res = run(command + ["-p", "q=2"])
    _assert_one_line_error(res, "")
    assert res.output == (
        "error: q = u^2 is built in here, so q cannot be bound; bindable: s, u\n"
    )


def test_normalize_binds_the_parameters_a_presentation_declares(tmp_path):
    path = tmp_path / "a.pres"
    path.write_text("algebra a\nparams lam\ngenerators y > x\nrel x*y = lam*y*x\n")
    res = run(["normalize", "-a", str(path), "-e", "y*x", "-p", "lam=3"])
    assert (res.exit_code, res.output) == (0, "1/3*x*y\n")


def test_check_all_rejects_ansatz_unknowns():
    res = _check_all_process("k=0")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: k is an ansatz unknown, not a parameter; bindable: s, u\n"


def test_run_suite_reports_a_raising_suite_as_error(monkeypatch):
    def boom(bindings, generic_q):
        raise ZeroDivisionError("degenerate point")

    monkeypatch.setitem(cli._SUITES, "ybe", (boom, False))
    rep = cli.run_suite("ybe", {"u": 0}, False)
    assert rep.status == "ERROR"
    assert rep.message == "ZeroDivisionError: degenerate point"
    assert rep.params == {"u": "0"}


@pytest.mark.parametrize("suite", ["eigen", "rtt-7", "diffcalc"])
def test_generic_q_error_keeps_the_suite_name(suite):
    """A suite names its ERROR report as it names its PASS or FAIL one."""
    ran = run(["check", "--suite", suite, "--generic-q", "-p", "u=2"])
    raised = run(["check", "--suite", suite, "--generic-q", "-p", "u=0"])
    name = ran.output.splitlines()[0].rsplit(":", 1)[0]
    assert name.startswith(f"suite {suite}")
    assert raised.exit_code == 2
    assert raised.output.splitlines()[0] == f"{name}: ERROR"


def test_json_output_validates_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        res = run(["check", "--suite", "involution", "--format", "json", "--out", str(out)])
        assert res.exit_code == 0
    assert out1.read_text() == out2.read_text()
    payload = json.loads(out1.read_text())
    _validate(payload)
    assert payload["suite"] == "involution"
    assert payload["status"] == PASS


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unwritable_out_path_exit_two(tmp_path, fmt):
    out = str(tmp_path / "missing" / "r.json")
    res = run(["check", "--suite", "ybe", "--format", fmt, "--out", out])
    _assert_one_line_error(res, f"cannot write the report to {out!r}")


def test_text_and_json_carry_identical_item_sets():
    text = run(["check", "--suite", "eigen"]).output
    blob = json.loads(run(["check", "--suite", "eigen", "--format", "json"]).output)
    for item in blob["items"]:
        assert item["label"] in text


def test_params_flag_reaches_report():
    blob = json.loads(
        run(["check", "--suite", "ybe", "--params", "u=2,s=3", "--format", "json"]).output
    )
    assert blob["params"] == {"u": "2", "s": "3"}
    _validate(blob)


def test_normalize_examples():
    assert run(["normalize", "-a", "xspace", "-e", "x1*x2"]).output.strip() == \
        "u^2*x2*x1 + s*x3*x3"
    assert run(["normalize", "-a", "xispace", "-e", "xi1*xi1"]).output.strip() == "0"
    assert run(["normalize", "-a", "TT7", "-e", "T12*T21"]).output.strip() == \
        "u^4*T21*T12"
    # the power of a sum of generators, and a minus sign after an operator
    assert run(["normalize", "-a", "xspace", "-e", "(x1+x2)^2"]).output.strip() == \
        "x1*x1 + (u^2 + 1)*x2*x1 + x2*x2 + s*x3*x3"
    assert run(["normalize", "-a", "xspace", "-e", "x1*-x2"]).output.strip() == \
        "-u^2*x2*x1 - s*x3*x3"


def test_normalize_parse_error_exit_two():
    res = run(["normalize", "-a", "xspace", "-e", "x1*("])
    assert res.exit_code == 2
    assert "1:5" in res.output  # span points at the offending column


def test_normalize_accepts_dsl_file(tmp_path):
    f = tmp_path / "toy.alg"
    f.write_text("algebra toy\nparams u\ngenerators a > b\nrel a*b = u*b*a\n")
    res = run(["normalize", "-a", str(f), "-e", "a*b", "--params", "u=3"])
    assert res.exit_code == 0
    assert res.output.strip() == "3*b*a"


def _assert_one_line_error(res, fragment):
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and fragment in lines[0]


def test_normalize_bad_input_exit_two(tmp_path):
    _assert_one_line_error(
        run(["normalize", "-a", "xspace", "-e", "x1", "-p", "u=0"]), "vanishes"
    )
    f = tmp_path / "unit.alg"
    f.write_text("algebra unit\ngenerators a > b\nrel 1\n")
    _assert_one_line_error(
        run(["normalize", "-a", str(f), "-e", "a"]), "inconsistent presentation"
    )
    f = tmp_path / "dup.alg"
    f.write_text("algebra dup\ngenerators a > a\n")
    _assert_one_line_error(
        run(["normalize", "-a", str(f), "-e", "a"]), "dup.alg:2:1: duplicate generator 'a'"
    )


def test_normalize_non_utf8_file_exit_two(tmp_path):
    f = tmp_path / "bad.alg"
    f.write_bytes(b"algebra t\ngenerators a > b\nrel a*b = \xff*b*a\n")
    _assert_one_line_error(run(["normalize", "-a", str(f), "-e", "a*b"]), repr(str(f)))


def test_normalize_rejects_a_generator_that_is_not_a_name(tmp_path):
    # `2` tokenizes as an integer, so `b*b` used to normalize to the scalar 2
    f = tmp_path / "two.alg"
    f.write_text("algebra t\ngenerators 2 > b\nrel b*b = 2\n")
    _assert_one_line_error(
        run(["normalize", "-a", str(f), "-e", "b*b"]), "two.alg:2:1: generator '2' is not a name"
    )


def test_normalize_rejects_a_generator_named_like_a_parameter(tmp_path):
    # the generator used to hide the parameter: `-p u=2` bound nothing, and
    # `b*u` printed itself with exit 0
    f = tmp_path / "u.alg"
    f.write_text("algebra t\nparams u\ngenerators u > b\nrel b*u = u*b*b\n")
    _assert_one_line_error(
        run(["normalize", "-a", str(f), "-e", "b*u", "-p", "u=2"]),
        "u.alg:3:1: generator 'u' is a declared parameter",
    )


def test_repeated_dsl_header_line_exit_two_with_span(tmp_path):
    # a second generators line used to replace the first silently
    f = tmp_path / "g.alg"
    f.write_text("algebra g\ngenerators a > b\ngenerators c > d\nrel d*c = c*d\n")
    _assert_one_line_error(
        run(["normalize", "-a", str(f), "-e", "c*d"]),
        "g.alg:3:1: second `generators` line",
    )
    # and a second params line hid the first one's parameters
    f = tmp_path / "p.alg"
    f.write_text("algebra p\nparams u\nparams s\ngenerators a > b\nrel a*b = u*s*b*a\n")
    _assert_one_line_error(
        run(["normalize", "-a", str(f), "-e", "a"]), "p.alg:3:1: second `params` line"
    )


def test_derivative_index_out_of_range_exit_two():
    for index in ("0", "4"):
        res = run(["d", "-i", index, "-e", "x1"])
        _assert_one_line_error(res, "")
        assert res.output == f"error: derivative index must be 1..3, got {index}\n"


def test_normalize_undeclared_parameter_exit_two_with_span(tmp_path):
    f = tmp_path / "p.alg"
    f.write_text("algebra p\nparams u\ngenerators a > b\nrel a*b = s*b*a\n")
    _assert_one_line_error(
        run(["normalize", "-a", str(f), "-e", "a"]),
        "p.alg:4:5: relation uses undeclared parameters ['s']",
    )


@pytest.mark.parametrize(
    "command",
    [["check", "--suite", "ybe"], ["normalize", "-a", "xspace", "-e", "u*x1"]],
    ids=["check", "normalize"],
)
def test_repeated_or_zero_denominator_binding_exit_two(command):
    for params in ("u=2,u=3", "u=2,s=1,u=2"):
        _assert_one_line_error(run(command + ["-p", params]), "parameter u is bound more than once")
    res = run(command + ["-p", "u=2,s=1/0"])
    _assert_one_line_error(res, "")
    assert res.output == "error: bad rational value '1/0' for s: zero denominator\n"


def test_degenerate_point_messages_are_pinned():
    # u = 0 makes a coefficient's denominator vanish; the message names it
    res = run(["normalize", "-a", "xspace", "-e", "x1*x2", "-p", "u=0"])
    _assert_one_line_error(res, "")
    assert res.output == "error: denominator of -u^(-1) vanishes under binding {u}\n"
    res = run(["check", "--suite", "ybe", "-p", "u=0"])
    assert res.exit_code == 2
    messages = [ln.strip() for ln in res.output.splitlines() if "Error" in ln]
    assert messages == [
        "SubstitutionError: denominator of u^(-2) vanishes under binding {u}"
    ]


def test_params_specialise_the_expression():
    res = run(["normalize", "-a", "xspace", "-e", "u*x1", "-p", "u=2"])
    assert (res.exit_code, res.output) == (0, "2*x1\n")
    res = run(["d", "-i", "1", "-e", "s*x1*x2", "-p", "u=2,s=3"])
    assert (res.exit_code, res.output) == (0, "3*x2\n")
    res = run(["normalize", "-a", "xspace", "-e", "(1+u)^(-1)*x1", "-p", "u=-1"])
    _assert_one_line_error(res, "")
    assert res.output == "error: denominator of 1/(u + 1) vanishes under binding {u}\n"


def test_derivative_bad_point_exit_two():
    _assert_one_line_error(run(["d", "-i", "1", "-e", "x1", "-p", "u=0"]), "vanishes")


def test_derive_bad_point_exit_two():
    _assert_one_line_error(run(["derive", "-p", "u=0"]), "vanishes")


def test_derivative_command():
    res = run(["d", "-i", "3", "-e", "x3*x3"])
    assert res.exit_code == 0
    assert "x3" in res.output


def test_derive_command_prints_pins():
    res = run(["derive", "--ansatz", "xi"])
    assert res.exit_code == 0
    for frag in ("k = 0", "lam12 = 0", "mu12 = 0"):
        assert frag in res.output


def test_derive_variant_reports_inconsistency():
    res = run(["derive", "--ansatz", "xi3sq-variant"])
    assert res.exit_code == 1
    assert "witness" in res.output


def test_suite_registry_is_stable():
    names = suite_names()
    assert names[-1] == "all"
    assert len(names) == len(set(names))


big = st.integers(-(10 ** 30), 10 ** 30)
cli_rationals = st.one_of(
    st.sampled_from([0, 1, -1]).map(str),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str),
    st.tuples(big, big.filter(bool)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
)
cli_bindings = st.one_of(
    st.tuples(st.sampled_from(["u", "s", "q"]), cli_rationals).map("=".join),
    st.sampled_from(["u=", "u=1/0", "v=2", "=3", "u", "u=x", "u=1/2/3", "s=--1"]),
)


@settings(max_examples=15, deadline=None)
@given(st.lists(cli_bindings, min_size=1, max_size=3).map(",".join))
def test_cli_params_never_raise_a_traceback(params):
    for args in (["normalize", "-a", "xspace", "-e", "x1*x2"],
                 ["d", "-i", "1", "-e", "x1*x2"]):
        res = run(args + ["--params", params])
        assert res.exit_code in (0, 1, 2), (params, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), (
            params, res.exception)
        assert "Traceback" not in res.output
