"""Command-line driver: run named check suites, normalize expressions,
apply derivatives, and solve the one-form ansatz.

Exit codes: 0 when every report is PASS, 1 when any report is FAIL, and 2
on errors (unknown suite, parse errors, bad parameters).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Callable, Dict, NoReturn, Optional, Tuple

import click

from . import scalar as sc
from .coaction import ansatz_check, comodule_check, constraint_span_check
from .coaction import ansatz_solve
from .diffcalc import DiffCalcError, apply_derivative, twisted_leibniz_check, wz_confluence
from .exprparse import ParseError, parse_poly_text
from .linalg import (
    eigenspace_identification,
    generic_q_not_eigenspace,
    involution_check,
    rhat_builtin,
    ybe_check,
)
from .presentations import (
    BUILTIN_NAMES,
    builtin,
    parse_presentation,
)
from .quantumgroup import (
    det_commutation_derive,
    hopf_check,
    intertwiner_check,
    inverse_check,
    rtt7_span_check,
    rtt9_completion_check,
    subalgebra_check,
)
from .report import ERROR, FAIL, CheckItem, CheckReport
from .rewrite import RewriteError


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

def _det_comm(bindings):
    """Both determinant-commutation reports, each label tagged with its algebra."""
    items = []
    for which in ("H8", "H10"):
        rep = det_commutation_derive(which, bindings=bindings)
        items.extend(
            CheckItem(f"{which}: {i.label}", i.passed, i.residual) for i in rep.items
        )
    return CheckReport.from_items("det-comm", items)


_SUITES: Dict[str, Tuple[Callable, bool]] = {
    # name -> (runner(bindings, generic_q) -> CheckReport, supports --generic-q)
    "ybe": (lambda b, g: ybe_check(rhat_builtin(b)), False),
    "involution": (lambda b, g: involution_check(rhat_builtin(b)), False),
    "eigen": (
        lambda b, g: generic_q_not_eigenspace(b) if g else eigenspace_identification(b),
        True,
    ),
    "constraints": (lambda b, g: constraint_span_check(b), False),
    "comodule-x": (
        lambda b, g: comodule_check(builtin("xspace", b), builtin("TT7", b), "comodule-x"),
        False,
    ),
    "comodule-xi": (
        lambda b, g: comodule_check(builtin("xispace", b), builtin("TT7", b), "comodule-xi"),
        False,
    ),
    "ansatz": (lambda b, g: ansatz_check(b), False),
    "rtt-7": (lambda b, g: rtt7_span_check(b, generic_q=g), True),
    "rtt-9": (lambda b, g: rtt9_completion_check(b), False),
    "intertwiner": (lambda b, g: intertwiner_check(b), False),
    "inverse-h8": (lambda b, g: inverse_check("H8", b), False),
    "inverse-h10": (lambda b, g: inverse_check("H10", b), False),
    "det-comm": (lambda b, g: _det_comm(b), False),
    "hopf-h8": (lambda b, g: hopf_check("H8", b), False),
    "hopf-h10": (lambda b, g: hopf_check("H10", b), False),
    "subalgebra": (lambda b, g: subalgebra_check(b), False),
    "diffcalc": (lambda b, g: wz_confluence(g, b), True),
    "twisted-leibniz": (lambda b, g: twisted_leibniz_check(b), False),
}


#: the name a suite's report carries under --generic-q, where it is not the key
_GENERIC_Q_NAMES = {"eigen": "eigen-generic-q"}


def suite_names():
    return list(_SUITES) + ["all"]


def run_suite(name: str, bindings, generic_q: bool) -> CheckReport:
    """The report of one registered suite, labelled with its parameters.  A
    suite that raises reports ERROR with the exception's message, under the
    name its report carries when it runs."""
    runner, supports_gq = _SUITES[name]
    gq = generic_q and supports_gq
    try:
        rep = runner(bindings or None, gq)
    except Exception as exc:  # surface as ERROR, exit 2
        report_name = _GENERIC_Q_NAMES.get(name, name) if gq else name
        rep = CheckReport.error(report_name, f"{type(exc).__name__}: {exc}")
    rep.params = {k: str(v) for k, v in (bindings or {}).items()}
    if gq:
        rep.params["q"] = "generic"
    return rep


class CLIError(Exception):
    pass


#: what input from the command line can raise: malformed text, a point
#: where a coefficient's denominator vanishes, an inconsistent presentation,
#: a derivative index out of range
_INPUT_ERRORS = (CLIError, ParseError, sc.SubstitutionError, RewriteError, DiffCalcError)


def _fail(message) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


#: what `check`, `d` and `derive` bind: their algebras have q = u^2 built
#: in, and `check --generic-q` keeps q free of u but unbound
_U_S = ("u", "s")

#: why a bound q is refused where q = u^2 is built in; `known` lists `names`
_Q_BUILT_IN = "q = u^2 is built in here, so q cannot be bound; bindable: {known}"
_Q_GENERIC = "--generic-q keeps q independent of u; it cannot be combined with a bound q"


def _parse_params(
    text: Optional[str], names=_U_S, q_error=_Q_BUILT_IN
) -> Dict[str, Fraction]:
    """Bindings of `names`; the other parameters are q, where a command has
    it built in as u^2 (a bound q raises `q_error`), and the unknowns of the
    one-form ansatz, which only a presentation to `normalize` may declare."""
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, val = piece.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise CLIError(f"malformed parameter binding {piece!r} (expected k=v)")
        if key not in names:
            known = ", ".join(sorted(names))
            if key == "q":
                raise CLIError(q_error.format(known=known))
            if key in sc.PARAM_NAMES:
                raise CLIError(f"{key} is an ansatz unknown, not a parameter; bindable: {known}")
            raise CLIError(f"unknown parameter {key!r}; known: {known}")
        if key in out:
            raise CLIError(f"parameter {key} is bound more than once")
        try:
            out[key] = Fraction(val)
        except (ValueError, ZeroDivisionError) as exc:
            why = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
            raise CLIError(f"bad rational value {val!r} for {key}: {why}") from None
    return out


def _load_presentation(name_or_path: str, bindings):
    if name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path, bindings)
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CLIError(
            f"{name_or_path!r} is neither a builtin presentation "
            f"({', '.join(BUILTIN_NAMES)}) nor a readable file: {exc}"
        ) from None
    pres = parse_presentation(text, file=name_or_path)
    return pres.substitute(bindings) if bindings else pres


def _emit(reports, fmt, out):
    if fmt == "json":
        import json

        dicts = [r.to_dict() for r in reports]
        payload = dicts[0] if len(dicts) == 1 else dicts
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = "\n".join(r.render_text() for r in reports) + "\n"
    if not out:
        click.echo(body, nl=False)
        return
    try:
        with open(out, "w") as fh:
            fh.write(body)
    except OSError as exc:
        _fail(f"cannot write the report to {out!r}: {exc.strerror}")


def _status_exit(statuses) -> int:
    if any(s == ERROR for s in statuses):
        return 2
    if any(s == FAIL for s in statuses):
        return 1
    return 0


@click.group()
def main():
    """Exact verification toolkit for the deformed oscillator quantum space,
    its invariance quantum groups, and the invariant differential calculus."""


@main.command()
@click.option("--suite", "-s", required=True, help="Suite name, or `all`.")
@click.option("--params", "-p", default=None, help="Rational bindings, e.g. u=2,s=3.")
@click.option("--generic-q", is_flag=True, help="Keep q independent of u.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", type=click.Path(), default=None, help="Write the report here.")
def check(suite, params, generic_q, fmt, out):
    """Run a verification suite and exit 0/1/2 for PASS/FAIL/ERROR."""
    try:
        bindings = _parse_params(params, q_error=_Q_GENERIC if generic_q else _Q_BUILT_IN)
    except CLIError as exc:
        _fail(exc)

    if suite == "all":
        names = [n for n in _SUITES]
    elif suite in _SUITES:
        names = [suite]
    else:
        _fail(f"unknown suite {suite!r}; registered suites: " + ", ".join(suite_names()))

    if generic_q and any(not _SUITES[n][1] for n in names) and suite != "all":
        _fail(
            f"suite {suite!r} has no generic-q variant "
            "(supported: " + ", ".join(n for n, (_, g) in _SUITES.items() if g) + ")"
        )

    reports = [run_suite(name, bindings, generic_q) for name in names]
    _emit(reports, fmt, out)
    sys.exit(_status_exit([r.status for r in reports]))


@main.command()
@click.option("--algebra", "-a", required=True, help="Builtin name or DSL file path.")
@click.option("--expr", "-e", required=True, help="Expression to normalize.")
@click.option("--params", "-p", default=None, help="Rational bindings, e.g. u=2,s=3.")
def normalize(algebra, expr, params):
    """Print the normal form of an expression in a presented algebra."""
    try:
        bindings = _parse_params(params, sc.PARAM_NAMES)
        pres = _load_presentation(algebra, bindings)
        poly = parse_poly_text(expr, pres.table)
        if bindings:
            poly = poly.substitute_scalars(bindings)
        system = pres.rewrite_system()
    except _INPUT_ERRORS as exc:
        _fail(exc)
    click.echo(system.normal_form(poly).render())


@main.command("d")
@click.option("--index", "-i", type=int, required=True, help="Derivative index 1..3.")
@click.option("--expr", "-e", required=True, help="Polynomial in the variables.")
@click.option("--params", "-p", default=None, help="Rational bindings, e.g. u=2,s=3.")
def derivative(index, expr, params):
    """Apply a derivative of the invariant calculus to a variable polynomial."""
    try:
        bindings = _parse_params(params) or None
        poly = parse_poly_text(expr, builtin("xspace", bindings).table)
        if bindings:
            poly = poly.substitute_scalars(bindings)
        out = apply_derivative(index, poly, bindings=bindings)
    except _INPUT_ERRORS as exc:
        _fail(exc)
    # the calculus orients the variable relations as xspace does, so `out`
    # is already normal-ordered
    click.echo(out.render())


@main.command()
@click.option(
    "--ansatz",
    type=click.Choice(["xi", "xi3sq-variant"]),
    default="xi",
    help="Which one-form ansatz to solve.",
)
@click.option("--params", "-p", default=None, help="Rational bindings, e.g. u=2,s=3.")
def derive(ansatz, params):
    """Solve the invariance constraints of a one-form ansatz and print the
    resulting constraint system."""
    name = "ansatz_xi" if ansatz == "xi" else "ansatz_xi3sq_variant"
    try:
        bindings = _parse_params(params)
        system = ansatz_solve(builtin(name, bindings), builtin("TT7", bindings))
    except _INPUT_ERRORS as exc:
        _fail(exc)
    click.echo(system.render())
    sys.exit(1 if system.inconsistent else 0)


if __name__ == "__main__":
    main()
