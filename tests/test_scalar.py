"""Exact scalar arithmetic: field axioms, substitution, rendering."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.fields import FracElement

from qwh import memo
from qwh import scalar as sc
from qwh.cli import _SUITES, run_suite
from qwh.diffcalc import apply_derivative
from qwh.exprparse import ParseError, parse_poly_text, parse_scalar_text
from qwh.freealg import GenTable, NCPoly
from qwh.presentations import builtin
from qwh.scalar import Scalar

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).map(Scalar.from_fraction)

params = st.sampled_from(["u", "s", "q", "lam", "mu"]).map(Scalar.param)

atoms = rationals | params


@st.composite
def scalars(draw, depth=2):
    if depth == 0:
        return draw(atoms)
    op = draw(st.sampled_from(["atom", "+", "-", "*"]))
    if op == "atom":
        return draw(atoms)
    a = draw(scalars(depth=depth - 1))
    b = draw(scalars(depth=depth - 1))
    return {"+": a + b, "-": a - b, "*": a * b}[op]


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + sc.ZERO == a
    assert a * sc.ONE == a
    assert a - a == sc.ZERO
    if not a.is_zero():
        assert a / a == sc.ONE


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), st.fractions(min_value=-9, max_value=9, max_denominator=7))
def test_substitution_is_a_homomorphism(a, b, val):
    binds = {"u": val, "s": Fraction(2), "q": val * val, "lam": 1, "mu": -1}
    assert (a + b).substitute(binds) == a.substitute(binds) + b.substitute(binds)
    assert (a * b).substitute(binds) == a.substitute(binds) * b.substitute(binds)
    assert (-a).substitute(binds) == -(a.substitute(binds))


def test_substitution_rejects_zero_denominator():
    x = sc.ONE / (Scalar.param("u") - sc.ONE)
    with pytest.raises(sc.ScalarError):
        x.substitute({"u": 1})


def test_powers_and_inverse():
    u = Scalar.param("u")
    assert u ** 3 * u ** -3 == sc.ONE
    assert u ** 0 == sc.ONE
    assert (u ** -2).substitute({"u": Fraction(1, 2)}) == Scalar.from_int(4)


@settings(max_examples=50, deadline=None)
@given(scalars())
def test_render_parse_round_trip(a):
    assert parse_scalar_text(sc.render_scalar(a)) == a


def _parse_poly_xy(text):
    return parse_poly_text(text, GenTable(["x", "y"]))


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_scalar_text, "0^(-1)", "zero to a negative power"),
        (_parse_poly_xy, "0^(-1)", "zero to a negative power"),
        (parse_scalar_text, "(u-u)^(-2)", "zero to a negative power"),
        (_parse_poly_xy, "(x-x)^(-2)", "zero to a negative power"),
        (_parse_poly_xy, "x^(-1)", "negative power only allowed on nonzero scalars"),
        (_parse_poly_xy, "(u*x)^(-2)", "negative power only allowed on nonzero scalars"),
        (parse_scalar_text, "x", "unknown parameter 'x'"),
        (_parse_poly_xy, "zz", "unknown generator or parameter 'zz'"),
        (parse_scalar_text, "1/(s-s)", "division by zero"),
        (_parse_poly_xy, "x/y", "divisor must be a scalar"),
    ],
)
def test_parser_messages(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_powers_of_constants():
    assert sc.ZERO ** 0 == sc.ONE
    assert parse_scalar_text("0^0") == sc.ONE
    assert _parse_poly_xy("0^0") == NCPoly.one(GenTable(["x", "y"]))
    assert parse_scalar_text("(2/3)^(-2)") == Scalar.from_fraction(Fraction(9, 4))
    assert parse_scalar_text("u^3000 * u^(-2999)") == Scalar.param("u")


def test_params_used():
    u, s = Scalar.param("u"), Scalar.param("s")
    assert (u * s + sc.ONE).params_used() == {"u", "s"}
    assert sc.ZERO.params_used() == set()
    # cancellation removes the parameter
    assert (u / u).params_used() == set()


def test_is_linear_in():
    k, u = Scalar.param("k"), Scalar.param("u")
    assert (u * k + u * u).is_linear_in("k")
    assert ((k + 1) / (u + 1)).is_linear_in("k")
    assert sc.ONE.is_linear_in("k") and u.is_linear_in("k")
    assert not (k * k + k).is_linear_in("k")
    assert not (1 / k).is_linear_in("k")
    assert not (u / (k + u)).is_linear_in("k")


def test_rational_detection():
    u = Scalar.param("u")
    assert not u.is_rational()
    assert (u - u + Scalar.from_fraction(Fraction(3, 4))).as_fraction() == Fraction(3, 4)


def test_hash_consistent_with_eq():
    u = Scalar.param("u")
    a = (u + sc.ONE) * (u - sc.ONE)
    b = u * u - sc.ONE
    assert a == b and hash(a) == hash(b)


# -- the Fraction representation against the field ------------------------

TREE_PARAMS = ("u", "s", "q", "lam", "mu")
small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def trees(draw, depth=3):
    """A random expression tree: ("c", Fraction), ("p", name),
    (op, left, right) for op in + - * /, or ("^", base, exponent)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return ("c", draw(small_rationals))
        return ("p", draw(st.sampled_from(TREE_PARAMS)))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    if op == "^":
        return ("^", draw(trees(depth=depth - 1)), draw(st.integers(-3, 3)))
    return (op, draw(trees(depth=depth - 1)), draw(trees(depth=depth - 1)))


def _evaluate(tree, const, param):
    """(Scalar, FracElement) of a tree, reading it once in each arithmetic.

    The field side is the reference: every value goes through sympy's
    cancelling constructors, so it is canonical.  Every value along the
    way, subtrees included, is checked to be held in its narrowest form.
    A zero divisor, or zero to a negative power, is skipped on both sides
    alike.  A power is a repeated product on the field side, so a power 0
    is the empty product, where sympy refuses 0**0."""
    x, ref = _evaluate_node(tree, const, param)
    assert _is_narrowest(x.f), (tree, x.f)
    return x, ref


def _evaluate_node(tree, const, param):
    kind = tree[0]
    if kind == "c":
        return Scalar.from_fraction(tree[1]), sc.FIELD.one * const(tree[1])
    if kind == "p":
        return Scalar.param(tree[1]), param(tree[1])
    a, fa = _evaluate(tree[1], const, param)
    if kind == "^":
        n = tree[2]
        if n < 0 and not fa:
            n = -n
        # repeated products: sympy squares a polynomial in place after
        # caching its hash, so its powers can carry a stale hash
        ref = sc.FIELD.one
        for _ in range(abs(n)):
            ref = ref * fa
        if n < 0:
            ref = sc.FIELD.one / ref
        return a ** n, ref
    b, fb = _evaluate(tree[2], const, param)
    if kind == "+":
        return a + b, fa + fb
    if kind == "-":
        return a - b, fa - fb
    if kind == "*":
        return a * b, fa * fb
    if not fb:
        return a, fa
    return a / b, fa / fb


def _is_narrowest(f):
    """Whether `f` is a Scalar value in its narrowest form: a Fraction; a
    monomial (exponents over all nine parameters, not all zero, and a
    nonzero Fraction coefficient); or a FracElement whose numerator or
    denominator has more than one term."""
    if type(f) is Fraction:
        return True
    if type(f) is tuple:
        exps, c = f
        return (
            type(exps) is tuple
            and len(exps) == len(sc.PARAM_NAMES)
            and all(type(e) is int for e in exps)
            and any(exps)
            and type(c) is Fraction
            and c != 0
        )
    return (
        isinstance(f, FracElement)
        and f.field is sc.FIELD
        and (len(f.numer) > 1 or len(f.denom) > 1)
    )


def _field_value(f, point):
    """A FracElement at a rational point, or None where its denominator
    vanishes."""

    def poly_at(poly):
        total = Fraction(0)
        for mono, c in poly.terms():
            term = Fraction(int(c.numerator), int(c.denominator))
            for name, e in zip(sc.PARAM_NAMES, mono):
                if e:
                    term *= point[name] ** e
            total += term
        return total

    den = poly_at(f.denom)
    return None if den == 0 else poly_at(f.numer) / den


@settings(max_examples=80, deadline=None)
@given(trees(), st.fixed_dictionaries({n: small_rationals for n in TREE_PARAMS}))
@example(("^", ("-", ("p", "u"), ("p", "u")), 0), {n: Fraction(0) for n in TREE_PARAMS})
# a squared many-term polynomial once kept a hash cached mid-construction
@example(("^", ("+", ("p", "u"), ("p", "s")), -2), {n: Fraction(0) for n in TREE_PARAMS})
@example(("^", ("+", ("p", "u"), ("p", "s")), 2), {n: Fraction(0) for n in TREE_PARAMS})
def test_scalar_agrees_with_the_field(tree, point):
    gens = dict(zip(sc.PARAM_NAMES, sc.FIELD.gens))
    x, ref = _evaluate(tree, lambda c: QQ(c.numerator, c.denominator), gens.get)
    assert sc._lift(x.f) == ref
    want = _as_scalar(ref)
    assert x == want and type(x.f) is type(want.f) and hash(x) == hash(want)
    assert x.is_rational() == (ref.numer.is_ground and ref.denom.is_ground)
    assert x.is_rational() == (type(x.f) is Fraction)
    value = _field_value(ref, point)
    if value is None:
        with pytest.raises(sc.SubstitutionError):
            x.substitute(point)
    else:
        assert x.substitute(point) == Scalar.from_fraction(value)


def test_cancelled_parameter_is_held_as_a_fraction():
    u = Scalar.param("u")
    x = (u + sc.ONE) - u
    assert type(x.f) is Fraction
    assert x == sc.ONE and hash(x) == hash(sc.ONE)
    assert {sc.ONE: "one"}[x] == "one"
    assert type((u * u / u - u).f) is Fraction
    assert (u * sc.ZERO) is sc.ZERO and (sc.ZERO * u) is sc.ZERO


def test_negative_powers_keep_the_sign_in_the_numerator():
    u = Scalar.param("u")
    assert (-u) ** -1 == -(u ** -1)
    assert (sc.ONE - u) ** -2 == sc.ONE / ((u - sc.ONE) * (u - sc.ONE))
    assert Scalar.from_int(-2) ** -1 == Scalar.from_fraction(Fraction(-1, 2))


def test_term_count_of_constants_and_a_quotient():
    u = Scalar.param("u")
    assert sc.ZERO.term_count() == 1
    assert Scalar.from_fraction(Fraction(-3, 4)).term_count() == 2
    assert (u / (u + sc.ONE)).term_count() == 3


def test_substitute_on_a_constant_checks_the_names():
    with pytest.raises(sc.ScalarError, match="unknown parameter 'v'"):
        sc.ONE.substitute({"v": 2})
    assert Scalar.from_int(5).substitute({"u": 0}) == Scalar.from_int(5)


# -- products and quotients of monomials ----------------------------------

nonzero_rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).filter(bool)


@st.composite
def monomials(draw):
    """(Scalar, FracElement) of c * prod p^e over all nine parameters, with
    c a nonzero rational and each e in -3..3; all e zero gives a constant."""
    c = draw(nonzero_rationals)
    exps = draw(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    x, ref = Scalar.from_fraction(c), sc.FIELD.one * QQ(c.numerator, c.denominator)
    for name, gen, e in zip(sc.PARAM_NAMES, sc.FIELD.gens, exps):
        x = x * Scalar.param(name) ** e
        ref = ref * gen ** e
    return x, ref


def _as_scalar(f):
    """A canonical FracElement as the Scalar holding it, read off its
    numerator and denominator: a Fraction when both are constants, an
    (exponents, coefficient) monomial when both have one term, and the
    FracElement itself otherwise."""
    num, den = f.numer.terms(), f.denom.terms()
    if len(num) > 1 or len(den) > 1:
        return Scalar(f)
    if not num:
        return Scalar(Fraction(0))
    ((num_exps, num_c),), ((den_exps, den_c),) = num, den
    c = Fraction(int(num_c.numerator), int(num_c.denominator)) / Fraction(
        int(den_c.numerator), int(den_c.denominator)
    )
    exps = tuple(a - b for a, b in zip(num_exps, den_exps))
    return Scalar((exps, c)) if any(exps) else Scalar(c)


@settings(max_examples=200, deadline=None)
@given(monomials(), monomials())
@example((Scalar.param("u"), sc.FIELD.gens[0]),
         (Scalar.param("u") ** -1, 1 / sc.FIELD.gens[0]))
def test_monomial_products_and_quotients_agree_with_the_field(a, b):
    (x, fx), (y, fy) = a, b
    for got, ref in ((x, fx), (y, fy), (x * y, fx * fy), (x / y, fx / fy)):
        want = _as_scalar(ref)
        assert sc._lift(got.f) == ref
        assert got == want
        assert type(got.f) is type(want.f)
        assert hash(got) == hash(want)
        assert {want: "found"}[got] == "found"


def test_monomials_whose_exponents_cancel_are_fractions():
    u = Scalar.param("u")
    one = u * u ** -1
    assert type(one.f) is Fraction and one == sc.ONE
    half = (Scalar.from_int(2) * u) / (Scalar.from_int(4) * u)
    assert type(half.f) is Fraction and half == Scalar.from_fraction(Fraction(1, 2))
    assert type((sc.ZERO / u).f) is Fraction and sc.ZERO / u == sc.ZERO


# -- adding 0 and multiplying by 1 or -1 -----------------------------------

def _multi_term(pair):
    (x, _), (y, _) = pair
    return x + y + sc.ONE


values_of_each_form = st.one_of(
    small_rationals.map(Scalar.from_fraction),
    monomials().map(lambda m: m[0]).filter(lambda x: not x.is_rational()),
    st.tuples(monomials(), monomials()).map(_multi_term).filter(
        lambda x: isinstance(x.f, FracElement)
    ),
)


@settings(max_examples=150, deadline=None)
@given(values_of_each_form)
def test_adding_zero_and_multiplying_by_one_agree_with_the_field(x):
    fx, lift = sc._lift(x.f), lambda c: sc._lift(Scalar.coerce(c).f)
    cases = [
        (sc.ZERO + x, lift(0) + fx),
        (x + sc.ZERO, fx + lift(0)),
        (0 + x, lift(0) + fx),
        (x + 0, fx + lift(0)),
        (x - sc.ZERO, fx - lift(0)),
        (sc.ZERO - x, lift(0) - fx),
    ]
    cancelling = [(x + -x, fx + -fx), (-x + x, -fx + fx), (x - x, fx - fx)]
    cases += cancelling
    for c in (1, -1):
        cases += [
            (Scalar.from_int(c) * x, lift(c) * fx),
            (x * Scalar.from_int(c), fx * lift(c)),
            (c * x, lift(c) * fx),
            (x * c, fx * lift(c)),
        ]
    for got, ref in cases:
        want = _as_scalar(ref)
        assert sc._lift(got.f) == ref
        assert got == want
        assert type(got.f) is type(want.f)
        assert hash(got) == hash(want)
    for got, _ in cancelling:
        assert got == sc.ZERO
    # without arithmetic: the other operand itself comes back
    assert sc.ZERO + x is x and sc.ONE * x is x
    if x not in (sc.ZERO, sc.ONE, -sc.ONE):
        assert x + sc.ZERO is x and x - sc.ZERO is x and x * sc.ONE is x
    if type(x.f) is tuple:
        # two monomials that cancel never enter the field
        def field_op(*args):
            raise AssertionError(f"field path entered for {args}")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sc, "_field_op", field_op)
            assert x + -x is sc.ZERO and -x + x is sc.ZERO and x - x is sc.ZERO


def test_like_sums_that_do_not_cancel_take_the_field(monkeypatch):
    """Near misses of the cancellation shortcut: equal exponents with
    coefficients that do not cancel, and opposite coefficients on unequal
    exponents.  Each sum enters the field once and agrees with it."""
    u, s, two = Scalar.param("u"), Scalar.param("s"), Scalar.from_int(2)
    near_misses = [
        (two * u, operator.sub, u),
        (u, operator.add, -(u * u)),
        (u, operator.sub, -u),
        (u, operator.add, u),
        (u, operator.sub, two * u),
        (u, operator.sub, u * s),
        (u, operator.add, -(u * s)),
    ]
    entered = []
    real = sc._field_op

    def field_op(*args):
        entered.append(args)
        return real(*args)

    monkeypatch.setattr(sc, "_field_op", field_op)
    for x, op, y in near_misses:
        del entered[:]
        got = op(x, y)
        want = _as_scalar(op(sc._lift(x.f), sc._lift(y.f)))
        assert got == want and type(got.f) is type(want.f) and hash(got) == hash(want)
        assert not got.is_zero() and len(entered) == 1, (x, op, y)


# -- every stored value is in its narrowest form ---------------------------

def test_no_value_is_stored_in_a_wider_form_than_it_needs(monkeypatch):
    """While the 18 suites run symbolically and at u=2,s=3, and while
    derivatives of every coordinate word of length <= 3 are taken at both,
    no Scalar holds a monomial, or a constant, as a FracElement.  The memo
    starts empty, so the systems are built under the audit too."""
    wide, stored = [], []
    real_init = Scalar.__init__

    def init(self, f):
        stored.append(None)
        if not _is_narrowest(f):
            wide.append(f)
        real_init(self, f)

    monkeypatch.setattr(memo, "_symbolic", {})
    monkeypatch.setattr(memo, "_point", {})
    monkeypatch.setattr(memo, "_point_key", ())
    monkeypatch.setattr(Scalar, "__init__", init)
    for bindings in (None, {"u": Fraction(2), "s": Fraction(3)}):
        for name in _SUITES:
            assert run_suite(name, bindings, False).ok, name
        table = builtin("xspace", bindings).table
        for n in range(4):
            for word in itertools.product(range(len(table)), repeat=n):
                for i in (1, 2, 3):
                    apply_derivative(i, NCPoly.word(table, word), bindings)
    assert len(stored) > 10000
    assert wide == []


# -- no suite divides by a sum ---------------------------------------------

@pytest.mark.parametrize(
    "bindings", [None, {"u": Fraction(2), "s": Fraction(3)}], ids=["symbolic", "u=2,s=3"]
)
def test_no_suite_builds_a_denominator_of_more_than_one_term(bindings, monkeypatch):
    """While the 18 suites and the three generic-q variants run, with the
    memo empty so that every system is built under the census, no Scalar
    holds a value whose denominator has more than one term (u^2 - 1,
    u^2 - q, ...): no span or eigenspace check divides by a sum."""
    wide, stored = [], []
    real_init = Scalar.__init__

    def init(self, f):
        stored.append(None)
        if type(f) is FracElement and len(f.denom) > 1:
            wide.append(f)
        real_init(self, f)

    monkeypatch.setattr(memo, "_symbolic", {})
    monkeypatch.setattr(memo, "_point", {})
    monkeypatch.setattr(memo, "_point_key", ())
    monkeypatch.setattr(Scalar, "__init__", init)
    for name, (_, supports_gq) in _SUITES.items():
        for generic_q in (False, True) if supports_gq else (False,):
            run_suite(name, bindings, generic_q)
    assert len(stored) > 5000
    assert wide == []
