"""Exact coefficient field: rational functions in the deformation parameters.

Scalars live in QQ(u, s, q, k, c21, lam, lam12, mu, mu12).  The parameters
u, q enter with negative powers throughout (they sit in denominators), s
only positively; the last six names are the unknown coefficients of the
one-form ansatz and are carried as ordinary field generators.  Everything
is exact: no floating point anywhere.

A scalar has one of two representations.  A value in which no parameter
occurs is a `fractions.Fraction`; at a rational point almost every
coefficient is one, and Fraction arithmetic skips sympy's polynomial gcd.
A value in which some parameter occurs is a sympy `FracElement` of
`FIELD`.  An operation with a `FracElement` operand lifts the other
operand into `FIELD` and demotes its result to a `Fraction` when neither
numerator nor denominator carries a parameter, so every value has exactly
one representation.  Only this module knows either of them.

Almost every coefficient met in rewriting is a Laurent monomial
c*u^a*s^b*..., and a product or quotient of two monomials never reaches
the gcd: it multiplies or divides the coefficients, adds or subtracts the
exponents and builds the canonical FracElement directly.  Sums, and
products with a non-monomial operand, take the field path.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.fields import field

PARAM_NAMES = ("u", "s", "q", "k", "c21", "lam", "lam12", "mu", "mu12")

_FIELD_AND_GENS = field(PARAM_NAMES, QQ)
FIELD = _FIELD_AND_GENS[0]
_RING = FIELD.ring
_GENS = dict(zip(PARAM_NAMES, _FIELD_AND_GENS[1:]))
_CONST = _RING.zero_monom
_QQ = QQ.dtype


class ScalarError(Exception):
    pass


class SubstitutionError(ScalarError):
    """A binding made a denominator vanish."""


def _lift(f):
    """`f` as an element of FIELD.

    A Fraction is in lowest terms with a positive denominator, which is
    already FIELD's canonical form, so it is wrapped without a gcd."""
    if type(f) is Fraction:
        return FIELD.raw_new(
            _RING.ground_new(QQ(f.numerator)), _RING.ground_new(QQ(f.denominator))
        )
    return f


def _to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _monomial(f):
    """(numerator, denominator, exponents) of a Laurent monomial
    n/d*u^a*s^b*..., or None.  A Fraction is a monomial with every exponent
    zero.  In FIELD's canonical form the two coefficients of a monomial are
    already n and d: coprime integers, d positive."""
    if type(f) is Fraction:
        return f.numerator, f.denominator, _CONST
    n, d = f.numer, f.denom
    if len(n) != 1 or len(d) != 1:
        return None
    ((mn, cn),) = n.items()
    ((md, cd),) = d.items()
    return int(cn.numerator), int(cd.numerator), tuple(map(operator.sub, mn, md))


def _from_monomial(c: Fraction, exps) -> "Scalar":
    """The scalar c*u^a*s^b*... in canonical form, built without a gcd:
    the numerator of c and the positive exponents on top, the denominator
    of c and the negated negative exponents below."""
    if not c or not any(exps):
        return Scalar(c)
    up = tuple(e if e > 0 else 0 for e in exps)
    down = tuple(-e if e < 0 else 0 for e in exps)
    return Scalar(FIELD.raw_new(
        _RING.dtype({up: _QQ(c.numerator)}), _RING.dtype({down: _QQ(c.denominator)})
    ))


def _field_op(op, a, b) -> "Scalar":
    """`op` on FIELD, the result demoted to a Fraction when it is constant.

    A product or quotient of two monomials is computed on their
    coefficients and exponents and never reaches the gcd."""
    if op is operator.mul or op is operator.truediv:
        ma, mb = _monomial(a), _monomial(b)
        if ma is not None and mb is not None:
            (na, da, ea), (nb, db, eb) = ma, mb
            if op is operator.mul:
                c, exp_op = Fraction(na * nb, da * db), operator.add
            else:
                c, exp_op = Fraction(na * db, da * nb), operator.sub
            return _from_monomial(c, tuple(map(exp_op, ea, eb)))
    f = op(_lift(a), _lift(b))
    n, d = f.numer, f.denom
    if n.is_ground and d.is_ground:
        return Scalar(_to_fraction(n.get(_CONST, 0)) / _to_fraction(d[_CONST]))
    return Scalar(f)


def _sub(a, b) -> "Scalar":
    if type(b) is Fraction:
        if type(a) is Fraction:
            return Scalar(a - b)
        if not b:
            return Scalar(a)
    elif type(a) is Fraction and not a:
        return Scalar(-b)
    return _field_op(operator.sub, a, b)


def _div(a, b) -> "Scalar":
    if type(b) is Fraction:
        if not b:
            raise ZeroDivisionError("Scalar division by zero")
        if type(a) is Fraction:
            return Scalar(a / b)
    return _field_op(operator.truediv, a, b)


def _value(x):
    return x.f if isinstance(x, Scalar) else Scalar.coerce(x).f


class Scalar:
    """Immutable element of the coefficient field, kept in canonical form.

    `f` is a Fraction when no parameter occurs and a sympy FracElement in
    lowest terms when some parameter does (see the module docstring).  Each
    value has one representation, so two equal scalars compare equal
    structurally and hash alike.
    """

    __slots__ = ("f",)

    def __init__(self, f):
        object.__setattr__(self, "f", f)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_int(n) -> "Scalar":
        return Scalar(Fraction(n))

    @staticmethod
    def from_fraction(fr) -> "Scalar":
        return Scalar(Fraction(fr))

    @staticmethod
    def param(name: str) -> "Scalar":
        if name not in _GENS:
            raise ScalarError(f"unknown parameter {name!r}; known: {PARAM_NAMES}")
        return Scalar(_GENS[name])

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar.from_int(x)
        if isinstance(x, Fraction):
            return Scalar.from_fraction(x)
        raise ScalarError(f"cannot coerce {x!r} to Scalar")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        a, b = self.f, _value(other)
        if type(a) is Fraction:
            if type(b) is Fraction:
                return Scalar(a + b)
            a, b = b, a  # the sum commutes: the parameter goes on the left
        if type(b) is Fraction and not b:
            return Scalar(a)
        return _field_op(operator.add, a, b)

    __radd__ = __add__

    def __sub__(self, other):
        return _sub(self.f, _value(other))

    def __rsub__(self, other):
        return _sub(_value(other), self.f)

    def __mul__(self, other):
        a, b = self.f, _value(other)
        if type(a) is Fraction:
            if type(b) is Fraction:
                return Scalar(a * b)
            a, b = b, a  # the product commutes: the parameter goes on the left
        if type(b) is Fraction:
            if not b:
                return ZERO
            if b == 1:
                return Scalar(a)
        return _field_op(operator.mul, a, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _div(self.f, _value(other))

    def __rtruediv__(self, other):
        return _div(_value(other), self.f)

    def __pow__(self, n: int):
        if n < 0 and self.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        if not n:
            return ONE  # the empty product, 0**0 included
        f = self.f
        if type(f) is Fraction or n > 0:
            return Scalar(f ** n)
        # sympy inverts by swapping numerator and denominator, which can
        # leave the sign in the denominator; canonical form keeps it on top
        num, den = f.denom ** -n, f.numer ** -n
        if den.LC < 0:
            num, den = -num, -den
        return Scalar(FIELD.raw_new(num, den))

    def __neg__(self):
        return Scalar(-self.f)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self.f, other.f
        return type(a) is type(b) and a == b

    def __hash__(self):
        return hash(self.f)

    def is_zero(self) -> bool:
        f = self.f
        return type(f) is Fraction and not f

    def is_one(self) -> bool:
        f = self.f
        return type(f) is Fraction and f == 1

    # -- queries ----------------------------------------------------------

    def is_rational(self) -> bool:
        """True when no parameter occurs."""
        return type(self.f) is Fraction

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not a rational constant")
        return self.f

    def _parts(self):
        """(numerator terms, denominator terms), each a list of
        (exponent tuple, rational coefficient); a constant is its value
        over 1."""
        f = self.f
        if type(f) is Fraction:
            return ([(_CONST, f)] if f else []), [(_CONST, 1)]
        return f.numer.terms(), f.denom.terms()

    def term_count(self) -> int:
        """Terms of the numerator plus terms of the denominator."""
        num, den = self._parts()
        return len(num) + len(den)

    def params_used(self):
        num, den = self._parts()
        return {
            name
            for mono, _ in num + den
            for name, e in zip(PARAM_NAMES, mono)
            if e
        }

    # -- substitution -----------------------------------------------------

    def substitute(self, bindings) -> "Scalar":
        """Exact substitution of parameters by Scalars/rationals.

        Raises SubstitutionError (naming the offending parameter set) when
        the denominator vanishes under the binding.
        """
        vals = {}
        for name, v in bindings.items():
            if name not in _GENS:
                raise ScalarError(f"unknown parameter {name!r}")
            vals[name] = Scalar.coerce(v)
        if self.is_rational():
            return self

        def eval_terms(terms) -> Scalar:
            total = ZERO
            for mono, coeff in terms:
                term = Scalar(_to_fraction(coeff))
                for name, e in zip(PARAM_NAMES, mono):
                    if e == 0:
                        continue
                    base = vals.get(name, PARAMS[name])
                    term = term * base ** e
                total = total + term
            return total

        num_terms, den_terms = self._parts()
        num = eval_terms(num_terms)
        den = eval_terms(den_terms)
        if den.is_zero():
            names = sorted(vals)
            raise SubstitutionError(
                f"denominator of {self} vanishes under binding {{{', '.join(names)}}}"
            )
        return num / den

    # -- rendering --------------------------------------------------------

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return f"Scalar({render_scalar(self)})"


ZERO = Scalar(Fraction(0))
ONE = Scalar(Fraction(1))
PARAMS = {name: Scalar(g) for name, g in _GENS.items()}
U = PARAMS["u"]
S = PARAMS["s"]
Q = PARAMS["q"]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_coeff(c) -> str:
    """Render a positive rational coefficient as int or int/int."""
    n, d = int(c.numerator), int(c.denominator)
    return str(n) if d == 1 else f"{n}/{d}"


def _render_monomial(mono, coeff) -> str:
    factors = []
    c = coeff
    neg = c < 0
    if neg:
        c = -c
    body = []
    for name, e in zip(PARAM_NAMES, mono):
        if e == 0:
            continue
        if e == 1:
            body.append(name)
        elif e > 0:
            body.append(f"{name}^{e}")
        else:
            body.append(f"{name}^({e})")
    if not body or c != 1:
        factors.append(_render_coeff(c))
    factors.extend(body)
    return ("-" if neg else "") + "*".join(factors)


def _render_terms(terms) -> str:
    terms = sorted(terms, key=lambda t: t[0], reverse=True)
    if not terms:
        return "0"
    out = []
    for i, (mono, coeff) in enumerate(terms):
        piece = _render_monomial(mono, coeff)
        if i == 0:
            out.append(piece)
        elif piece.startswith("-"):
            out.append(" - " + piece[1:])
        else:
            out.append(" + " + piece)
    return "".join(out)


def render_scalar(x: Scalar) -> str:
    num, den = x._parts()
    if len(den) == 1:
        # monomial denominator: fold into Laurent-style exponents
        dm, dc = den[0]
        adjusted = [
            (tuple(e - f for e, f in zip(m, dm)), c / dc) for m, c in num
        ]
        return _render_terms(adjusted)
    ns = _render_terms(num)
    ds = f"({_render_terms(den)})"
    if len(num) > 1:
        ns = f"({ns})"
    return f"{ns}/{ds}"
