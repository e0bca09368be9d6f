"""Exact coefficient field: rational functions in the deformation parameters.

Scalars live in QQ(u, s, q, k, c21, lam, lam12, mu, mu12).  The parameters
u, q enter with negative powers throughout (they sit in denominators), s
only positively; the last six names are the unknown coefficients of the
one-form ansatz and are carried as ordinary field generators.  Everything
is exact: no floating point anywhere.

A scalar has one of three representations, and each value has exactly one:

- a `fractions.Fraction` when no parameter occurs.  At a rational point
  almost every coefficient is one;
- a Laurent monomial c*u^a*s^b*... in which some exponent is nonzero, held
  as one term: the pair (exponent tuple over PARAM_NAMES, nonzero Fraction
  c).  Symbolically almost every coefficient met in rewriting is one;
- a sympy `FracElement` of `FIELD` in lowest terms for everything else,
  that is when the numerator or the denominator has more than one term.

Products, quotients, powers and negations of Fractions and monomials are
computed on the coefficients and the exponent tuples and never build a
sympy object.  Adding 0, or multiplying by 1 or -1, returns the other
operand or its negation without arithmetic, and a sum of two monomials
that cancel (x + (-x), x - x) is 0 without the field.  Every other sum,
and every operation with a FracElement operand, lifts both operands into
FIELD and takes the field path, and the result is demoted to the narrowest
representation.  A like sum that does not cancel, 2u - u say, could be
summed natively too, but sums are where symbolic work enters sympy's
`PolyElement.cancel`, and the benchmark's tracer requires every workload to
enter that boundary; such sums stay on the field path until that
requirement is revised.  Only this module knows the representations.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.fields import field

PARAM_NAMES = ("u", "s", "q", "k", "c21", "lam", "lam12", "mu", "mu12")

FIELD = field(PARAM_NAMES, QQ)[0]
_RING = FIELD.ring
_CONST = _RING.zero_monom
_FRAC = type(FIELD.one)
_POLY = type(_RING.one)
_QQ = QQ.dtype


class ScalarError(Exception):
    pass


class SubstitutionError(ScalarError):
    """A binding made a denominator vanish."""


def _split(exps):
    """Laurent exponents as (positive part, negated negative part)."""
    up = tuple([e if e > 0 else 0 for e in exps])
    return up, tuple([-e if e < 0 else 0 for e in exps])


def _lift(f):
    """`f` as an element of FIELD, built without a gcd.

    A nonzero Fraction is in lowest terms with a positive denominator,
    which is already FIELD's canonical form.  A monomial puts the numerator
    of its coefficient and its positive exponents on top, and the
    denominator and the negated negative exponents below."""
    if type(f) is Fraction:
        if not f:
            return FIELD.zero
        c, up, down = f, _CONST, _CONST
    elif type(f) is tuple:
        (up, down), c = _split(f[0]), f[1]
    else:
        return f
    num = _POLY(_RING, {up: _QQ(c.numerator)})
    return _FRAC(FIELD, num, _POLY(_RING, {down: _QQ(c.denominator)}))


def _to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _laurent(exps, c: Fraction) -> "Scalar":
    """c*u^a*s^b*... for a nonzero c: a Fraction when every exponent is 0."""
    return Scalar((exps, c)) if any(exps) else Scalar(c)


def _demote(f) -> "Scalar":
    """A FracElement in lowest terms as a Scalar in its narrowest form."""
    n, d = f.numer, f.denom
    if len(n) > 1 or len(d) > 1:
        return Scalar(f)
    if not n:
        return ZERO
    ((mn, cn),) = n.items()
    ((md, cd),) = d.items()
    c = _to_fraction(cn) / _to_fraction(cd)
    return _laurent(tuple(map(operator.sub, mn, md)), c)


def _field_op(op, a, b) -> "Scalar":
    return _demote(op(_lift(a), _lift(b)))


def _coeff_product(a: Fraction, b: Fraction) -> Fraction:
    """a*b, without arithmetic when a factor is 1 or -1, as the coefficients
    of almost all monomials are."""
    if a == 1:
        return b
    if b == 1:
        return a
    if a == -1:
        return -b
    if b == -1:
        return -a
    return a * b


def _mul(x: "Scalar", y: "Scalar") -> "Scalar":
    a, b = x.f, y.f
    if type(a) is not Fraction:
        if type(b) is not Fraction:
            if type(a) is tuple and type(b) is tuple:
                return _laurent(
                    tuple(map(operator.add, a[0], b[0])), _coeff_product(a[1], b[1])
                )
            return _field_op(operator.mul, a, b)
        x, y, a, b = y, x, b, a  # the product commutes: the Fraction goes on the left
    if not a:
        return ZERO
    if a == 1:
        return y
    if a == -1:
        return -y
    if type(b) is Fraction:
        if b == 1:
            return x
        if b == -1:
            return Scalar(-a)
        return Scalar(a * b)
    if type(b) is tuple:
        return Scalar((b[0], _coeff_product(a, b[1])))
    return _field_op(operator.mul, a, b)


def _sub(x: "Scalar", y: "Scalar") -> "Scalar":
    a, b = x.f, y.f
    if type(b) is Fraction:
        if not b:
            return x
        if type(a) is Fraction:
            return Scalar(a - b)
    elif type(a) is Fraction and not a:
        return -y
    elif type(a) is tuple and type(b) is tuple and a == b:
        return ZERO
    return _field_op(operator.sub, a, b)


def _div(a, b) -> "Scalar":
    if type(b) is Fraction:
        if not b:
            raise ZeroDivisionError("Scalar division by zero")
        if type(a) is Fraction:
            return Scalar(a / b)
        if type(a) is tuple:
            return Scalar((a[0], a[1] / b))
    elif type(b) is tuple:
        if type(a) is Fraction:
            return Scalar((tuple(-e for e in b[0]), a / b[1])) if a else ZERO
        if type(a) is tuple:
            return _laurent(tuple(map(operator.sub, a[0], b[0])), a[1] / b[1])
    return _field_op(operator.truediv, a, b)


def _scalar(x) -> "Scalar":
    return x if type(x) is Scalar else Scalar.coerce(x)


class Scalar:
    """Immutable element of the coefficient field, kept in canonical form.

    `f` is a Fraction when no parameter occurs, an (exponents, coefficient)
    pair for a Laurent monomial in which some parameter does, and a sympy
    FracElement in lowest terms otherwise (see the module docstring).  Each
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
        if name not in PARAMS:
            raise ScalarError(f"unknown parameter {name!r}; known: {PARAM_NAMES}")
        return PARAMS[name]

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
        other = _scalar(other)
        a, b = self.f, other.f
        if type(a) is Fraction and not a:
            return other
        if type(b) is Fraction:
            if not b:
                return self
            if type(a) is Fraction:
                return Scalar(a + b)
        elif type(a) is tuple and type(b) is tuple and a[0] == b[0] and a[1] == -b[1]:
            return ZERO
        return _field_op(operator.add, a, b)

    __radd__ = __add__

    def __sub__(self, other):
        return _sub(self, _scalar(other))

    def __rsub__(self, other):
        return _sub(_scalar(other), self)

    def __mul__(self, other):
        return _mul(self, _scalar(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _div(self.f, _scalar(other).f)

    def __rtruediv__(self, other):
        return _div(_scalar(other).f, self.f)

    def __pow__(self, n: int):
        if n < 0 and self.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        if not n:
            return ONE  # the empty product, 0**0 included
        f = self.f
        if type(f) is tuple:
            return Scalar((tuple(e * n for e in f[0]), f[1] ** n))
        if type(f) is Fraction:
            return Scalar(f ** n)
        # a power of a many-term numerator or denominator has many terms, so
        # a FracElement's power needs no demotion.  sympy squares a
        # polynomial in place after caching its hash, so the powers are
        # copied into fresh polynomials, whose hashes are computed anew
        num, den = (f.numer, f.denom) if n > 0 else (f.denom, f.numer)
        num, den = _POLY(_RING, num ** abs(n)), _POLY(_RING, den ** abs(n))
        # inverting swaps numerator and denominator, which can leave the
        # sign in the denominator; canonical form keeps it on top
        if den.LC < 0:
            num, den = -num, -den
        return Scalar(FIELD.raw_new(num, den))

    def __neg__(self):
        f = self.f
        if type(f) is tuple:
            return Scalar((f[0], -f[1]))
        return Scalar(-f)

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
        if type(f) is tuple:
            (up, down), c = _split(f[0]), f[1]
            return [(up, Fraction(c.numerator))], [(down, Fraction(c.denominator))]
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

    def is_linear_in(self, name: str) -> bool:
        """True when the parameter `name` has degree at most 1 in every
        numerator term and does not occur in the denominator."""
        i = PARAM_NAMES.index(name)
        num, den = self._parts()
        return all(m[i] <= 1 for m, _ in num) and not any(m[i] for m, _ in den)

    # -- substitution -----------------------------------------------------

    def substitute(self, bindings) -> "Scalar":
        """Exact substitution of parameters by Scalars/rationals.

        Raises SubstitutionError (naming the offending parameter set) when
        the denominator vanishes under the binding.
        """
        vals = {}
        for name, v in bindings.items():
            if name not in PARAMS:
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
PARAMS = {
    name: Scalar((tuple(int(i == j) for j in range(len(PARAM_NAMES))), Fraction(1)))
    for i, name in enumerate(PARAM_NAMES)
}
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
