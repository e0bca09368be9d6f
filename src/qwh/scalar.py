"""Exact coefficient field: rational functions in the deformation parameters.

Scalars live in QQ(u, s, q, k, c21, lam, lam12, mu, mu12).  The parameters
u, q enter with negative powers throughout (they sit in denominators), s
only positively; the last six names are the unknown coefficients of the
one-form ansatz and are carried as ordinary field generators.  Everything
is exact: no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.fields import field

PARAM_NAMES = ("u", "s", "q", "k", "c21", "lam", "lam12", "mu", "mu12")

_FIELD_AND_GENS = field(PARAM_NAMES, QQ)
FIELD = _FIELD_AND_GENS[0]
_GENS = dict(zip(PARAM_NAMES, _FIELD_AND_GENS[1:]))


class ScalarError(Exception):
    pass


class SubstitutionError(ScalarError):
    """A binding made a denominator vanish."""


class Scalar:
    """Immutable element of the coefficient field, kept in canonical form.

    Wraps a sympy FracElement; gcd cancellation and denominator
    normalization happen on every operation, so two equal scalars compare
    equal structurally.
    """

    __slots__ = ("f",)

    def __init__(self, f):
        object.__setattr__(self, "f", f)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_int(n) -> "Scalar":
        return Scalar(FIELD.one * QQ(n))

    @staticmethod
    def from_fraction(fr) -> "Scalar":
        fr = Fraction(fr)
        return Scalar(FIELD.one * QQ(fr.numerator, fr.denominator))

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
        return Scalar(self.f + Scalar.coerce(other).f)

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.f - Scalar.coerce(other).f)

    def __rsub__(self, other):
        return Scalar(Scalar.coerce(other).f - self.f)

    def __mul__(self, other):
        return Scalar(self.f * Scalar.coerce(other).f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        return Scalar(self.f / other.f)

    def __rtruediv__(self, other):
        if self.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        return Scalar(Scalar.coerce(other).f / self.f)

    def __pow__(self, n: int):
        if n < 0 and self.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        # sympy refuses 0**0; as the empty product it is 1
        return Scalar(self.f ** n) if n else ONE

    def __neg__(self):
        return Scalar(-self.f)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.f == other.f

    def __hash__(self):
        return hash(self.f)

    def is_zero(self) -> bool:
        return self.f.numer == 0

    def is_one(self) -> bool:
        return self.f == FIELD.one

    # -- queries ----------------------------------------------------------

    def is_rational(self) -> bool:
        """True when no parameter occurs (numerator and denominator constant)."""
        n, d = self.f.numer, self.f.denom
        return all(all(e == 0 for e in m) for m, _ in n.terms()) and all(
            all(e == 0 for e in m) for m, _ in d.terms()
        )

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not a rational constant")
        if self.f.numer == 0:
            return Fraction(0)
        num = self.f.numer.terms()[0][1]
        den = self.f.denom.terms()[0][1]
        val = num / den
        return Fraction(int(val.numerator), int(val.denominator))

    def term_count(self) -> int:
        """Terms of the numerator plus terms of the denominator."""
        return len(self.f.numer.terms()) + len(self.f.denom.terms())

    def params_used(self):
        used = set()
        for poly in (self.f.numer, self.f.denom):
            for mono, _ in poly.terms():
                for name, e in zip(PARAM_NAMES, mono):
                    if e:
                        used.add(name)
        return used

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

        def eval_poly(poly) -> Scalar:
            total = ZERO
            for mono, coeff in poly.terms():
                term = Scalar(FIELD.one * coeff)
                for name, e in zip(PARAM_NAMES, mono):
                    if e == 0:
                        continue
                    base = vals.get(name, PARAMS[name])
                    term = term * base ** e
                total = total + term
            return total

        num = eval_poly(self.f.numer)
        den = eval_poly(self.f.denom)
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


ZERO = Scalar(FIELD.zero)
ONE = Scalar(FIELD.one)
PARAMS = {name: Scalar(g) for name, g in _GENS.items()}
U = PARAMS["u"]
S = PARAMS["s"]
Q = PARAMS["q"]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_coeff(c) -> str:
    """Render a QQ coefficient (assumed positive) as int or int/int."""
    n, d = int(c.numerator), int(c.denominator)
    return str(n) if d == 1 else f"{n}/{d}"


def _render_monomial(mono, coeff, variables=PARAM_NAMES) -> str:
    factors = []
    c = coeff
    neg = c < 0
    if neg:
        c = -c
    body = []
    for name, e in zip(variables, mono):
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


def render_poly(poly) -> str:
    return _render_terms(poly.terms())


def render_scalar(x: Scalar) -> str:
    num, den = x.f.numer, x.f.denom
    den_terms = den.terms()
    if len(den_terms) == 1:
        # monomial denominator: fold into Laurent-style exponents
        dm, dc = den_terms[0]
        adjusted = [
            (tuple(e - f for e, f in zip(m, dm)), c / dc) for m, c in num.terms()
        ]
        return _render_terms(adjusted)
    ns = render_poly(num)
    ds = f"({render_poly(den)})"
    if len(num.terms()) > 1:
        ns = f"({ns})"
    return f"{ns}/{ds}"

