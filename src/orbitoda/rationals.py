"""Exact coefficient field for the whole package.

Every scalar that appears in the verified formulas lives in
Q(nu0, nu1) localized at the single linear form nu0 - nu1: numerators are
polynomials in (nu0, nu1) and denominators are rational multiples of powers
of (nu0 - nu1).  We therefore store elements as sparse Laurent polynomials
in the adapted symbols

    D := nu0 - nu1  (Laurent, exponent in Z)
    S := nu1        (polynomial, exponent in Z>=0)

with Fraction coefficients.  Addition and multiplication never need a gcd;
division is only defined by invertible elements (monomials c*D^a*S^b), which
is what the formulas actually require.

The derived parameters nu = (nu0-nu1)/k and nubar = (nu1-nu0)/m are
constructors, never independent symbols.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import NonUnit

_FRAC_ZERO = Fraction(0)


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} into an exact rational")


class ParamRat:
    """Element of Q[nu1][ (nu0-nu1)^{+-1} ]."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction]):
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ParamRat":
        return ParamRat({})

    @staticmethod
    def one() -> "ParamRat":
        return ParamRat({(0, 0): Fraction(1)})

    @staticmethod
    def rational(r) -> "ParamRat":
        r = _coerce(r)
        return ParamRat({(0, 0): r} if r else {})

    @staticmethod
    def monomial(c, d_pow: int, s_pow: int) -> "ParamRat":
        c = _coerce(c)
        if s_pow < 0:
            raise ValueError("S-exponent must be nonnegative")
        return ParamRat({(d_pow, s_pow): c} if c else {})

    @staticmethod
    def nu0() -> "ParamRat":
        return ParamRat({(1, 0): Fraction(1), (0, 1): Fraction(1)})

    @staticmethod
    def nu1() -> "ParamRat":
        return ParamRat({(0, 1): Fraction(1)})

    @staticmethod
    def diff() -> "ParamRat":
        """nu0 - nu1."""
        return ParamRat({(1, 0): Fraction(1)})

    @staticmethod
    def nu(k: int) -> "ParamRat":
        """(nu0 - nu1)/k."""
        return ParamRat({(1, 0): Fraction(1, k)})

    @staticmethod
    def nubar(m: int) -> "ParamRat":
        """(nu1 - nu0)/m."""
        return ParamRat({(1, 0): Fraction(-1, m)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def homogeneous_degree(self):
        """Total degree in (nu0, nu1) if homogeneous, else None.

        Both D and S carry degree 1, matching deg nu0 = deg nu1 = 1.
        """
        degs = {a + b for (a, b) in self.terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_paramrat(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, val in other.terms.items():
            acc = out.get(key)
            if acc is None:
                out[key] = val
            else:
                acc = acc + val
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return ParamRat(out)

    __radd__ = __add__

    def __neg__(self):
        return ParamRat({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = _as_paramrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _as_paramrat(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return ParamRat({})
        if len(other.terms) == 1:
            ((bd, bs), bv), = other.terms.items()
            return ParamRat({(ad + bd, as_ + bs): av * bv
                             for (ad, as_), av in self.terms.items()})
        out: dict[tuple[int, int], Fraction] = {}
        for (ad, as_), av in self.terms.items():
            for (bd, bs), bv in other.terms.items():
                key = (ad + bd, as_ + bs)
                acc = out.get(key)
                prod = av * bv
                if acc is None:
                    out[key] = prod
                else:
                    acc = acc + prod
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        return ParamRat(out)

    __rmul__ = __mul__

    def inverse(self) -> "ParamRat":
        if len(self.terms) != 1:
            raise NonUnit(f"cannot invert non-monomial coefficient {self}")
        ((d, s), v), = self.terms.items()
        if s != 0:
            # 1/nu1^s stays outside the localized ring.
            raise NonUnit(f"cannot invert {self}: nonzero nu1-degree")
        return ParamRat({(-d, 0): Fraction(1) / v})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                raise ZeroDivisionError("division by zero")
            return ParamRat({k: v / c for k, v in self.terms.items()})
        if isinstance(other, ParamRat):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ParamRat.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def swap_nu(self) -> "ParamRat":
        """The image under nu0 <-> nu1: D -> -D, S -> S + D."""
        out = ParamRat.zero()
        nu0 = ParamRat.nu0()
        for (a, b), v in self.terms.items():
            out = out + ParamRat.monomial(v * (-1) ** (a % 2), a, 0) * nu0 ** b
        return out

    def __eq__(self, other):
        other = _as_paramrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a pure rational equals its Fraction (and int), so it hashes as one
        if self.is_rational():
            return hash(self.terms.get((0, 0), _FRAC_ZERO))
        return hash(frozenset(self.terms.items()))

    # -- display -----------------------------------------------------------

    def _expanded_nu(self) -> tuple[dict[tuple[int, int], Fraction], int]:
        """Rewrite as polynomial in (nu0, nu1) over (nu0-nu1)^shift."""
        shift = -min((d for (d, _s) in self.terms), default=0)
        shift = max(shift, 0)
        out: dict[tuple[int, int], Fraction] = {}
        for (d, s), v in self.terms.items():
            # (nu0-nu1)^(d+shift) * nu1^s
            e = d + shift
            coeffs = _binomial_signs(e)
            for j, b in enumerate(coeffs):
                key = (e - j, s + j)
                acc = out.get(key, _FRAC_ZERO) + v * b
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return out, shift

    def __str__(self):
        if not self.terms:
            return "0"
        num, shift = self._expanded_nu()
        parts = []
        for (e0, e1) in sorted(num, reverse=True):
            v = num[(e0, e1)]
            mono = []
            if e0:
                mono.append("nu0" + (f"^{e0}" if e0 != 1 else ""))
            if e1:
                mono.append("nu1" + (f"^{e1}" if e1 != 1 else ""))
            body = "*".join(mono)
            if v == 1 and body:
                parts.append(body)
            elif v == -1 and body:
                parts.append(f"-{body}")
            else:
                parts.append(f"{v}*{body}" if body else f"{v}")
        s = " + ".join(parts).replace("+ -", "- ")
        if shift:
            den = "(nu0-nu1)" + (f"^{shift}" if shift > 1 else "")
            s = f"({s})/{den}"
        return s

    __repr__ = __str__


def _binomial_signs(e: int) -> list[int]:
    """Coefficients of (nu0 - nu1)^e as sum of nu0^(e-j) * nu1^j."""
    return [(-1) ** j * comb(e, j) for j in range(e + 1)]


def _as_paramrat(value):
    if isinstance(value, ParamRat):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamRat.rational(value)
    return NotImplemented


PR = ParamRat  # short alias used throughout the package

