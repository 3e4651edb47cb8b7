"""Exact coefficient field for the whole package.

Every scalar that appears in the verified formulas lives in
Q(nu0, nu1) localized at the single linear form nu0 - nu1: numerators are
polynomials in (nu0, nu1) and denominators are rational multiples of powers
of (nu0 - nu1).  We therefore store elements as sparse Laurent polynomials
in the adapted symbols

    D := nu0 - nu1  (Laurent, exponent in Z)
    S := nu1        (polynomial, exponent in Z>=0)

with integer numerators over one shared integer denominator, the layout of
FLINT's ``fmpq_poly``: ``num`` maps (d, s) to the integer numerator of
D^d S^s and ``den`` is shared by all of them.  Every operation returns the
canonical form -- ``den > 0``, gcd(den, numerators) = 1, no zero numerator,
``den == 1`` for zero -- so equal elements have equal fields.  Reduction is
eager, one content gcd per result and none when the denominator is 1; a sum
takes it against the gcd of its operands' denominators, and a product of
two monomials cancels crosswise, as ``Fraction`` does.  Division is only
defined by invertible elements (monomials c*D^a), which is what the
formulas actually require.

The derived parameters nu = (nu0-nu1)/k and nubar = (nu1-nu0)/m are
constructors, never independent symbols.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .errors import NonUnit


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} into an exact rational")


class ParamRat:
    """Element of Q[nu1][ (nu0-nu1)^{+-1} ], in canonical form.

    The constructor takes ``num`` and ``den`` as they are; ``from_ints``
    brings any integer numerators and denominator into canonical form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict[tuple[int, int], int], den: int = 1):
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_ints(num: dict[tuple[int, int], int], den: int) -> "ParamRat":
        """The element sum num[d, s] D^d S^s / den in canonical form.

        ``num`` holds no zero and is taken over; ``den`` is nonzero.
        """
        if not num:
            return ParamRat({}, 1)
        if den < 0:
            den = -den
            num = {k: -v for k, v in num.items()}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: v // g for k, v in num.items()}
        return ParamRat(num, den)

    @staticmethod
    def zero() -> "ParamRat":
        return ParamRat({}, 1)

    @staticmethod
    def one() -> "ParamRat":
        return ParamRat({(0, 0): 1}, 1)

    @staticmethod
    def rational(r) -> "ParamRat":
        return ParamRat.monomial(r, 0, 0)

    @staticmethod
    def monomial(c, d_pow: int, s_pow: int) -> "ParamRat":
        if type(c) is int:      # no Fraction for an integer
            num, den = c, 1
        else:
            c = _coerce(c)
            num, den = c.numerator, c.denominator
        if s_pow < 0:
            raise ValueError("S-exponent must be nonnegative")
        if not num:
            return ParamRat({}, 1)
        return ParamRat({(d_pow, s_pow): num}, den)

    @staticmethod
    def nu0() -> "ParamRat":
        return ParamRat({(1, 0): 1, (0, 1): 1}, 1)

    @staticmethod
    def nu1() -> "ParamRat":
        return ParamRat({(0, 1): 1}, 1)

    @staticmethod
    def diff() -> "ParamRat":
        """nu0 - nu1."""
        return ParamRat({(1, 0): 1}, 1)

    @staticmethod
    def nu(k: int) -> "ParamRat":
        """(nu0 - nu1)/k."""
        return ParamRat.monomial(Fraction(1, k), 1, 0)

    @staticmethod
    def nubar(m: int) -> "ParamRat":
        """(nu1 - nu0)/m."""
        return ParamRat.monomial(Fraction(-1, m), 1, 0)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return not self.num or (len(self.num) == 1 and (0, 0) in self.num)

    def is_monomial(self) -> bool:
        return len(self.num) == 1

    def is_one(self) -> bool:
        return self.den == 1 and len(self.num) == 1 and \
            self.num.get((0, 0)) == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not ParamRat:
            other = _as_paramrat(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not a:
            return other
        if not b:
            return self
        # Over the lcm of the denominators, a prime that divides the sum's
        # den and every numerator divides g = gcd(a.den, b.den) (Knuth,
        # TAOCP 4.5.1), so the content gcd is taken against g alone.
        den = g = self.den
        scale_a = scale_b = 1
        if den != other.den:
            g = gcd(den, other.den)
            scale_a, scale_b = other.den // g, den // g
            den *= scale_a
        if len(a) == 1 == len(b):
            (ka, va), = a.items()
            (kb, vb), = b.items()
            va *= scale_a
            vb *= scale_b
            if ka != kb:
                out = {ka: va, kb: vb}
            else:
                va += vb
                if not va:
                    return ParamRat({}, 1)
                out = {ka: va}
        else:
            out = {k: v * scale_a for k, v in a.items()}
            for key, val in b.items():
                val *= scale_b
                acc = out.get(key)
                if acc is None:
                    out[key] = val
                else:
                    acc += val
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
            if not out:
                return ParamRat({}, 1)
        if g != 1:
            g = gcd(g, *out.values())
            if g != 1:
                den //= g
                out = {k: v // g for k, v in out.items()}
        return ParamRat(out, den)

    __radd__ = __add__

    def __neg__(self):
        return ParamRat({k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        other = _as_paramrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not ParamRat:
            other = _as_paramrat(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return ParamRat({}, 1)
        if len(a) == 1 == len(b):
            # cancel crosswise: two gcds of the factors cost less than one
            # of the products when the numerators are long
            ((ad, as_), av), = a.items()
            ((bd, bs), bv), = b.items()
            da, db = self.den, other.den
            # a factor 1 returns the other, which is canonical
            if av == 1 == da and not (ad or as_):
                return other
            if bv == 1 == db and not (bd or bs):
                return self
            if da != 1:
                g = gcd(bv, da)
                if g != 1:
                    bv //= g
                    da //= g
            if db != 1:
                g = gcd(av, db)
                if g != 1:
                    av //= g
                    db //= g
            return ParamRat({(ad + bd, as_ + bs): av * bv}, da * db)
        if len(b) == 1:
            ((bd, bs), bv), = b.items()
            out = {(ad + bd, as_ + bs): av * bv
                   for (ad, as_), av in a.items()}
        else:
            out = {}
            for (ad, as_), av in a.items():
                for (bd, bs), bv in b.items():
                    key = (ad + bd, as_ + bs)
                    acc = out.get(key)
                    if acc is None:
                        out[key] = av * bv
                    else:
                        acc += av * bv
                        if acc:
                            out[key] = acc
                        else:
                            del out[key]
        return ParamRat.from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "ParamRat":
        if len(self.num) != 1:
            raise NonUnit(f"cannot invert non-monomial coefficient {self}")
        ((d, s), v), = self.num.items()
        if s != 0:
            # 1/nu1^s stays outside the localized ring.
            raise NonUnit(f"cannot invert {self}: nonzero nu1-degree")
        if v < 0:
            return ParamRat({(-d, 0): -self.den}, -v)
        return ParamRat({(-d, 0): self.den}, v)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                raise ZeroDivisionError("division by zero")
            return ParamRat.from_ints(
                {k: v * c.denominator for k, v in self.num.items()},
                self.den * c.numerator)
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
        out: dict[tuple[int, int], int] = {}
        for (a, b), v in self.num.items():
            if a & 1:
                v = -v
            # v D^a (S + D)^b
            for j in range(b + 1):
                key = (a + j, b - j)
                acc = out.get(key, 0) + v * comb(b, j)
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return ParamRat.from_ints(out, self.den)

    def __eq__(self, other):
        if type(other) is not ParamRat:
            other = _as_paramrat(other)
            if other is NotImplemented:
                return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # a pure rational equals its Fraction (and int), so it hashes as one
        if self.is_rational():
            return hash(Fraction(self.num.get((0, 0), 0), self.den))
        return hash((self.den, frozenset(self.num.items())))

    # -- display -----------------------------------------------------------

    def _expanded_nu(self) -> tuple[dict[tuple[int, int], int], int]:
        """Rewrite as a polynomial in (nu0, nu1) over den * (nu0-nu1)^shift,
        with integer numerators."""
        shift = -min((d for (d, _s) in self.num), default=0)
        shift = max(shift, 0)
        out: dict[tuple[int, int], int] = {}
        for (d, s), v in self.num.items():
            # (nu0-nu1)^(d+shift) * nu1^s
            e = d + shift
            coeffs = _binomial_signs(e)
            for j, b in enumerate(coeffs):
                key = (e - j, s + j)
                acc = out.get(key, 0) + v * b
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return out, shift

    def __str__(self):
        if not self.num:
            return "0"
        num, shift = self._expanded_nu()
        parts = []
        for (e0, e1) in sorted(num, reverse=True):
            v = Fraction(num[(e0, e1)], self.den)
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
    if isinstance(value, int):
        return ParamRat({(0, 0): value}, 1) if value else ParamRat({}, 1)
    if isinstance(value, Fraction):
        return ParamRat.rational(value)
    return NotImplemented


PR = ParamRat  # short alias used throughout the package

