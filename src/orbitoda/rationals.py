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
D^d S^s and ``den`` is shared by all of them.  Most elements are monomials
v/den D^d S^s, and those keep v, d and s in slots with no dict: only zero
and an element of two or more terms keep a dict of numerators.  Every
operation returns the canonical form -- ``den > 0``, gcd(den, numerators)
= 1, no zero numerator, ``den == 1`` for zero, the dict only for zero or
two or more terms -- so equal elements have equal fields.  Reduction is
eager, one content gcd per result and none when the denominator is 1; a sum
takes it against the gcd of its operands' denominators, and a product of
two monomials cancels crosswise, as ``Fraction`` does.  A product by a
Python int builds no element for the int.  Division is only defined by
invertible elements (monomials c*D^a), which is what the formulas actually
require.

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

    A monomial v/den D^d S^s sits in the slots ``d``, ``s``, ``v`` and
    ``den``, with ``terms`` None; zero and an element of two or more terms
    keep their numerators in the dict ``terms`` (and None in ``d``, ``s``,
    ``v``).  The constructor takes the slots as they are; ``from_ints``
    brings any integer numerators and denominator into canonical form.
    """

    __slots__ = ("d", "s", "v", "den", "terms")

    def __init__(self, d, s, v, den: int = 1,
                 terms: dict[tuple[int, int], int] | None = None):
        self.d = d
        self.s = s
        self.v = v
        self.den = den
        self.terms = terms

    @property
    def num(self) -> dict[tuple[int, int], int]:
        """{(d, s): numerator of D^d S^s}, the same in both layouts; read
        only (a monomial builds it anew)."""
        terms = self.terms
        return {(self.d, self.s): self.v} if terms is None else terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_ints(num: dict[tuple[int, int], int], den: int) -> "ParamRat":
        """The element sum num[d, s] D^d S^s / den in canonical form.

        ``num`` holds no zero and is taken over; ``den`` is nonzero.
        """
        if not num:
            return _zero()
        if den < 0:
            den = -den
            num = {k: -v for k, v in num.items()}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: v // g for k, v in num.items()}
        return _laid_out(num, den)

    @staticmethod
    def zero() -> "ParamRat":
        return _zero()

    @staticmethod
    def one() -> "ParamRat":
        return ParamRat(0, 0, 1)

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
            return _zero()
        return ParamRat(d_pow, s_pow, num, den)

    @staticmethod
    def nu0() -> "ParamRat":
        return _laid_out({(1, 0): 1, (0, 1): 1}, 1)

    @staticmethod
    def nu1() -> "ParamRat":
        return ParamRat(0, 1, 1)

    @staticmethod
    def diff() -> "ParamRat":
        """nu0 - nu1."""
        return ParamRat(1, 0, 1)

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
        terms = self.terms
        return terms is not None and not terms

    def is_rational(self) -> bool:
        terms = self.terms
        if terms is None:
            return not (self.d or self.s)
        return not terms

    def is_monomial(self) -> bool:
        return self.terms is None

    def is_one(self) -> bool:
        return self.terms is None and self.v == 1 == self.den and \
            not (self.d or self.s)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not ParamRat:
            other = _as_paramrat(other)
            if other is NotImplemented:
                return NotImplemented
        ta, tb = self.terms, other.terms
        if ta is not None and not ta:
            return other
        if tb is not None and not tb:
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
        if ta is None and tb is None:
            d, s = self.d, self.s
            va, vb = self.v * scale_a, other.v * scale_b
            if d == other.d and s == other.s:
                va += vb
                if not va:
                    return _zero()
                if g != 1:
                    g = gcd(g, va)
                    if g != 1:
                        return ParamRat(d, s, va // g, den // g)
                return ParamRat(d, s, va, den)
            out = {(d, s): va, (other.d, other.s): vb}
        else:
            out = {k: v * scale_a for k, v in self.num.items()}
            for key, val in other.num.items():
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
                return _zero()
        if g != 1:
            g = gcd(g, *out.values())
            if g != 1:
                den //= g
                out = {k: v // g for k, v in out.items()}
        return _laid_out(out, den)

    __radd__ = __add__

    def __neg__(self):
        terms = self.terms
        if terms is None:
            return ParamRat(self.d, self.s, -self.v, self.den)
        return ParamRat(None, None, None, self.den,
                        {k: -v for k, v in terms.items()})

    def __sub__(self, other):
        other = _as_paramrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not ParamRat:
            if type(other) is int:
                return self._times_int(other)
            other = _as_paramrat(other)
            if other is NotImplemented:
                return NotImplemented
        ta, tb = self.terms, other.terms
        if ta is None and tb is None:
            # cancel crosswise: two gcds of the factors cost less than one
            # of the products when the numerators are long
            ad, as_, av, da = self.d, self.s, self.v, self.den
            bd, bs, bv, db = other.d, other.s, other.v, other.den
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
            return ParamRat(ad + bd, as_ + bs, av * bv, da * db)
        if (ta is not None and not ta) or (tb is not None and not tb):
            return _zero()
        a, b = self.num, other.num
        if tb is None:
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

    def _times_int(self, n: int) -> "ParamRat":
        """self * n, with no element built for the integer n: n cancels
        against den, and gcd(den, numerators) = 1 keeps the rest
        canonical."""
        if n == 1:
            return self
        terms = self.terms
        if not n or (terms is not None and not terms):
            return _zero()
        den = self.den
        if den != 1:
            g = gcd(n, den)
            if g != 1:
                n //= g
                den //= g
        if terms is None:
            return ParamRat(self.d, self.s, self.v * n, den)
        return ParamRat(None, None, None, den,
                        {k: v * n for k, v in terms.items()})

    def inverse(self) -> "ParamRat":
        if self.terms is not None:
            raise NonUnit(f"cannot invert non-monomial coefficient {self}")
        if self.s != 0:
            # 1/nu1^s stays outside the localized ring.
            raise NonUnit(f"cannot invert {self}: nonzero nu1-degree")
        v = self.v
        if v < 0:
            return ParamRat(-self.d, 0, -self.den, -v)
        return ParamRat(-self.d, 0, self.den, v)

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
        terms = self.terms
        if terms is None:       # equal elements have the same layout
            return other.terms is None and self.v == other.v and \
                self.d == other.d and self.s == other.s and \
                self.den == other.den
        return self.den == other.den and terms == other.terms

    def __hash__(self):
        # a pure rational equals its Fraction (and int), so it hashes as one
        if self.is_rational():
            return hash(Fraction(self.v or 0, self.den))
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


def _zero() -> ParamRat:
    return ParamRat(None, None, None, 1, {})


def _laid_out(num: dict[tuple[int, int], int], den: int) -> ParamRat:
    """The element of canonical numerators ``num`` (taken over) over
    ``den``, in the layout of its number of terms."""
    if len(num) == 1:
        ((d, s), v), = num.items()
        return ParamRat(d, s, v, den)
    return ParamRat(None, None, None, den, num)


def _as_paramrat(value):
    if isinstance(value, ParamRat):
        return value
    if isinstance(value, int):
        return ParamRat(0, 0, value) if value else _zero()
    if isinstance(value, Fraction):
        return ParamRat.rational(value)
    return NotImplemented


PR = ParamRat  # short alias used throughout the package

