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

    def __rsub__(self, other):
        other = _as_paramrat(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

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


def _binomial_signs(e: int) -> list[Fraction]:
    """Coefficients of (nu0 - nu1)^e as sum of nu0^(e-j) * nu1^j."""
    out = [Fraction(1)]
    for j in range(e):
        out.append(out[-1] * (e - j) / (j + 1) * -1)
    # note: values are C(e, j) * (-1)^j
    return out


def _as_paramrat(value):
    if isinstance(value, ParamRat):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamRat.rational(value)
    return NotImplemented


PR = ParamRat  # short alias used throughout the package


# ---------------------------------------------------------------------------
# Cyclotomic quotient layer:  ParamRat[rho, zeta] / (rho^k - val, Phi_k(zeta))
# ---------------------------------------------------------------------------


def cyclotomic_poly(k: int) -> list[Fraction]:
    """Coefficients (ascending) of the k-th cyclotomic polynomial."""
    # x^k - 1 = prod_{d | k} Phi_d(x); divide out the proper divisors.
    num = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
    for d in range(1, k):
        if k % d == 0:
            phi_d = cyclotomic_poly(d)
            num = _polydiv_exact(num, phi_d)
    return num


def _polydiv_exact(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        out[i] = c
        if c:
            for j, dv in enumerate(den):
                num[i + j] -= c * dv
    assert all(v == 0 for v in num[: len(den) - 1]), "non-exact division"
    return out


class RootRing:
    """Quotient ring carrying a k-th root rho of ``val`` and zeta = e^(2 pi i/k).

    Elements are dicts (rho_pow, zeta_pow) -> ParamRat with rho_pow in [0,k)
    and zeta_pow < deg Phi_k.  Activated only by the classical-limit
    computations; generic code never pays for it.
    """

    def __init__(self, k: int, val: ParamRat):
        self.k = k
        self.val = val
        phi = cyclotomic_poly(k)
        self.phi_deg = len(phi) - 1
        # zeta^phi_deg = -(phi[0] + phi[1] z + ...)/phi[-1]
        self._zeta_top = [-c / phi[-1] for c in phi[:-1]]

    def scalar(self, c: ParamRat) -> dict:
        return {(0, 0): c} if not c.is_zero() else {}

    def one(self) -> dict:
        return self.scalar(ParamRat.one())

    def root(self, zeta_pow: int = 0) -> dict:
        """zeta^zeta_pow * rho."""
        elem = {(1, 0): ParamRat.one()}
        return self.mul(elem, self.zeta_pow(zeta_pow))

    def zeta_pow(self, j: int) -> dict:
        j %= self.k
        elem = {(0, 0): ParamRat.one()}
        for _ in range(j):
            elem = self._mul_zeta(elem)
        return elem

    def _mul_zeta(self, elem: dict) -> dict:
        out: dict = {}
        for (r, z), c in elem.items():
            if z + 1 < self.phi_deg:
                _acc(out, (r, z + 1), c)
            else:
                for j, t in enumerate(self._zeta_top):
                    if t:
                        _acc(out, (r, j), c * ParamRat.rational(t))
        return out

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for key, c in b.items():
            _acc(out, key, c)
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for (ra, za), ca in a.items():
            for (rb, zb), cb in b.items():
                c = ca * cb
                if c.is_zero():
                    continue
                r = ra + rb
                while r >= self.k:
                    r -= self.k
                    c = c * self.val
                # reduce zeta power
                tmp = {(r, 0): c}
                for _ in range(za + zb):
                    tmp = self._mul_zeta(tmp)
                for key, cv in tmp.items():
                    _acc(out, key, cv)
        return out

    def mul_scalar(self, a: dict, c: ParamRat) -> dict:
        out = {}
        for key, v in a.items():
            p = v * c
            if not p.is_zero():
                out[key] = p
        return out

    def pow(self, a: dict, n: int) -> dict:
        if n < 0:
            return self.pow(self.inv_root_monomial(a), -n)
        out = self.one()
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv_root_monomial(self, a: dict) -> dict:
        """Invert c * zeta^z * rho^r (only monomials in rho are invertible)."""
        if len(a) != 1:
            raise NonUnit("can only invert monomial root-ring elements")
        ((r, z), c), = a.items()
        if z != 0:
            # zeta^{-z} = zeta^{k-z}
            base = {(r, 0): c}
            inv = self.inv_root_monomial(base)
            return self.mul(inv, self.zeta_pow(self.k - z))
        # rho^{-r} = rho^{k-r} / val
        inv_c = c.inverse() * self.val.inverse()
        if r == 0:
            return {(0, 0): c.inverse()}
        return {(self.k - r, 0): inv_c}

    def eq(self, a: dict, b: dict) -> bool:
        ka = {k: v for k, v in a.items() if not v.is_zero()}
        kb = {k: v for k, v in b.items() if not v.is_zero()}
        return ka == kb


def _acc(out: dict, key, c: ParamRat):
    cur = out.get(key)
    if cur is None:
        if not c.is_zero():
            out[key] = c
    else:
        s = cur + c
        if s.is_zero():
            del out[key]
        else:
            out[key] = s
