"""Equivariant orbifold cohomology of the (k,m)-footed projective line.

Basis classes 1_{i/k} (0 <= i < k) and 1_{j/m} (0 <= j < m); the two
untwisted indices 0/k and 0/m are distinct.  Pairing table:

    (1_{0/k}, 1_{0/k}) = 1/(nu0-nu1)    (1_{i/k}, 1_{(k-i)/k}) = 1/k
    (1_{0/m}, 1_{0/m}) = 1/(nu1-nu0)    (1_{j/m}, 1_{(m-j)/m}) = 1/m

and all other pairs vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadIndex
from .rationals import ParamRat, PR
from .series import TruncSeries


@dataclass(frozen=True, order=True)
class SectorIndex:
    side: str  # 'k' or 'm'
    i: int

    def __post_init__(self):
        if self.side not in ("k", "m"):
            raise BadIndex(f"bad side {self.side!r}")

    def label(self, k: int, m: int) -> str:
        n = k if self.side == "k" else m
        return f"{self.i}/{n}"


class Cohomology:
    """Pairing, duals, and distinguished classes for fixed (k, m)."""

    def __init__(self, k: int, m: int):
        if k < 1 or m < 1:
            raise BadIndex("k, m must be positive")
        self.k = k
        self.m = m

    def sectors(self) -> list[SectorIndex]:
        return ([SectorIndex("k", i) for i in range(self.k)]
                + [SectorIndex("m", j) for j in range(self.m)])

    def neg(self, a: SectorIndex) -> SectorIndex:
        n = self.k if a.side == "k" else self.m
        return SectorIndex(a.side, (-a.i) % n)

    def pairing(self, a: SectorIndex, b: SectorIndex) -> ParamRat:
        if a.side != b.side:
            return PR.zero()
        n = self.k if a.side == "k" else self.m
        if (a.i + b.i) % n != 0:
            return PR.zero()
        if a.i == 0:
            return (PR.diff() if a.side == "k" else -PR.diff()).inverse()
        return PR.rational(Fraction(1, n))

    def g(self, a: SectorIndex) -> ParamRat:
        """g_alpha = (1_alpha, 1_{-alpha})."""
        return self.pairing(a, self.neg(a))

    def dual(self, a: SectorIndex) -> "CohClass":
        """1^alpha with (1^alpha, 1_beta) = delta^alpha_beta."""
        return CohClass({self.neg(a): self.g(a).inverse()})

    def unit(self) -> "CohClass":
        return CohClass({SectorIndex("k", 0): PR.one(),
                         SectorIndex("m", 0): PR.one()})

    def p_class(self) -> "CohClass":
        """Equivariant hyperplane class: nu0 1_{0/k} + nu1 1_{0/m}."""
        return CohClass({SectorIndex("k", 0): PR.nu0(),
                         SectorIndex("m", 0): PR.nu1()})

    def pair_classes(self, x: "CohClass", y: "CohClass"):
        out = None
        for a, ca in x.coords.items():
            for b, cb in y.coords.items():
                eta = self.pairing(a, b)
                if eta.is_zero():
                    continue
                term = ca * cb * eta
                out = term if out is None else out + term
        return PR.zero() if out is None else out


class CohClass:
    """Finite-support map SectorIndex -> coefficient (ParamRat or series)."""

    __slots__ = ("coords",)

    def __init__(self, coords: dict):
        self.coords = {a: c for a, c in coords.items() if not _is_zero(c)}

    def __add__(self, other: "CohClass") -> "CohClass":
        out = dict(self.coords)
        for a, c in other.coords.items():
            out[a] = out[a] + c if a in out else c
        return CohClass(out)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + other.scale(-1)

    def scale(self, c) -> "CohClass":
        return CohClass({a: v * c for a, v in self.coords.items()})

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self) -> bool:
        return not self.coords


def _is_zero(c) -> bool:
    if isinstance(c, ParamRat):
        return c.is_zero()
    if isinstance(c, TruncSeries):
        return c.is_zero()
    return not c


# ---------------------------------------------------------------------------
# Small equivariant quantum cohomology ring
# ---------------------------------------------------------------------------

ONE = ("one", 0)


def _qpoly(coeffs: dict[int, object]) -> TruncSeries:
    return TruncSeries.from_poly("q", coeffs)


class QuantumRing:
    """C[[q]][nu0,nu1][x,y] / (k x^k - nu0 = m y^m - nu1,  x y = q).

    Normal-form basis: 1, x..x^{k-1}, y..y^{m-1}, x^k; the class y^m is
    eliminated through the linear relation.  Coefficients are exact
    polynomials in q over ParamRat.  Valid for any k, m >= 1 (coprimality
    is not needed here).
    """

    def __init__(self, k: int, m: int):
        self.k = k
        self.m = m
        self.coh = Cohomology(k, m)

    # elements are dicts basis_key -> TruncSeries in q
    def one_elem(self) -> dict:
        return {ONE: _qpoly({0: 1})}

    def x_pow(self, a: int) -> dict:
        if a == 0:
            return self.one_elem()
        if 1 <= a <= self.k:
            return {("x", a): _qpoly({0: 1})}
        return self._reduce_x(a)

    def y_pow(self, b: int) -> dict:
        if b == 0:
            return self.one_elem()
        if 1 <= b <= self.m - 1:
            return {("y", b): _qpoly({0: 1})}
        return self._reduce_y(b)

    def scale(self, elem: dict, c) -> dict:
        out = {}
        for key, coeff in elem.items():
            s = coeff * c
            if not s.is_zero():
                out[key] = s
        return out

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for key, coeff in b.items():
            s = out[key] + coeff if key in out else coeff
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return out

    def _reduce_x(self, a: int) -> dict:
        """Normal form of x^a for a > k."""
        r = a - self.k
        # x^a = x^r * x^k = x^r (m y^m + nu0 - nu1)/k
        diff = PR.diff()
        if r >= self.m:
            lowered = self.scale(self.x_pow(r - self.m),
                                 PR.rational(Fraction(self.m, self.k)))
            lowered = {key: c.shift_exponent("q", self.m)
                       for key, c in lowered.items()}
        else:
            lowered = self.scale(self.y_pow(self.m - r),
                                 PR.rational(Fraction(self.m, self.k)))
            lowered = {key: c.shift_exponent("q", r) for key, c in lowered.items()}
        return self.add(lowered, self.scale(self.x_pow(r), diff / self.k))

    def _reduce_y(self, b: int) -> dict:
        """Normal form of y^b for b >= m."""
        s = b - self.m
        # y^b = y^s * y^m = y^s (k x^k + nu1 - nu0)/m
        diff = PR.diff()
        if s == 0:
            core = self.scale(self.x_pow(self.k), PR.rational(Fraction(self.k, self.m)))
        elif s <= self.k:
            core = self.scale(self.x_pow(self.k - s),
                              PR.rational(Fraction(self.k, self.m)))
            core = {key: c.shift_exponent("q", s) for key, c in core.items()}
        else:
            core = self.scale(self.y_pow(s - self.k),
                              PR.rational(Fraction(self.k, self.m)))
            core = {key: c.shift_exponent("q", self.k) for key, c in core.items()}
        return self.add(core, self.scale(self.y_pow(s), (-diff) / self.m))

    def _key_product(self, ka: tuple, kb: tuple) -> dict:
        if ka == ONE:
            return {kb: _qpoly({0: 1})}
        if kb == ONE:
            return {ka: _qpoly({0: 1})}
        sa, a = ka
        sb, b = kb
        if sa == sb == "x":
            return self.x_pow(a + b) if a + b > self.k else {("x", a + b): _qpoly({0: 1})}
        if sa == sb == "y":
            return self.y_pow(a + b) if a + b >= self.m else {("y", a + b): _qpoly({0: 1})}
        if sa == "y":
            sa, a, sb, b = sb, b, sa, a
        # x^a * y^b -> q^min(a,b) * leftover
        c = min(a, b)
        rest = self.x_pow(a - c) if a >= b else self.y_pow(b - a)
        return {key: coeff.shift_exponent("q", c) for key, coeff in rest.items()}

    def mul(self, ea: dict, eb: dict) -> dict:
        out: dict = {}
        for ka, ca in ea.items():
            for kb, cb in eb.items():
                c = ca * cb
                if c.is_zero():
                    continue
                for key, unit in self._key_product(ka, kb).items():
                    term = unit * c
                    cur = out.get(key)
                    s = term if cur is None else cur + term
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
        return out

    # -- identification with cohomology (the small-slice mirror map) --------

    def from_sector(self, a: SectorIndex) -> dict:
        """1_{i/k} -> x^i, 1_{0/k} -> k x^k/(nu0-nu1), and mirrored."""
        if a.side == "k":
            if a.i == 0:
                return self.scale(self.x_pow(self.k), PR.rational(self.k) * PR.diff().inverse())
            return self.x_pow(a.i)
        if a.i == 0:
            return self.scale(self.y_pow(self.m), PR.rational(self.m) * (-PR.diff()).inverse())
        return self.y_pow(a.i)
