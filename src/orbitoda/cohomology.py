"""Equivariant orbifold cohomology of the (k,m)-footed projective line.

Basis classes 1_{i/k} (0 <= i < k) and 1_{j/m} (0 <= j < m); the two
untwisted indices 0/k and 0/m are distinct.  Pairing table:

    (1_{0/k}, 1_{0/k}) = 1/(nu0-nu1)    (1_{i/k}, 1_{(k-i)/k}) = 1/k
    (1_{0/m}, 1_{0/m}) = 1/(nu1-nu0)    (1_{j/m}, 1_{(m-j)/m}) = 1/m

and all other pairs vanish.  A class is read by its plain coordinates on
this basis: the dual class 1^alpha is the one coordinate
``dual(alpha) = (-alpha, 1/g_alpha)``.

An element of the small quantum ring is one exact kernel series in x, y
and q over ParamRat, and a product is the kernel product brought to normal
form by the ring's own two-generator presentation (``QuantumRing.normal``).
The ring is the oracle of ``mirror.verify_tangent_product``, so it stays
independent of the mirror side, which reduces a Laurent polynomial in x
by the tangent relation (``mirror.tangent_reduce``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import BadIndex
from .rationals import ParamRat, PR
from .series import TruncSeries, exact_win, sum_series


class _Sector(NamedTuple):
    side: str  # 'k' or 'm'
    i: int


class SectorIndex(_Sector):
    """A basis class 1_{i/n}: a value, hashed, compared and ordered as the
    tuple (side, i)."""
    __slots__ = ()

    def __new__(cls, side: str, i: int):
        if side not in ("k", "m"):
            raise BadIndex(f"bad side {side!r}")
        return super().__new__(cls, side, i)

    def label(self, k: int, m: int) -> str:
        n = k if self.side == "k" else m
        return f"{self.i}/{n}"


class Cohomology:
    """Pairing and duals for fixed (k, m)."""

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

    def dual(self, a: SectorIndex) -> tuple[SectorIndex, ParamRat]:
        """1^alpha, with (1^alpha, 1_beta) = delta^alpha_beta, as its one
        coordinate: (-alpha, 1/g_alpha)."""
        return self.neg(a), self.g(a).inverse()


# ---------------------------------------------------------------------------
# Small equivariant quantum cohomology ring
# ---------------------------------------------------------------------------


def _monomial(a: int, b: int, t: int, c: ParamRat) -> TruncSeries:
    """c x^a y^b q^t, exact."""
    return TruncSeries(("q", "x", "y"), {"q": exact_win(t, t),
                                         "x": exact_win(a, a),
                                         "y": exact_win(b, b)},
                       {(t, a, b): c})


class QuantumRing:
    """C[[q]][nu0,nu1][x,y] / (k x^k - nu0 = m y^m - nu1,  x y = q).

    An element is an exact series in x, y and q; in normal form it has
    support 1, x..x^k, y..y^{m-1} in x and y.  Valid for any k, m >= 1
    (coprimality is not needed here).
    """

    def __init__(self, k: int, m: int):
        self.k = k
        self.m = m
        diff = PR.diff()
        # the linear relation solved for x^k and for y^m
        self._xk = TruncSeries.from_poly("y", {m: Fraction(m, k),
                                               0: diff / k})
        self._ym = TruncSeries.from_poly("x", {k: Fraction(k, m),
                                               0: -diff / m})

    def normal(self, s: TruncSeries) -> TruncSeries:
        """s rewritten by x y -> q, x^a -> x^(a-k) x^k for a > k and
        y^b -> y^(b-m) y^m for b >= m, with x^k and y^m read off the linear
        relation, until only 1, x..x^k and y..y^(m-1) remain."""
        done = []
        while s.terms:
            todo = []
            for key, c in s.terms.items():
                e = dict(zip(s.vars, key))
                a, b, t = e.get("x", 0), e.get("y", 0), e.get("q", 0)
                if a and b:
                    n = min(a, b)
                    todo.append(_monomial(a - n, b - n, t + n, c))
                elif a > self.k:
                    todo.append(_monomial(a - self.k, 0, t, c) * self._xk)
                elif b >= self.m:
                    todo.append(_monomial(0, b - self.m, t, c) * self._ym)
                else:
                    done.append(_monomial(a, b, t, c))
            s = sum_series(todo)
        return sum_series(done)

    def mul(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        return self.normal(a * b)

    # -- identification with cohomology (the small-slice mirror map) --------

    def from_sector(self, a: SectorIndex) -> TruncSeries:
        """1_{i/k} -> x^i, 1_{0/k} -> k x^k/(nu0-nu1), and mirrored."""
        n, v = (self.k, "x") if a.side == "k" else (self.m, "y")
        if a.i:
            return TruncSeries.from_poly(v, {a.i: 1})
        g = Cohomology(self.k, self.m).g(a)
        return self.normal(TruncSeries.from_poly(v, {n: PR.rational(n) * g}))
