"""Truncated multivariate Laurent/power series with provable windows.

A ``TruncSeries`` stores a sparse map exponent-vector -> ParamRat together
with, per variable, an explicit window ``[lo, hi]`` of scaled exponents and
two hardness flags.  Exponents are stored as integers ``e`` meaning the
rational power ``e / den`` (fractional powers with a fixed denominator per
variable, as needed for xi = x^k charts).

Window semantics, per variable:

* every stored coefficient with exponent inside ``[lo, hi]`` is exact;
* ``lo_hard``  - the true object has no support below ``lo``; consequently
  every exponent below the window is known (the coefficient is zero);
* ``hi_hard``  - mirrored;
* a soft bound marks a truncation: beyond it the true object is unknown.

Arithmetic computes the largest window on which the result is provably exact
and never silently drops a term inside a window.  Optional group caps bound
the total degree of a set of variables (jets in many t's at once).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping

from .errors import NonUnit, NotInvertible, WindowUnderflow
from .rationals import ParamRat, PR

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class VarWindow:
    lo: int
    hi: int
    lo_hard: bool
    hi_hard: bool
    den: int = 1

    def known_lo(self):
        return NEG_INF if self.lo_hard else self.lo

    def known_hi(self):
        return POS_INF if self.hi_hard else self.hi

    def contains_known(self, e: int) -> bool:
        if self.lo <= e <= self.hi:
            return True
        if e < self.lo and self.lo_hard:
            return True
        if e > self.hi and self.hi_hard:
            return True
        return False


POINT = VarWindow(0, 0, True, True, 1)


def up_win(hi: int, den: int = 1, lo: int = 0) -> VarWindow:
    """Power-series-style: true support bounded below, truncated above."""
    return VarWindow(lo, hi, True, False, den)


def down_win(lo: int, den: int = 1, hi: int = 0) -> VarWindow:
    """Laurent-at-infinity style: bounded above, truncated below."""
    return VarWindow(lo, hi, False, True, den)


def exact_win(lo: int, hi: int, den: int = 1) -> VarWindow:
    return VarWindow(lo, hi, True, True, den)


def _as_coeff(value) -> ParamRat:
    if isinstance(value, ParamRat):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamRat.rational(value)
    raise TypeError(f"bad coefficient {value!r}")


class TruncSeries:
    __slots__ = ("vars", "wins", "terms", "caps")

    def __init__(self, vars: tuple[str, ...], wins: dict[str, VarWindow],
                 terms: dict[tuple[int, ...], ParamRat],
                 caps: dict[frozenset, int] | None = None):
        self.vars = vars
        self.wins = wins
        self.terms = terms
        self.caps = caps if caps is not None else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(c, wins: Mapping[str, VarWindow] | None = None,
               caps: dict[frozenset, int] | None = None) -> "TruncSeries":
        c = _as_coeff(c)
        wins = dict(wins) if wins else {}
        vars = tuple(sorted(wins))
        key = tuple(0 for _ in vars)
        terms = {key: c} if not c.is_zero() else {}
        return TruncSeries(vars, wins, terms, dict(caps) if caps else {})._pruned()

    @staticmethod
    def zero(wins: Mapping[str, VarWindow] | None = None) -> "TruncSeries":
        return TruncSeries.scalar(0, wins)

    @staticmethod
    def one() -> "TruncSeries":
        return TruncSeries.scalar(1)

    @staticmethod
    def var(name: str, win: VarWindow, power: int | None = None, coeff=1) -> "TruncSeries":
        """coeff * name^(power/den); power defaults to one (= den)."""
        if power is None:
            power = win.den
        c = _as_coeff(coeff)
        if c.is_zero() or not (win.lo <= power <= win.hi):
            return TruncSeries((name,), {name: win}, {})
        return TruncSeries((name,), {name: win}, {(power,): c})

    @staticmethod
    def monomial(exps: Mapping[str, int], wins: Mapping[str, VarWindow],
                 coeff=1) -> "TruncSeries":
        c = _as_coeff(coeff)
        vars = tuple(sorted(wins))
        key = tuple(exps.get(v, 0) for v in vars)
        terms = {key: c} if not c.is_zero() else {}
        return TruncSeries(vars, dict(wins), terms)._pruned()

    @staticmethod
    def from_poly(name: str, coeffs: Mapping[int, object], den: int = 1) -> "TruncSeries":
        """Exact Laurent polynomial in one variable (both-hard window)."""
        cc = {}
        for e, c in coeffs.items():
            c = _as_coeff(c)
            if not c.is_zero():
                cc[e] = c
        if not cc:
            return TruncSeries((name,), {name: exact_win(0, 0, den)}, {})
        win = exact_win(min(cc), max(cc), den)
        return TruncSeries((name,), {name: win}, {(e,): c for e, c in cc.items()})

    # -- bookkeeping -------------------------------------------------------

    def _pruned(self) -> "TruncSeries":
        lows, highs, capspec = _key_bounds(self.vars, self.wins, self.caps)
        out = {}
        for key, c in self.terms.items():
            if c.is_zero():
                continue
            for e, lo, hi in zip(key, lows, highs):
                if e < lo or e > hi:
                    break
            else:
                if not capspec or _under_caps(key, capspec):
                    out[key] = c
        return TruncSeries(self.vars, self.wins, out, self.caps)

    def _win(self, v: str, den_hint: int = 1) -> VarWindow:
        w = self.wins.get(v)
        return w if w is not None else VarWindow(0, 0, True, True, den_hint)

    def support_bounds(self, v: str):
        """Sharpened (lo, hi) bounds of the true support; (+inf,-inf) if empty."""
        if v not in self.wins:
            if any(True for _ in self.terms):
                return (0, 0)
            return (POS_INF, NEG_INF)
        w = self.wins[v]
        i = self.vars.index(v)
        stored = [key[i] for key in self.terms]
        if not w.lo_hard:
            slo = NEG_INF
        elif stored:
            slo = min(stored)
        elif not w.hi_hard:
            slo = w.hi + 1
        else:
            slo = POS_INF
        if not w.hi_hard:
            shi = POS_INF
        elif stored:
            shi = max(stored)
        elif not w.lo_hard:
            shi = w.lo - 1
        else:
            shi = NEG_INF
        return (slo, shi)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def with_window(self, v: str, win: VarWindow) -> "TruncSeries":
        """Intersect knowledge with an extra declared window for v."""
        return self + TruncSeries.scalar(0, {v: win})

    def truncated(self, wins: Mapping[str, VarWindow]) -> "TruncSeries":
        out = self
        for v, w in wins.items():
            out = out.with_window(v, w)
        return out

    def as_exact(self) -> "TruncSeries":
        """Reinterpret the stored polynomial as the exact object of study.

        Windows become both-hard around the stored support and caps are
        dropped.  This is a deliberate change of object (e.g. testing a
        polynomial jet in its own right), not a knowledge claim about the
        series the data was truncated from.
        """
        wins = {}
        for v in self.vars:
            i = self.vars.index(v)
            exps = [key[i] for key in self.terms] or [0]
            w = self.wins[v]
            wins[v] = VarWindow(min(min(exps), 0), max(max(exps), 0),
                                True, True, w.den)
        return TruncSeries(self.vars, wins, dict(self.terms), {})

    def with_cap(self, group, cap: int) -> "TruncSeries":
        caps = dict(self.caps)
        g = frozenset(group)
        caps[g] = min(caps.get(g, cap), cap)
        return TruncSeries(self.vars, self.wins, self.terms, caps)._pruned()

    # -- alignment ---------------------------------------------------------

    def _aligned(self, other: "TruncSeries"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        return allvars, _remap(self, allvars), _remap(other, allvars)

    # -- addition ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ParamRat)):
            other = TruncSeries.scalar(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        allvars, ta, tb = self._aligned(other)
        wins = {}
        for v in allvars:
            wa = self._win(v, other._win(v).den)
            wb = other._win(v, wa.den)
            if wa.den != wb.den:
                raise ValueError(f"variable {v}: denominator mismatch")
            klo = max(wa.known_lo(), wb.known_lo())
            khi = min(wa.known_hi(), wb.known_hi())
            lo = min(wa.lo, wb.lo) if klo == NEG_INF else max(min(wa.lo, wb.lo), int(klo))
            hi = max(wa.hi, wb.hi) if khi == POS_INF else min(max(wa.hi, wb.hi), int(khi))
            if lo > hi:
                raise WindowUnderflow(f"variable {v}: empty window in addition")
            wins[v] = VarWindow(lo, hi, klo == NEG_INF, khi == POS_INF, wa.den)
        caps = _cap_merge(self.caps, other.caps)
        out = dict(ta)
        for key, c in tb.items():
            cur = out.get(key)
            if cur is None:
                out[key] = c
            else:
                s = cur + c
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
        return TruncSeries(allvars, wins, out, caps)._pruned()

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.vars, self.wins,
                           {k: -c for k, c in self.terms.items()}, self.caps)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ParamRat)):
            other = TruncSeries.scalar(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    # -- multiplication ----------------------------------------------------

    def scale(self, c) -> "TruncSeries":
        c = _as_coeff(c)
        if c.is_zero():
            return TruncSeries(self.vars, self.wins, {}, self.caps)
        return TruncSeries(self.vars, self.wins,
                           {k: v * c for k, v in self.terms.items()}, self.caps)

    def _product_wins(self, other: "TruncSeries", allvars) -> dict:
        """Per-variable windows of self * other; every window is the point
        0 when a factor is identically zero."""
        wins = {}
        for v in allvars:
            wa = self._win(v, other._win(v).den)
            wb = other._win(v, wa.den)
            if wa.den != wb.den:
                raise ValueError(f"variable {v}: denominator mismatch")
            sa_lo, sa_hi = self.support_bounds(v)
            sb_lo, sb_hi = other.support_bounds(v)
            if sa_lo > sa_hi or sb_lo > sb_hi:
                # one factor is identically zero
                return {u: VarWindow(0, 0, True, True,
                                     max(self._win(u).den, other._win(u).den))
                        for u in allvars}
            plo = _add_b(sa_lo, sb_lo)
            phi = _add_b(sa_hi, sb_hi)
            khi = POS_INF
            if not wa.hi_hard:
                khi = min(khi, _add_b(wa.hi, sb_lo))
            if not wb.hi_hard:
                khi = min(khi, _add_b(wb.hi, sa_lo))
            klo = NEG_INF
            if not wa.lo_hard:
                klo = max(klo, _add_b(wa.lo, sb_hi))
            if not wb.lo_hard:
                klo = max(klo, _add_b(wb.lo, sa_hi))
            lo_hard = klo == NEG_INF
            hi_hard = khi == POS_INF
            lo = plo if lo_hard else max(plo, klo)
            hi = phi if hi_hard else min(phi, khi)
            if lo > hi:
                # support and knowledge regions are disjoint: the product is
                # known-zero on the whole known region.
                if hi_hard and not lo_hard and klo > phi:
                    lo = hi = int(klo)
                    lo_hard = False
                elif lo_hard and not hi_hard and khi < plo:
                    lo = hi = int(khi)
                    hi_hard = False
                else:
                    raise WindowUnderflow(
                        f"variable {v}: unrepresentable window in product "
                        f"(lo={lo}, hi={hi})")
            if lo in (NEG_INF, POS_INF) or hi in (NEG_INF, POS_INF):
                raise WindowUnderflow(
                    f"variable {v}: unrepresentable window in product (lo={lo}, hi={hi})")
            wins[v] = VarWindow(int(lo), int(hi), lo_hard, hi_hard, wa.den)
        return wins

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamRat)):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        allvars, ta, tb = self._aligned(other)
        caps = _cap_merge(self.caps, other.caps)
        wins = self._product_wins(other, allvars)
        tb_items = tb.items()
        terms = _pair_products(((ka, ca, tb_items) for ka, ca in ta.items()),
                               _key_bounds(allvars, wins, caps))
        return TruncSeries(allvars, wins, terms, caps)

    def mul_coeff(self, other: "TruncSeries", v: str, e: int) -> "TruncSeries":
        """``(self * other).coeff_of(v, e)``, forming only the term pairs
        whose v-exponents sum to e.

        The result has the same terms, windows and caps as the full product
        followed by ``coeff_of``; ``other``'s terms are bucketed by their
        v-exponent so every pair that cannot reach v^e is skipped unformed.
        """
        if v not in self.wins and v not in other.wins:
            return (self * other).coeff_of(v, e)
        allvars, ta, tb = self._aligned(other)
        caps = _cap_merge(self.caps, other.caps)
        wins = self._product_wins(other, allvars)
        terms = {}
        i = allvars.index(v)
        if wins[v].lo <= e <= wins[v].hi:
            buckets: dict[int, list] = {}
            for kb, cb in tb.items():
                buckets.setdefault(kb[i], []).append((kb, cb))
            pairs = ((ka, ca, buckets[e - ka[i]]) for ka, ca in ta.items()
                     if e - ka[i] in buckets)
            terms = _pair_products(pairs, _key_bounds(allvars, wins, caps))
        return TruncSeries(allvars, wins, terms, caps).coeff_of(v, e)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.recip() ** (-n)
        if n == 0:
            return TruncSeries.scalar(1)
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                break
            base = base * base
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, ParamRat)):
            return self.scale(_as_coeff(other).inverse())
        if isinstance(other, TruncSeries):
            return self * other.recip()
        return NotImplemented

    # -- inversion / exp / log ----------------------------------------------

    def _direction(self, v: str) -> int:
        w = self._win(v)
        if w.lo_hard and not w.hi_hard:
            return 1
        if w.hi_hard and not w.lo_hard:
            return -1
        return 1

    def _leading_key(self):
        """Unique adically-dominating monomial, or raise NonUnit.

        Domination is demanded in the soft-truncated variables (each other
        term must move strictly toward some truncation and never away);
        exactly-tracked variables may move freely, their windows grow.
        """
        if not self.terms:
            raise NonUnit("zero series has no leading term")
        soft = [i for i, v in enumerate(self.vars)
                if not (self.wins[v].lo_hard and self.wins[v].hi_hard)]
        dirs = tuple(self._direction(v) for v in self.vars)

        def orient(key):
            return tuple(dirs[i] * key[i] for i in soft)

        best = min(self.terms, key=lambda k: (sum(orient(k)), orient(k), k))
        ob = orient(best)
        for key in self.terms:
            if key == best:
                continue
            ok = orient(key)
            deltas = [x - y for x, y in zip(ok, ob)]
            if not all(d >= 0 for d in deltas) or not any(d > 0 for d in deltas):
                raise NonUnit("no dominating leading monomial "
                              f"(candidate {best}, offender {key})")
        return best

    def recip(self) -> "TruncSeries":
        """1/self.  Every variable the tail moves must carry a truncation."""
        lead = self._leading_key()
        c0 = self.terms[lead]
        c0_inv = c0.inverse()
        h_terms = {}
        for key, c in self.terms.items():
            if key == lead:
                continue
            delta = tuple(a - b for a, b in zip(key, lead))
            h_terms[delta] = c * c0_inv
        # window of the geometric sum sum_j (-h)^j (support starts at 0);
        # exactly-tracked variables keep a neutral window and grow freely
        gwins = {}
        for i, v in enumerate(self.vars):
            w = self.wins[v]
            if w.lo_hard and w.hi_hard:
                gwins[v] = VarWindow(0, 0, True, True, w.den)
            elif w.lo_hard:      # up-type
                gwins[v] = VarWindow(0, w.hi - lead[i], True, False, w.den)
            elif w.hi_hard:      # down-type
                gwins[v] = VarWindow(w.lo - lead[i], 0, False, True, w.den)
            else:
                raise NonUnit(f"variable {v}: window soft on both sides")
        hwins = {v: VarWindow(w.lo - lead[i], w.hi - lead[i], w.lo_hard,
                              w.hi_hard, w.den)
                 for i, (v, w) in enumerate(
                     (v, self.wins[v]) for v in self.vars)}
        h = TruncSeries(self.vars, hwins, h_terms, self.caps)
        total = TruncSeries.scalar(1, gwins, self.caps)
        power = total
        guard = 0
        while True:
            power = (power * (-1 * h)).truncated(gwins)
            if power.is_zero():
                break
            total = total + power
            guard += 1
            if guard > 100000:
                raise NonUnit("reciprocal expansion did not terminate")
        minv = TruncSeries(self.vars,
                           {v: VarWindow(-lead[i], -lead[i], True, True,
                                         self.wins[v].den)
                            for i, v in enumerate(self.vars)},
                           {tuple(-e for e in lead): c0_inv})
        return total * minv

    def recip_within(self, wins: Mapping[str, VarWindow]) -> "TruncSeries":
        return self.truncated(wins).recip()

    def _smallness_window(self, what: str) -> dict[str, VarWindow]:
        """Check each term is adically small; return the natural sum window.

        Smallness: every term must move at least one soft-truncated variable
        strictly toward its truncation and none away from it.  Movement in
        exactly-tracked (both-hard) variables is unrestricted: those windows
        grow with the computed support and stay exact.
        """
        soft = {}
        for v in self.vars:
            w = self.wins[v]
            if w.lo_hard and w.hi_hard:
                continue
            if not w.lo_hard and not w.hi_hard:
                raise NonUnit(f"variable {v}: window soft on both sides")
            soft[v] = self._direction(v)
        for key in self.terms:
            o = [soft[v] * e for v, e in zip(self.vars, key) if v in soft]
            if not all(x >= 0 for x in o) or not any(x > 0 for x in o):
                raise NonUnit(f"{what} argument has non-nilpotent term {key}")
        gwins = {}
        for v in self.vars:
            w = self.wins[v]
            if v not in soft:
                gwins[v] = VarWindow(0, 0, True, True, w.den)
            elif w.lo_hard:
                gwins[v] = VarWindow(0, w.hi, True, False, w.den)
            else:
                gwins[v] = VarWindow(w.lo, 0, False, True, w.den)
        return gwins

    def exp(self) -> "TruncSeries":
        gwins = self._smallness_window("exp")
        total = TruncSeries.scalar(1, gwins, self.caps)
        power = total
        j = 0
        while True:
            j += 1
            power = (power * self).truncated(gwins)
            if power.is_zero():
                break
            total = total + power.scale(Fraction(1, _factorial(j)))
            if j > 100000:
                raise NonUnit("exp expansion did not terminate")
        return total

    def log1p(self) -> "TruncSeries":
        gwins = self._smallness_window("log1p")
        total = TruncSeries.scalar(0, gwins, self.caps)
        power = TruncSeries.scalar(1, gwins, self.caps)
        j = 0
        while True:
            j += 1
            power = (power * self).truncated(gwins)
            if power.is_zero():
                break
            total = total + power.scale(Fraction((-1) ** (j + 1), j))
            if j > 100000:
                raise NonUnit("log1p expansion did not terminate")
        return total

    def log(self) -> "TruncSeries":
        lead = self._leading_key()
        if any(lead):
            raise NonUnit("log requires leading monomial at exponent 0")
        if not (self.terms[lead] - PR.one()).is_zero():
            raise NonUnit("log requires unit leading coefficient 1")
        return (self - 1).log1p()

    # -- calculus ------------------------------------------------------------

    def derivative(self, v: str) -> "TruncSeries":
        if v not in self.wins:
            return TruncSeries(self.vars, dict(self.wins), {}, self.caps)
        i = self.vars.index(v)
        w = self.wins[v]
        out = {}
        for key, c in self.terms.items():
            e = key[i]
            if e == 0:
                continue
            out[key[:i] + (e - w.den,) + key[i + 1:]] = c * Fraction(e, w.den)
        wins = dict(self.wins)
        wins[v] = VarWindow(w.lo - w.den, w.hi - w.den, w.lo_hard, w.hi_hard, w.den)
        caps = {g: (c - w.den if v in g else c) for g, c in self.caps.items()}
        return TruncSeries(self.vars, wins, out, caps)._pruned()

    def shift_exponent(self, v: str, delta: int) -> "TruncSeries":
        """Multiply by v^(delta/den) exactly; the window shifts along."""
        if delta == 0:
            return self
        if v not in self.wins:
            widened = self + TruncSeries.scalar(0, {v: POINT})
            return widened.shift_exponent(v, delta)
        i = self.vars.index(v)
        w = self.wins[v]
        wins = dict(self.wins)
        wins[v] = VarWindow(w.lo + delta, w.hi + delta, w.lo_hard, w.hi_hard, w.den)
        terms = {key[:i] + (key[i] + delta,) + key[i + 1:]: c
                 for key, c in self.terms.items()}
        return TruncSeries(self.vars, wins, terms, self.caps)

    def hard_slice(self, v: str, lo: int) -> "TruncSeries":
        """The sub-series with v-exponent >= lo, certified exact.

        Sound iff everything from ``lo`` upward is known: the window must
        satisfy lo >= win.lo (or lo_hard) together with hi_hard.
        """
        w = self._win(v)
        if not w.hi_hard or (lo < w.lo and not w.lo_hard):
            raise WindowUnderflow(
                f"variable {v}: slice at {lo} not fully known in {w}")
        if v not in self.wins:
            return self if lo <= 0 else TruncSeries(self.vars, dict(self.wins),
                                                    {}, self.caps)
        i = self.vars.index(v)
        terms = {key: c for key, c in self.terms.items() if key[i] >= lo}
        exps = [key[i] for key in terms] or [lo]
        wins = dict(self.wins)
        wins[v] = VarWindow(min(exps), max(exps), True, True, w.den)
        return TruncSeries(self.vars, wins, terms, self.caps)

    def below_slice(self, v: str, lo: int) -> "TruncSeries":
        """The complementary sub-series with v-exponent < lo."""
        w = self._win(v)
        if v not in self.wins:
            return TruncSeries(self.vars, dict(self.wins), {}, self.caps) \
                if lo <= 0 else self
        i = self.vars.index(v)
        terms = {key: c for key, c in self.terms.items() if key[i] < lo}
        wins = dict(self.wins)
        wins[v] = VarWindow(w.lo, lo - 1, w.lo_hard, True, w.den)
        return TruncSeries(self.vars, wins, terms, self.caps)

    def coeff_of(self, v: str, e: int) -> "TruncSeries":
        """Exact coefficient of v^(e/den); WindowUnderflow if outside window."""
        w = self._win(v)
        if not w.contains_known(e):
            raise WindowUnderflow(f"coefficient of {v}^[{e}/{w.den}] outside window {w}")
        if v not in self.wins:
            if e == 0:
                return self
            return TruncSeries(self.vars, dict(self.wins), {}, self.caps)
        i = self.vars.index(v)
        nvars = self.vars[:i] + self.vars[i + 1:]
        wins = {u: wv for u, wv in self.wins.items() if u != v}
        terms = {}
        for key, c in self.terms.items():
            if key[i] == e:
                terms[key[:i] + key[i + 1:]] = c
        caps = {}
        for g, c in self.caps.items():
            if v not in g:
                caps[g] = c
            else:
                rest = g - {v}
                if rest:
                    caps[rest] = min(caps.get(rest, c - e), c - e)
        return TruncSeries(nvars, wins, terms, caps)

    def residue(self, v: str) -> "TruncSeries":
        """Coefficient of v^-1."""
        return self.coeff_of(v, -self._win(v).den)

    def subst(self, v: str, repl: "TruncSeries") -> "TruncSeries":
        """Substitute repl for v; negative v-powers use recip(repl)."""
        if v not in self.wins:
            return self
        w = self.wins[v]
        if any(v in g for g in self.caps):
            # a cap transfers through a plain linear substitution: the total
            # degree of the image equals the degree it replaces
            if not _is_linear_form(repl):
                raise NotInvertible("substitution on a cap-grouped variable")
        if w.den != 1:
            raise NotInvertible("substitution on fractional-exponent variable")
        i = self.vars.index(v)
        groups: dict[int, dict] = {}
        for key, c in self.terms.items():
            groups.setdefault(key[i], {})[key[:i] + key[i + 1:]] = c
        nvars = self.vars[:i] + self.vars[i + 1:]
        nwins = {u: wv for u, wv in self.wins.items() if u != v}
        caps = {}
        for g, cval in self.caps.items():
            if v not in g:
                caps[g] = min(caps.get(g, cval), cval)
            else:
                ng = frozenset((g - {v}) | set(repl.vars))
                caps[ng] = min(caps.get(ng, cval), cval)
        pows: dict[int, TruncSeries] = {}
        repl_inv = None

        def power(e: int) -> TruncSeries:
            nonlocal repl_inv
            p = pows.get(e)
            if p is not None:
                return p
            if e == 0:
                p = TruncSeries.scalar(1, repl.wins)
            elif e > 0:
                p = power(e - 1) * repl
            else:
                if repl_inv is None:
                    repl_inv = repl.recip()
                p = power(e + 1) * repl_inv
            pows[e] = p
            return p

        out = TruncSeries(nvars, nwins, {}, caps) + TruncSeries.scalar(0, repl.wins)
        for e, sub in sorted(groups.items()):
            out = out + TruncSeries(nvars, nwins, sub, caps) * power(e)
        # A truncation of self in v becomes a truncation of the image: in
        # the replacement's leading variable when it is aligned (unit
        # leading exponent), or as a group cap when the replacement is a
        # plain linear combination of first-power variables.
        if not (w.lo_hard and w.hi_hard):
            lv = _leading_var(repl)
            if lv is not None:
                wu = out._win(lv)
                lo, lo_hard = wu.lo, wu.lo_hard
                hi, hi_hard = wu.hi, wu.hi_hard
                if not w.hi_hard:
                    hi, hi_hard = min(hi, w.hi * wu.den), False
                if not w.lo_hard:
                    lo, lo_hard = max(lo, w.lo * wu.den), False
                if lo > hi:
                    raise WindowUnderflow(f"empty window after substitution in {v}")
                out = out.with_window(lv, VarWindow(lo, hi, lo_hard, hi_hard,
                                                    wu.den))
                return out
            if w.lo_hard and w.lo >= 0 and _is_linear_form(repl):
                group = [u for u in repl.vars
                         if any(key[repl.vars.index(u)] for key in repl.terms)]
                return out.with_cap(group, w.hi)
            raise NotInvertible(
                f"substitution for truncated variable {v} requires an "
                "aligned replacement (unit leading exponent)")
        return out

    # -- comparisons ---------------------------------------------------------

    def eq_report(self, other: "TruncSeries"):
        """None if equal on the joint known window, else (exponents, residual)."""
        diff = self - other
        if diff.is_zero():
            return None
        key = min(diff.terms)
        return ({v: Fraction(e, diff.wins[v].den)
                 for v, e in zip(diff.vars, key) if e},
                diff.terms[key])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ParamRat)):
            other = TruncSeries.scalar(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- display / serialization ---------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            mono = []
            for v, e in zip(self.vars, key):
                if e:
                    p = Fraction(e, self.wins[v].den)
                    mono.append(f"{v}^{p}" if p != 1 else v)
            body = "*".join(mono)
            bits.append(f"({c})*{body}" if body else f"({c})")
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "windows": {v: {"lo": w.lo, "hi": w.hi, "lo_hard": w.lo_hard,
                            "hi_hard": w.hi_hard, "den": w.den}
                        for v, w in sorted(self.wins.items())},
            "terms": [[list(key), str(self.terms[key])]
                      for key in sorted(self.terms)],
        }


# -- free functions ------------------------------------------------------


def _remap(s: TruncSeries, allvars: tuple[str, ...]) -> dict:
    pos = [s.vars.index(v) if v in s.vars else None for v in allvars]
    out = {}
    for key, c in s.terms.items():
        out[tuple(0 if p is None else key[p] for p in pos)] = c
    return out


def _key_bounds(vars: tuple[str, ...], wins: Mapping[str, VarWindow],
                caps: Mapping[frozenset, int]):
    """(lows, highs, capspec) of a window: per-position exponent bounds and,
    per group cap, the key positions it sums with its cap."""
    lows = tuple(wins[v].lo for v in vars)
    highs = tuple(wins[v].hi for v in vars)
    capspec = []
    if caps:
        idx = {v: i for i, v in enumerate(vars)}
        capspec = [(tuple(idx[v] for v in g if v in idx), cap)
                   for g, cap in caps.items()]
    return lows, highs, capspec


def _under_caps(key, capspec) -> bool:
    for positions, cap in capspec:
        if sum(key[i] for i in positions) > cap:
            return False
    return True


def _pair_products(pairs, bounds) -> dict:
    """Sum ca * cb at key ka + kb over ``(ka, ca, [(kb, cb), ...])`` pairs,
    skipping keys outside ``bounds`` (see ``_key_bounds``) and zero sums."""
    lows, highs, capspec = bounds
    out: dict[tuple[int, ...], ParamRat] = {}
    for ka, ca, tb in pairs:
        for kb, cb in tb:
            key = tuple(map(add, ka, kb))
            for e, lo, hi in zip(key, lows, highs):
                if e < lo or e > hi:
                    break
            else:
                if capspec and not _under_caps(key, capspec):
                    continue
                prod = ca * cb
                if prod.is_zero():
                    continue
                cur = out.get(key)
                if cur is None:
                    out[key] = prod
                else:
                    s = cur + prod
                    if s.is_zero():
                        del out[key]
                    else:
                        out[key] = s
    return out


def _add_b(a, b):
    if a in (NEG_INF, POS_INF):
        return a
    if b in (NEG_INF, POS_INF):
        return b
    return a + b


def _cap_merge(a: dict, b: dict) -> dict:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for g, c in b.items():
        out[g] = min(out.get(g, c), c)
    return out


def _is_linear_form(s: TruncSeries) -> bool:
    """Every term is a single first-power variable (den 1)."""
    for key in s.terms:
        nz = [(v, e) for v, e in zip(s.vars, key) if e]
        if len(nz) != 1 or nz[0][1] != s.wins[nz[0][0]].den:
            return False
    return bool(s.terms)


def _leading_var(s: TruncSeries) -> str | None:
    try:
        lead = s._leading_key()
    except NonUnit:
        return None
    cands = [(v, e) for v, e in zip(s.vars, lead) if e != 0]
    if len(cands) == 1:
        v, e = cands[0]
        if e == s.wins[v].den:
            return v
    return None


def series_reversion(f: TruncSeries, v: str, out_var: str | None = None) -> TruncSeries:
    """Compositional inverse g with f(g(w)) = w within the window.

    ``f`` must have the shape v + (tail) with the tail adically lower in v's
    orientation (about infinity for down-type windows, about zero for
    up-type); other variables ride along as parameters.  The result is
    expressed in ``out_var`` (default: the same name).
    """
    if v not in f.wins:
        raise NotInvertible("reversion variable absent")
    w = f.wins[v]
    if w.den != 1:
        raise NotInvertible("reversion on fractional-exponent variable")
    i = f.vars.index(v)
    lin = {key: c for key, c in f.terms.items() if key[i] == 1}
    unit_key = tuple(1 if j == i else 0 for j in range(len(f.vars)))
    if lin.get(unit_key) != PR.one() or len(lin) != 1:
        raise NotInvertible("reversion requires unit linear coefficient")
    out_var = out_var or v
    g = TruncSeries.var(out_var, VarWindow(w.lo, w.hi, w.lo_hard, w.hi_hard, 1))
    fprime = f.derivative(v)
    for _ in range(4 * (w.hi - w.lo + 2)):
        err = f.subst(v, g) - TruncSeries.var(out_var, g.wins[out_var])
        if err.is_zero():
            return g
        g = g - err * fprime.subst(v, g).recip()
    raise NotInvertible("reversion did not converge inside the window")


def taylor_shift(c: TruncSeries, xvar: str, epsvar: str, step: Fraction | int,
                 eps_win: VarWindow | None = None) -> TruncSeries:
    """sum_j (step*eps)^j d_x^j c / j!, bounded by the eps window.

    Each summand multiplies by the exact monomial eps^j (an exponent
    shift), so exact eps-Laurent structure is preserved; the result is
    marked eps-truncated only when the remaining tail genuinely escapes
    the declared window.
    """
    if eps_win is None:
        if epsvar not in c.wins:
            raise WindowUnderflow("taylor_shift needs an eps window")
        eps_win = c.wins[epsvar]
    den = eps_win.den
    out = c
    d = c
    j = 0
    hit_window = False
    while True:
        j += 1
        d = d.derivative(xvar)
        if d.is_zero():
            break
        supp_lo, _ = d.support_bounds(epsvar)
        base = supp_lo if supp_lo != NEG_INF else d._win(epsvar, den).lo
        if base + j * den > eps_win.hi:
            hit_window = True
            break
        out = out + d.shift_exponent(epsvar, j * den).scale(
            Fraction(step ** j, _factorial(j)))
    if hit_window:
        w = out._win(epsvar, den)
        out = out.with_window(
            epsvar, VarWindow(w.lo, eps_win.hi, w.lo_hard, False, den))
    return out


_FACT = [1]


def _factorial(n: int) -> int:
    while len(_FACT) <= n:
        _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[n]
