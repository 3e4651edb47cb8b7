"""Truncated multivariate Laurent/power series with provable windows.

A ``TruncSeries`` stores a sparse map exponent-vector -> ParamRat together
with, per variable, an explicit window ``[lo, hi]`` of integer exponents
and two hardness flags.

Window semantics, per variable:

* every stored coefficient with exponent inside ``[lo, hi]`` is exact;
* ``lo_hard``  - the true object has no support below ``lo``; consequently
  every exponent below the window is known (the coefficient is zero);
* ``hi_hard``  - mirrored;
* a soft bound marks a truncation: beyond it the true object is unknown.

Arithmetic computes the largest window on which the result is provably exact
and never silently drops a term inside a window.  Optional group caps bound
the total degree of a set of variables (jets in many t's at once).  A cap
is a jet cap: each variable of its group is hard below at >= 0, so every
term has degree >= 0 in the group and a product is known through the
least cap of its factors.  ``with_cap``, products and the grade solve of
recip, exp and log1p raise WindowUnderflow on a cap outside this rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, count
from math import factorial
from operator import add, gt, itemgetter, le, lt, mul
from typing import Mapping

from .errors import NonConvergent, NonUnit, NotInvertible, WindowUnderflow
from .rationals import ParamRat, PR

NEG_INF = float("-inf")
POS_INF = float("inf")


class VarWindow:
    """The window [lo, hi] of one variable and its two hardness flags.

    A value: never changed after construction, equal and hashed by its
    four fields.  A slotted class, as a window is built per variable of
    every product and sum."""

    __slots__ = ("lo", "hi", "lo_hard", "hi_hard")

    def __init__(self, lo: int, hi: int, lo_hard: bool, hi_hard: bool):
        self.lo = lo
        self.hi = hi
        self.lo_hard = lo_hard
        self.hi_hard = hi_hard

    def __eq__(self, other):
        if other.__class__ is not VarWindow:
            return NotImplemented
        return (self.lo, self.hi, self.lo_hard, self.hi_hard) == \
            (other.lo, other.hi, other.lo_hard, other.hi_hard)

    def __hash__(self):
        return hash((self.lo, self.hi, self.lo_hard, self.hi_hard))

    def __repr__(self):
        return (f"VarWindow(lo={self.lo!r}, hi={self.hi!r}, "
                f"lo_hard={self.lo_hard!r}, hi_hard={self.hi_hard!r})")

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


POINT = VarWindow(0, 0, True, True)


def up_win(hi: int, lo: int = 0) -> VarWindow:
    """Power-series-style: true support bounded below, truncated above."""
    return VarWindow(lo, hi, True, False)


def down_win(lo: int, hi: int = 0) -> VarWindow:
    """Laurent-at-infinity style: bounded above, truncated below."""
    return VarWindow(lo, hi, False, True)


def exact_win(lo: int, hi: int) -> VarWindow:
    return VarWindow(lo, hi, True, True)


def _as_coeff(value) -> ParamRat:
    if isinstance(value, ParamRat):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamRat.rational(value)
    raise TypeError(f"bad coefficient {value!r}")


class TruncSeries:
    """A truncated series: ``terms`` maps exponent keys over ``vars`` to
    nonzero coefficients, ``wins`` holds each variable's window and
    ``caps`` the group caps.  A series is never changed after
    construction: operations build new series (possibly sharing these
    dicts), so what is derived from them (``_extremes``, ``_supports``) is
    kept on the series."""

    __slots__ = ("vars", "wins", "terms", "caps", "_ext", "_sup")

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
        """c on ``wins``; a nonzero c is known at exponent 0, so it widens
        each window that leaves 0 out to hold it."""
        c = _as_coeff(c)
        wins = dict(wins) if wins else {}
        caps = dict(caps) if caps else {}
        vars = tuple(sorted(wins))
        if not c.is_zero():
            for v, w in wins.items():
                if not w.lo <= 0 <= w.hi:
                    wins[v] = VarWindow(min(w.lo, 0), max(w.hi, 0),
                                        w.lo_hard, w.hi_hard)
        # the one key, of exponent and degree 0, is kept where a prune
        # would keep it
        kept = not c.is_zero() and all(cap >= 0 for cap in caps.values())
        return TruncSeries(vars, wins, {(0,) * len(vars): c} if kept else {},
                           caps)

    @staticmethod
    def zero() -> "TruncSeries":
        return TruncSeries((), {}, {})

    @staticmethod
    def var(name: str, win: VarWindow, power: int = 1, coeff=1) -> "TruncSeries":
        """coeff * name^power."""
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
    def from_poly(name: str, coeffs: Mapping[int, object]) -> "TruncSeries":
        """Exact Laurent polynomial in one variable (both-hard window)."""
        cc = {}
        for e, c in coeffs.items():
            c = _as_coeff(c)
            if not c.is_zero():
                cc[e] = c
        if not cc:
            return TruncSeries((name,), {name: exact_win(0, 0)}, {})
        win = exact_win(min(cc), max(cc))
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

    def _win(self, v: str) -> VarWindow:
        return self.wins.get(v, POINT)

    def _extremes(self) -> list:
        """Per position of ``vars``, the (least, greatest) exponent of the
        stored terms; empty without terms.  One pass over the keys on first
        use, then kept on the series."""
        try:
            return self._ext
        except AttributeError:
            self._ext = [(min(col), max(col)) for col in zip(*self.terms)]
            return self._ext

    def _supports(self) -> dict:
        """Per variable of ``vars``, the sharpened (lo, hi) bounds of the
        true support (``support_in``), (+inf, -inf) if it is empty; from
        ``_extremes`` on first use, then kept on the series."""
        try:
            return self._sup
        except AttributeError:
            sup = self._sup = {}
            if not self.terms:
                for v in self.vars:
                    sup[v] = support_in(self.wins[v], ())
                return sup
            for v, (lo, hi) in zip(self.vars, self._extremes()):
                w = self.wins[v]        # support_in of the extremes
                sup[v] = (lo if w.lo_hard else NEG_INF,
                          hi if w.hi_hard else POS_INF)
            return sup

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def truncated(self, wins: Mapping[str, VarWindow]) -> "TruncSeries":
        """self plus one zero series per declared window in ``wins``."""
        return _fold(self, (TruncSeries((v,), {v: w}, {})
                            for v, w in wins.items()), "truncation")

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
            wins[v] = exact_win(min(min(exps), 0), max(max(exps), 0))
        return TruncSeries(self.vars, wins, dict(self.terms), {})

    def with_cap(self, group, cap: int) -> "TruncSeries":
        """self known to total degree ``cap`` in the variables of ``group``,
        each of which must be hard below at >= 0 (the jet rule)."""
        caps = dict(self.caps)
        g = frozenset(group)
        caps[g] = min(caps.get(g, cap), cap)
        _check_jet_caps(self, caps, "with_cap")
        return TruncSeries(self.vars, self.wins, self.terms, caps)._pruned()

    def rename(self, names: Mapping[str, str]) -> "TruncSeries":
        """The same series with each variable v called ``names.get(v, v)``;
        windows and caps follow their variables, and vars stay sorted."""
        vars_new = tuple(names.get(v, v) for v in self.vars)
        order = sorted(range(len(vars_new)), key=lambda i: vars_new[i])
        wins = {names.get(v, v): w for v, w in self.wins.items()}
        terms = {tuple(key[i] for i in order): c
                 for key, c in self.terms.items()}
        caps = {frozenset(names.get(v, v) for v in g): c
                for g, c in self.caps.items()}
        return TruncSeries(tuple(vars_new[i] for i in order), wins, terms, caps)

    def map_coeffs(self, fn) -> "TruncSeries":
        """fn applied to every coefficient; fn must keep nonzero ones
        nonzero (a ring automorphism such as ``ParamRat.swap_nu``)."""
        return TruncSeries(self.vars, self.wins,
                           {k: fn(c) for k, c in self.terms.items()}, self.caps)

    # -- alignment ---------------------------------------------------------

    def _aligned(self, other: "TruncSeries"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        return (allvars, _remap(self.terms, self.vars, allvars),
                _remap(other.terms, other.vars, allvars))

    # -- addition ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ParamRat)):
            other = TruncSeries.scalar(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return _fold(self, (other,), "addition")

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

    # -- multiplication ----------------------------------------------------

    def scale(self, c) -> "TruncSeries":
        c = _as_coeff(c)
        if c.is_zero():
            return TruncSeries(self.vars, self.wins, {}, self.caps)
        if c.is_one():
            return self
        return TruncSeries(self.vars, self.wins,
                           {k: v * c for k, v in self.terms.items()}, self.caps)

    def _product_wins(self, other: "TruncSeries", allvars) -> dict:
        """Per-variable windows of self * other; every window is the point
        0 when a factor is identically zero."""
        sup_a, sup_b = self._supports(), other._supports()
        wins_a, wins_b = self.wins, other.wins
        # a variable a factor lacks is the point 0, unless it has no terms
        lack_a = (0, 0) if self.terms else (POS_INF, NEG_INF)
        lack_b = (0, 0) if other.terms else (POS_INF, NEG_INF)
        wins = {}
        for v in allvars:
            sa, sb = sup_a.get(v, lack_a), sup_b.get(v, lack_b)
            if sa[0] > sa[1] or sb[0] > sb[1]:
                # one factor is identically zero
                return {u: POINT for u in allvars}
            wins[v] = product_win(wins_a.get(v, POINT), wins_b.get(v, POINT),
                                  sa, sb, v)
        return wins

    def _product_caps(self, other: "TruncSeries") -> dict:
        """Group caps of self * other: the least cap of the factors on each
        group.  Every term of both factors has degree >= 0 in a capped group
        (``_check_jet_caps``), so a product term at or under the least cap
        pairs only terms that both factors know."""
        caps = _cap_merge(self.caps, other.caps)
        if caps:
            _check_jet_caps(self, caps, "product")
            _check_jet_caps(other, caps, "product")
        return caps

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamRat)):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        allvars = self.vars if self.vars == other.vars else \
            tuple(sorted(set(self.vars).union(other.vars)))
        caps = self._product_caps(other)
        wins = self._product_wins(other, allvars)
        if not self.terms or not other.terms:
            return TruncSeries(allvars, wins, {}, caps)
        if not caps and len(other.terms) == 1:
            return TruncSeries(allvars, wins, _one_term_product(
                self, other, allvars, wins, False), caps)
        if not caps and len(self.terms) == 1:
            return TruncSeries(allvars, wins, _one_term_product(
                other, self, allvars, wins, True), caps)
        _, ta, tb = self._aligned(other)
        bounds = _key_bounds(allvars, wins, caps)
        tb = _with_cap_sums(tb, bounds[2])
        terms = _pair_products(_window_pairs(ta, tb, bounds), bounds,
                               _overhangs(self, other, allvars, bounds))
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
        caps = self._product_caps(other)
        wins = self._product_wins(other, allvars)
        terms = {}
        i = allvars.index(v)
        if wins[v].lo <= e <= wins[v].hi:
            bounds = _key_bounds(allvars, wins, caps)
            buckets: dict[int, list] = {}
            for right in _with_cap_sums(tb, bounds[2]):
                buckets.setdefault(right[0][i], []).append(right)
            pairs = ((ka, ca, buckets[e - ka[i]]) for ka, ca in ta.items()
                     if e - ka[i] in buckets)
            terms = _pair_products(pairs, bounds,
                                   _overhangs(self, other, allvars, bounds))
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

    def _offset_window(self, lead, what: str) -> dict[str, VarWindow]:
        """Window of a sum whose support starts at offset 0 from ``lead``.

        An up-type variable is known to offset hi - lead, a down-type one
        from lo - lead; an exactly-tracked variable gets the point 0 (the
        grade solve grows it freely).  NonUnit for a window soft on both
        sides, WindowUnderflow for an empty window.
        """
        gwins = {}
        for i, v in enumerate(self.vars):
            w = self.wins[v]
            if w.lo_hard and w.hi_hard:
                gwins[v] = POINT
            elif w.lo_hard:      # up-type
                gwins[v] = up_win(w.hi - lead[i])
            elif w.hi_hard:      # down-type
                gwins[v] = down_win(w.lo - lead[i])
            else:
                raise NonUnit(f"variable {v}: window soft on both sides")
        for i, v in enumerate(self.vars):
            if gwins[v].lo > gwins[v].hi:
                raise WindowUnderflow(
                    f"variable {v}: empty window in {what} (leading exponent "
                    f"{lead[i]} outside {self.wins[v]})")
        return gwins

    def _recip_parts(self):
        """(c0^-1 x^-lead, tail, gwins) of 1/self = c0^-1 x^-lead / (1 + h).

        ``tail`` holds h = self / (c0 x^lead) - 1 by exponent offset from the
        leading key, and ``gwins`` is the window of the geometric sum
        sum_j (-h)^j (support starts at 0).  The caps pass through: NonUnit
        if the leading key has nonzero degree in a capped group, which would
        shift the degree of every term of h there.
        """
        lead = self._leading_key()
        for g in self.caps:
            if sum(e for v, e in zip(self.vars, lead) if v in g):
                raise NonUnit(f"recip of a series led by {lead}, of nonzero "
                              f"degree in the capped group {sorted(g)}")
        c0_inv = self.terms[lead].inverse()
        tail = {tuple(a - b for a, b in zip(key, lead)): c * c0_inv
                for key, c in self.terms.items() if key != lead}
        gwins = self._offset_window(lead, "recip")
        minv = TruncSeries(self.vars,
                           {v: exact_win(-lead[i], -lead[i])
                            for i, v in enumerate(self.vars)},
                           {tuple(-e for e in lead): c0_inv})
        return minv, tail, gwins

    def recip(self) -> "TruncSeries":
        """1/self = c0^-1 x^-lead / (1 + h), for a self led by one
        dominating monomial (``_leading_key``).

        b = 1/(1 + h) solves b = 1 - h b: ``_grade_solve`` with seed 1,
        tail -h and weight 1.
        """
        minv, tail, gwins = self._recip_parts()
        total = _grade_solve(self, gwins, self.caps,
                             {(0,) * len(self.vars): PR.one()},
                             {t: -c for t, c in tail.items()}, None, "recip")
        return total * minv

    def recip_within(self, wins: Mapping[str, VarWindow]) -> "TruncSeries":
        return self.truncated(wins).recip()

    def exp(self) -> "TruncSeries":
        """exp(self) for an adically small self.  With E the Euler operator
        (the oriented v d/dv of each soft variable v), E exp(h) =
        E(h) exp(h) gives seed 1, tail h and weight r/(g+r)."""
        zero = (0,) * len(self.vars)
        gwins = self._offset_window(zero, "exp")
        return _grade_solve(self, gwins, self.caps, {zero: PR.one()},
                            self.terms, "r", "exp")

    def log1p(self) -> "TruncSeries":
        """log(1 + self) for an adically small self: (1 + h) E log(1 + h)
        = E(h) gives seed h, tail h and weight -g/(g+r)."""
        gwins = self._offset_window((0,) * len(self.vars), "log1p")
        return _grade_solve(self, gwins, self.caps, self.terms, self.terms,
                            "-g", "log1p")

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
            out[key[:i] + (e - 1,) + key[i + 1:]] = c * e
        lo = w.lo - 1
        if w.lo_hard and lo == -1 and w.hi >= 1:
            lo = 0      # the v^0 term vanishes: a hard bottom at 0 stays
        wins = dict(self.wins)
        wins[v] = VarWindow(lo, w.hi - 1, w.lo_hard, w.hi_hard)
        caps = {g: (c - 1 if v in g else c) for g, c in self.caps.items()}
        return TruncSeries(self.vars, wins, out, caps)._pruned()

    def euler_weight(self, v: str, a, b) -> "TruncSeries":
        """(a v d/dv + b) self: each term c v^e becomes (a e + b) c, with
        one coefficient a e + b per distinct e; windows and caps stay."""
        if v not in self.wins:
            return self.scale(b)
        i = self.vars.index(v)
        weights: dict[int, ParamRat] = {}
        terms = {}
        for key, c in self.terms.items():
            w = weights.get(key[i])
            if w is None:
                w = weights[key[i]] = _as_coeff(a * key[i] + b)
            if not w.is_zero():
                terms[key] = c * w
        return TruncSeries(self.vars, self.wins, terms, self.caps)

    def exp_derivation(self, parts, wins: Mapping[str, VarWindow]) -> "TruncSeries":
        """exp(D) self for the derivation D = sum_i m_i d/dv_i.

        ``parts`` lists the pairs (v_i, m_i); each m_i is an exact monomial
        c u^a free of the v_i, applied as an exponent shift and a scale (a
        zero m_i drops out).  D lowers v_i-degrees, so the sum terminates
        on a polynomial jet in the v_i or once the powers leave ``wins``.
        ``power_sum`` adds the powers D^j self, each truncated to ``wins``,
        onto ``self``.  A power that only the truncation empties ends the
        sum and bounds it.  Where the hard window of ``self``, moved j
        times by D, puts D^j self outside a window of ``wins`` and no m_i
        moves back towards it, the whole tail lies there, and the sum is
        truncated to that window alone; else the power folds in all its
        windows and caps.
        """
        if not any(v in self.wins for v, _ in parts):
            return self         # constant in every v_i: D self = 0
        monos = [(v, dict(zip(m.vars, key)), c) for v, m in parts
                 for key, c in m.terms.items()]
        # per variable of wins: the move of its exponent by each term of D
        drift = {u: [exps.get(u, 0) - (v == u) for v, exps, _ in monos]
                 for u in wins}
        ends = []
        steps = count(1)

        def times_m(d, exps, c):
            for u, a in exps.items():
                d = d.shift_exponent(u, a)
            return d.scale(c)

        def step(power):
            j = next(steps)
            raw = sum_series(times_m(d, exps, c) for v, exps, c in monos
                             if (d := power.derivative(v)))
            if not raw:
                return raw
            cut = raw.truncated(wins)
            if not cut:
                away = {u: w for u, w in wins.items()
                        if _leaves(self._win(u), j, drift[u], w)}
                ends.append(TruncSeries.scalar(0, away) if away else cut)
            return cut

        spans = [self._win(v) for v in {v for v, _ in parts}.union(wins)]
        limit = 1 + sum(abs(w.lo) + abs(w.hi)
                        for w in chain(spans, wins.values()))
        total = power_sum(self, step, lambda j: Fraction(1, factorial(j)),
                          limit=limit, what="exp of a derivation")
        return sum_series(ends, total)

    def shift_exponent(self, v: str, delta: int) -> "TruncSeries":
        """Multiply by v^delta exactly; the window shifts along.  v may sit
        in no cap group: the shift would move the degree the cap counts."""
        if any(v in g for g in self.caps):
            raise NotInvertible(f"exponent shift of {v}, a cap-grouped "
                                "variable")
        if delta == 0:
            return self
        if v not in self.wins:
            widened = self + TruncSeries.scalar(0, {v: POINT})
            return widened.shift_exponent(v, delta)
        i = self.vars.index(v)
        w = self.wins[v]
        wins = dict(self.wins)
        wins[v] = VarWindow(w.lo + delta, w.hi + delta, w.lo_hard, w.hi_hard)
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
        wins[v] = exact_win(min(exps), max(exps))
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
        wins[v] = VarWindow(w.lo, lo - 1, w.lo_hard, True)
        return TruncSeries(self.vars, wins, terms, self.caps)

    def coeff_of(self, v: str, e: int) -> "TruncSeries":
        """Exact coefficient of v^e; WindowUnderflow if outside window or
        above the cap of a group that holds v.  The rest of such a group
        keeps the cap less e."""
        w = self._win(v)
        if not w.contains_known(e):
            raise WindowUnderflow(f"coefficient of {v}^{e} outside window {w}")
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
                continue
            if e > c:
                raise WindowUnderflow(f"coefficient of {v}^{e} above the cap "
                                      f"{c} on {', '.join(sorted(g))}")
            if g != {v}:
                rest = g - {v}
                caps[rest] = min(caps.get(rest, c - e), c - e)
        return TruncSeries(nvars, wins, terms, caps)

    def subst(self, v: str, repl: "TruncSeries") -> "TruncSeries":
        """Substitute repl for v; negative v-powers use recip(repl).

        A truncation of self in v moves onto the variable that leads repl,
        which must itself be truncated in repl; v may sit in no cap group.
        """
        if v not in self.wins:
            return self
        w = self.wins[v]
        if any(v in g for g in self.caps):
            raise NotInvertible("substitution on a cap-grouped variable")
        lv = None
        if not (w.lo_hard and w.hi_hard):
            lv = _leading_var(repl)
            if lv is None:
                raise NotInvertible(
                    f"substitution for truncated variable {v} requires a "
                    "replacement led by a truncated variable with unit "
                    "exponent")
        i = self.vars.index(v)
        groups: dict[int, dict] = {}
        for key, c in self.terms.items():
            groups.setdefault(key[i], {})[key[:i] + key[i + 1:]] = c
        nvars = self.vars[:i] + self.vars[i + 1:]
        nwins = {u: wv for u, wv in self.wins.items() if u != v}
        # every power is built before the first window merge, so a repl
        # with no inverse fails in recip, not in a merge of its windows
        pows: dict[int, TruncSeries] = {0: TruncSeries.scalar(1, repl.wins)}
        for e in range(1, max(groups, default=0) + 1):
            pows[e] = pows[e - 1] * repl
        if min(groups, default=0) < 0:
            repl_inv = repl.recip()
            for e in range(-1, min(groups) - 1, -1):
                pows[e] = pows[e + 1] * repl_inv
        images = (TruncSeries(nvars, nwins, sub, self.caps) * pows[e]
                  for e, sub in sorted(groups.items()))
        out = _fold(TruncSeries(nvars, nwins, {}, self.caps), chain(
            (TruncSeries.scalar(0, repl.wins),), images), "substitution")
        # a truncation of self in v becomes one of the image in lv
        if lv is None:
            return out
        wu = out._win(lv)
        lo, lo_hard = wu.lo, wu.lo_hard
        hi, hi_hard = wu.hi, wu.hi_hard
        if not w.hi_hard:
            hi, hi_hard = min(hi, w.hi), False
        if not w.lo_hard:
            lo, lo_hard = max(lo, w.lo), False
        if lo > hi:
            raise WindowUnderflow(f"empty window after substitution in {v}")
        return out.truncated({lv: VarWindow(lo, hi, lo_hard, hi_hard)})

    # -- comparisons ---------------------------------------------------------

    def coeff_at(self, exps: Mapping[str, int]) -> ParamRat:
        """The stored coefficient of the monomial with exponents ``exps``
        (exponent 0 for a variable it omits), zero if none is stored."""
        if any(e and v not in self.wins for v, e in exps.items()):
            return PR.zero()
        return self.terms.get(tuple(exps.get(v, 0) for v in self.vars),
                              PR.zero())

    def eq_report(self, other: "TruncSeries"):
        """None if equal on the joint known window, else
        ``discrepancy(self, self - other)``."""
        return discrepancy(self, self - other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ParamRat)):
            other = TruncSeries.scalar(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self - other).is_zero()

    # equality on the joint known window is not transitive, so no hash
    # can agree with it
    __hash__ = None

    # -- display ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            mono = []
            for v, e in zip(self.vars, key):
                if e:
                    mono.append(f"{v}^{e}" if e != 1 else v)
            body = "*".join(mono)
            bits.append(f"({c})*{body}" if body else f"({c})")
        return " + ".join(bits)

    __repr__ = __str__


# -- free functions ------------------------------------------------------


def discrepancy(side: TruncSeries, diff: TruncSeries):
    """None if ``diff`` = side - other has no term, else (where, lhs, rhs)
    at its least key: ``where`` is {"at": {variable: exponent}} over the
    nonzero exponents of that key, and lhs and rhs are the coefficients of
    side and of the other there."""
    if diff.is_zero():
        return None
    key = min(diff.terms)
    exps = {v: e for v, e in zip(diff.vars, key) if e}
    lhs = side.coeff_at(exps)
    return {"at": exps}, lhs, lhs - diff.terms[key]


def _remap(terms: dict, vars: tuple[str, ...],
           allvars: tuple[str, ...]) -> dict:
    """``terms``, keyed by ``vars``, keyed by ``allvars`` (a superset): each
    new key picks its exponents from the old key padded with one 0, which
    a variable that ``vars`` lacks picks."""
    pick = itemgetter(*[vars.index(v) if v in vars else len(vars)
                        for v in allvars])
    if len(allvars) == 1:       # one index picks an exponent, not a tuple
        return {(pick(key + (0,)),): c for key, c in terms.items()}
    return {pick(key + (0,)): c for key, c in terms.items()}


def _one_term_product(many: TruncSeries, one: TruncSeries, allvars, wins,
                      one_left: bool) -> dict:
    """The terms of many * one, keyed by ``allvars``, for a ``one`` of one
    term c x^k and no caps: each key of ``many`` moved by k and kept inside
    ``wins``, its coefficient times c (c on the left when ``one_left``, as
    the pair loop forms it), or the coefficient itself for c = 1.

    The moved keys are distinct and a product of nonzero coefficients is
    nonzero, so this is the dict ``_pair_products`` builds, in the same
    order.  ``many``'s extremes, moved by k, show when every key lies
    inside ``wins`` and no key needs the test."""
    (k, c), = one.terms.items()
    if one.vars != allvars:
        exps = dict(zip(one.vars, k))
        k = tuple(exps.get(v, 0) for v in allvars)
    terms = many.terms
    if many.vars != allvars:
        terms = _remap(terms, many.vars, allvars)
    if any(k):
        terms = {tuple(map(add, key, k)): cm for key, cm in terms.items()}
    ext = dict(zip(many.vars, many._extremes()))
    for v, e in zip(allvars, k):
        lo, hi = ext.get(v, (0, 0))
        w = wins[v]
        if lo + e < w.lo or hi + e > w.hi:
            lows, highs, _ = _key_bounds(allvars, wins, {})
            terms = {key: cm for key, cm in terms.items()
                     if all(map(le, lows, key)) and all(map(le, key, highs))}
            break
    if c.is_one():
        return terms
    if one_left:
        return {key: c * cm for key, cm in terms.items()}
    return {key: cm * c for key, cm in terms.items()}


def merge_win(wa: VarWindow, wb: VarWindow, v: str, op: str) -> VarWindow:
    """The window of v in a sum: the known region is the intersection of
    both, and the stored window the hull of both clipped to it: above
    each soft bottom and below each soft top."""
    lo, hi = min(wa.lo, wb.lo), max(wa.hi, wb.hi)
    for w in (wa, wb):
        if not w.lo_hard and w.lo > lo:
            lo = w.lo
        if not w.hi_hard and w.hi < hi:
            hi = w.hi
    if lo > hi:
        raise WindowUnderflow(f"variable {v}: empty window in {op} of {wa} and {wb}")
    lo_hard, hi_hard = wa.lo_hard and wb.lo_hard, wa.hi_hard and wb.hi_hard
    if (lo, hi, lo_hard, hi_hard) == (wa.lo, wa.hi, wa.lo_hard, wa.hi_hard):
        return wa
    return VarWindow(lo, hi, lo_hard, hi_hard)


def support_in(w: VarWindow, stored) -> tuple:
    """Sharpened (lo, hi) bounds of the true support in a variable with
    window ``w`` whose nonzero terms have the exponents ``stored`` (or
    just the least and greatest of them); (+inf, -inf) if it is known to
    be empty."""
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


def product_win(wa: VarWindow, wb: VarWindow, sa: tuple, sb: tuple,
                v: str) -> VarWindow:
    """The window of v in a product of factors with windows ``wa``, ``wb``
    and support bounds ``sa``, ``sb`` (``support_in``), neither empty.

    A nonempty support has no lower bound +inf and no upper bound -inf, so
    no sum below adds two infinities of opposite sign."""
    plo = sa[0] + sb[0]
    phi = sa[1] + sb[1]
    khi = POS_INF
    if not wa.hi_hard:
        khi = wa.hi + sb[0]
    if not wb.hi_hard:
        khi = min(khi, wb.hi + sa[0])
    klo = NEG_INF
    if not wa.lo_hard:
        klo = wa.lo + sb[1]
    if not wb.lo_hard:
        klo = max(klo, wb.lo + sa[1])
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
    return VarWindow(int(lo), int(hi), lo_hard, hi_hard)


def _fold(first: TruncSeries, rest, op: str) -> TruncSeries:
    """first + the series of ``rest``, equal term for term to the chain of
    ``__add__`` in that order, with one term dict and at most one prune.

    Window merges commute and the point window 0 of a summand lacking a
    variable merges once, at the end; the final prune drops every term a
    prune inside the chain would (see README, Design notes), and runs only
    when it can drop one (``_may_drop``).
    """
    vars, wins, caps = first.vars, dict(first.wins), first.caps
    keyed, terms = vars, dict(first.terms)
    missing = set()
    for s in rest:
        if s.vars != vars:
            lacking = set(vars).symmetric_difference(s.vars)
            missing |= lacking
            if not lacking.isdisjoint(s.vars):      # s brings new variables
                vars = tuple(sorted(lacking.union(vars)))
        for v in s.vars:
            w, sw = wins.get(v), s.wins[v]
            if w is None:
                wins[v] = sw
            elif w is not sw or w.lo > w.hi:
                # a window merged with itself stays, unless it is empty
                wins[v] = merge_win(w, sw, v, op)
        if s.caps:
            caps = _cap_merge(caps, s.caps)
        if not s.terms:
            continue
        if keyed != vars:
            terms, keyed = _remap(terms, keyed, vars), vars
        tb = s.terms if s.vars == vars else _remap(s.terms, s.vars, vars)
        for key, c in tb.items():
            cur = terms.get(key)
            if cur is not None:
                c = cur + c
                if c.is_zero():
                    del terms[key]
                    continue
            terms[key] = c
    for v in missing:
        wins[v] = merge_win(wins[v], POINT, v, op)
    if keyed != vars:
        terms = _remap(terms, keyed, vars)
    out = TruncSeries(vars, wins, terms, caps)
    return out._pruned() if _may_drop(out) else out


def _may_drop(s: TruncSeries) -> bool:
    """Whether ``s._pruned()`` could drop a term of s, which stores no zero
    coefficient: whether the extremes of its terms leave a window, or the
    greatest exponents of a capped group sum past its cap."""
    if not s.terms:
        return False
    ext = s._extremes()
    for v, (lo, hi) in zip(s.vars, ext):
        w = s.wins[v]
        if lo < w.lo or hi > w.hi:
            return True
    if s.caps:
        top = dict(zip(s.vars, (hi for _, hi in ext)))
        return any(sum(top.get(v, 0) for v in g) > cap
                   for g, cap in s.caps.items())
    return False


def sum_series(summands, start: TruncSeries | None = None) -> TruncSeries:
    """start + each series of ``summands`` in turn, equal term for term to
    ``functools.reduce(add, summands, start)``; ``start`` defaults to the
    first summand, and an empty sum is ``TruncSeries.zero()``.

    Library code adds series in a loop only through here: the summands
    (often a generator, building one summand at a time) go into one term
    dict and are pruned once (``_fold``)."""
    it = iter(summands)
    if start is None:
        start = next(it, None)
        if start is None:
            return TruncSeries.zero()
    second = next(it, None)
    if second is None:
        return start
    return _fold(start, chain((second,), it), "addition")


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


def _cap_room(key, capspec) -> tuple:
    """Per group cap, the degree a factor may still add to ``key``."""
    return tuple([cap - sum([key[i] for i in positions])
                  for positions, cap in capspec])


def _under_caps(key, capspec) -> bool:
    return min(_cap_room(key, capspec), default=0) >= 0


def _with_cap_sums(terms: dict, capspec) -> list:
    """``(key, coeff, degree per group cap)`` of each term."""
    if not capspec:
        return [(key, c, ()) for key, c in terms.items()]
    return [(key, c, tuple([sum([key[i] for i in positions])
                            for positions, _ in capspec]))
            for key, c in terms.items()]


def _window_pairs(ta: dict, tb: list, bounds):
    """``(ka, ca, right terms)`` triples of ``ta * tb`` for ``_pair_products``.

    ``tb`` comes from ``_with_cap_sums``.  Each left term gets only the right
    terms whose exponent at one position p can land inside the window there:
    kb[p] in [lo - ka[p], hi - ka[p]].  p is where the factors' exponent
    ranges overhang the window the most; every pair dropped here would fail
    ``_pair_products``' window test, and each selection keeps ``tb``'s
    order, so the product is the same dict in the same order.  Small
    products, and products whose ranges fit inside the window, skip the
    scan and pair with all of ``tb``.
    """
    na, nb = len(ta), len(tb)
    unfiltered = ((ka, ca, tb) for ka, ca in ta.items())
    if na * nb <= 4 * (na + nb):
        return unfiltered
    lows, highs, _ = bounds
    p, most = None, 0
    bcols = zip(*(kb for kb, _, _ in tb))
    for i, (acol, bcol, lo, hi) in enumerate(zip(zip(*ta), bcols, lows,
                                                 highs)):
        over = max(lo - min(acol) - min(bcol), 0) + \
            max(max(acol) + max(bcol) - hi, 0)
        if over > most:
            p, most = i, over
    if p is None:
        return unfiltered
    lo, hi = lows[p], highs[p]
    chosen: dict[int, list] = {}

    def pairs():
        for ka, ca in ta.items():
            e = ka[p]
            sel = chosen.get(e)
            if sel is None:
                sel = chosen[e] = [right for right in tb
                                   if lo - e <= right[0][p] <= hi - e]
            yield ka, ca, sel
    return pairs()


def _overhangs(a: TruncSeries, b: TruncSeries, allvars, bounds) -> tuple:
    """The positions of ``allvars`` where a key of a * b may leave the
    window of ``bounds``: where the factors' least (greatest) exponents,
    their kept ``_extremes`` (0 for a variable a factor lacks), sum to
    below (above) it."""
    lows, highs, _ = bounds
    ext_a = dict(zip(a.vars, a._extremes()))
    ext_b = dict(zip(b.vars, b._extremes()))
    out = []
    for p, v in enumerate(allvars):
        lo_a, hi_a = ext_a.get(v, (0, 0))
        lo_b, hi_b = ext_b.get(v, (0, 0))
        if lo_a + lo_b < lows[p] or hi_a + hi_b > highs[p]:
            out.append(p)
    return tuple(out)


def _pair_products(pairs, bounds, where) -> dict:
    """Sum ca * cb at key ka + kb over ``(ka, ca, [(kb, cb, sums), ...])``
    pairs under the caps (tested first) and ``bounds``, skipping zero sums.
    The window is tested only at the positions ``where``
    (``_overhangs``)."""
    lows, highs, capspec = bounds
    tests = [(p, lows[p], highs[p]) for p in where]
    out: dict[tuple[int, ...], ParamRat] = {}
    for ka, ca, tb in pairs:
        room = _cap_room(ka, capspec) if capspec else ()
        for kb, cb, sums in tb:
            if room and any(map(gt, sums, room)):
                continue
            key = tuple(map(add, ka, kb))
            for p, lo, hi in tests:
                e = key[p]
                if e < lo or e > hi:
                    break
            else:
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


def _grade_solve(s: TruncSeries, gwins, gcaps, seed: dict, tail: dict,
                 weight, what: str) -> TruncSeries:
    """The series b over s's variables with
    b_K = seed_K + sum_t tail_t b_(K-t) w(g, r), g and r the grades of
    K - t and of t, on the window ``gwins`` under the caps ``gcaps``.  The
    weight w is 1 for ``weight`` None, r/(g+r) for "r" (exp) and
    -g/(g+r) for "-g" (log1p).

    The grade of a key is its exponent sum over the soft-truncated
    variables, each oriented toward its truncation.  Every tail term must
    move some soft variable forward and none backward (NonUnit otherwise),
    so it has grade >= 1 and b is solved one grade at a time: once a grade
    of b is complete, each of its terms is pushed forward by each tail
    term under the window and cap test of a truncated product.  A key of
    grade G = g + r takes the weight in three parts: each tail term is
    weighted by r once ("r"), or each pushed term by -g once ("-g"), and
    the sum at G, which starts at G seed_K, is divided by G once it is
    complete.  The soft grade bounds the recursion, so exactly
    tracked variables (a point window in ``gwins``) move freely; their
    window is the hull of 0 and the stored support.  A cap is kept as it
    is: s must keep the jet rule in every capped group
    (``_check_jet_caps``), and a reciprocal's leading term has degree 0
    there, so no tail term has negative degree in the group and a term of
    b at or under the cap is pushed from known terms only.
    """
    _check_jet_caps(s, gcaps, what)
    dirs = [0 if gwins[v].lo_hard and gwins[v].hi_hard else s._direction(v)
            for v in s.vars]
    lows, highs, capspec = _key_bounds(s.vars, gwins, gcaps)
    lows = tuple(lo if d else NEG_INF for lo, d in zip(lows, dirs))
    highs = tuple(hi if d else POS_INF for hi, d in zip(highs, dirs))
    push = []
    for t, c, sums in _with_cap_sums(tail, capspec):
        o = [d * e for d, e in zip(dirs, t) if d]
        if min(o, default=0) < 0 or not any(o):
            raise NonUnit(f"{what} argument has non-nilpotent term {t}")
        r = sum(o)
        push.append((t, c * r if weight == "r" else c, r, sums))
    # per capped group, the least degree a tail term adds: a key with less
    # room left in some group pushes no term
    least = tuple(map(min, zip(*[sums for *_, sums in push])))
    grades: list[dict] = [{} for _ in range(1 + sum(
        gwins[v].hi if d > 0 else -gwins[v].lo
        for v, d in zip(s.vars, dirs) if d))]
    for key, c in seed.items():
        if all(map(le, lows, key)) and all(map(le, key, highs)) and \
                _under_caps(key, capspec):
            g = sum(map(mul, dirs, key))
            grades[g][key] = c * g if weight and g else c
    terms = {}
    for g, layer in enumerate(grades):
        if weight and g and layer:
            inv = PR.rational(Fraction(1, g))
        for key, c in layer.items():
            if weight and g:
                c = c * inv
            if c.is_zero():
                continue
            terms[key] = c
            if weight == "-g":
                if not g:
                    continue        # weight 0
                c = c * -g
            room = _cap_room(key, capspec) if capspec else ()
            if room and any(map(lt, room, least)):
                continue
            for t, ct, step, sums in push:
                if room and any(map(gt, sums, room)):
                    continue
                nk = tuple(map(add, key, t))
                for e, lo, hi in zip(nk, lows, highs):
                    if e < lo or e > hi:
                        break
                else:
                    nxt = grades[g + step]
                    cur = nxt.get(nk)
                    nxt[nk] = c * ct if cur is None else cur + c * ct
    wins = dict(gwins)
    for v, d, col in zip(s.vars, dirs, zip(*terms) if 0 in dirs else ()):
        if not d:
            wins[v] = exact_win(min(0, *col), max(0, *col))
    return TruncSeries(s.vars, wins, terms, gcaps)


def _check_jet_caps(s: TruncSeries, caps, what: str):
    """WindowUnderflow unless every variable of every group in ``caps`` is
    hard below at >= 0 in s (the jet rule of a group cap; a variable s
    lacks is the point 0), naming the group, a variable, its window and
    the operation."""
    for g in caps:
        bad = [v for v in g
               if not (w := s.wins.get(v, POINT)).lo_hard or w.lo < 0]
        if bad:
            v = min(bad)
            raise WindowUnderflow(
                f"group {sorted(g)}: cap in {what} on variable {v} with window "
                f"{s._win(v)}, not hard below at >= 0")


def _cap_merge(a: dict, b: dict) -> dict:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for g, c in b.items():
        out[g] = min(out.get(g, c), c)
    return out


def _leading_var(s: TruncSeries) -> str | None:
    """The variable of s's leading monomial when that monomial is a single
    variable to the first power and s truncates it, else None."""
    try:
        lead = s._leading_key()
    except NonUnit:
        return None
    cands = [(v, e) for v, e in zip(s.vars, lead) if e != 0]
    if len(cands) == 1:
        v, e = cands[0]
        w = s.wins[v]
        if e == 1 and not (w.lo_hard and w.hi_hard):
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
    i = f.vars.index(v)
    lin = {key: c for key, c in f.terms.items() if key[i] == 1}
    unit_key = tuple(1 if j == i else 0 for j in range(len(f.vars)))
    if lin.get(unit_key) != PR.one() or len(lin) != 1:
        raise NotInvertible("reversion requires unit linear coefficient")
    out_var = out_var or v
    g = TruncSeries.var(out_var, w)
    fprime = f.derivative(v)
    for _ in range(4 * (w.hi - w.lo + 2)):
        err = f.subst(v, g) - TruncSeries.var(out_var, g.wins[out_var])
        if err.is_zero():
            return g
        g = g - err * fprime.subst(v, g).recip()
    raise NotInvertible("reversion did not converge inside the window")


def _leaves(w: VarWindow, j: int, drift, within: VarWindow) -> bool:
    """Whether j moves, each by one of ``drift``, take every exponent of
    the hard window ``w`` outside the known region of ``within``, and
    further moves keep it there."""
    down, up = min(drift), max(drift)
    if w.lo_hard and down >= 0 and w.lo + j * down > within.known_hi():
        return True
    return w.hi_hard and up <= 0 and w.hi + j * up < within.known_lo()


def power_sum(power, step, coeff=None, total=None, limit=100000,
              what="power sum"):
    """total + sum_{j>=1} coeff(j) p_j with p_0 = ``power`` and
    p_j = step(p_{j-1}), stopping at the first zero p_j.

    ``total`` defaults to p_0 and ``coeff`` to 1; the terms need only
    ``is_zero``, ``scale`` and ``+``, and series are summed by ``_fold``.
    NonConvergent once ``limit`` powers have been added and the next one is
    still nonzero.
    """
    def terms(power):
        for j in count(1):
            power = step(power)
            if power.is_zero():
                return
            if j > limit:
                raise NonConvergent(f"{what} did not terminate")
            yield power if coeff is None else power.scale(coeff(j))

    total = power if total is None else total
    if isinstance(total, TruncSeries):
        return _fold(total, terms(power), "addition")
    return reduce(add, terms(power), total)
