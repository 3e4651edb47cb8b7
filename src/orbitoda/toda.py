"""Shift-operator algebra and the bi-graded equivariant reduction.

Operators are finite bands sum_i c_i(x; eps, times) Lambda^i with jet
coefficients, plus an optional scalar multiple of eps d_x and a formal
multiple of log Q.  The commutation rule Lambda^i u(x) = u(x + i eps)
Lambda^i is the Taylor shift exp(i eps d_x) u, applied by
``TruncSeries.exp_derivation`` (``x_shift``) on the windows of the band
it shifts: the shift takes no truncation order.

The band window is a series window in Lambda (``ShiftOp.win``): its floor
``lo`` is soft unless ``lo_hard``, and its top is soft at ``top`` if given
(a raising Q's), else exact (the highest band).  The kernel's window rules
give the band window of every sum (``merge_win``) and product
(``product_win``); each band keeps its own coefficient windows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, factorial

from .algebra import bernoulli_number
from .errors import DivisionByZeroTau, NonUnit, WindowUnderflow
from .rationals import ParamRat, PR
from .reports import CheckReport
from .series import (TruncSeries, VarWindow, discrepancy, down_win,
                     exact_win, merge_win, power_sum, product_win, sum_series,
                     support_in, up_win)

RECOVERY_DEPTH = 3      # the dressing depth of ``solve_recovery_ops``


def yname(n: int) -> str:
    return f"y{n}"


def ybname(n: int) -> str:
    return f"yb{n}"


class ShiftOp:
    """sum_i bands[i] Lambda^i + deriv * eps d_x + logq * log Q.

    ``bands`` holds only bands in the band window; a zero-valued band is
    kept, since it carries the window on which the zero is known.

    ``shifted`` keeps each band that ``mul`` has Taylor-shifted, by the
    (i, j) of its shift by i of band j; a new operator starts it afresh
    and ``==`` ignores it.  An operator is not changed after
    construction, so a kept band stays valid."""
    __slots__ = ("bands", "lo", "lo_hard", "deriv", "logq", "top", "shifted")

    def __init__(self, bands: dict, lo: int, lo_hard: bool = False,
                 deriv: ParamRat | None = None, logq: ParamRat | None = None,
                 top: int | None = None):
        self.bands = bands
        self.lo = lo              # band window floor (soft unless lo_hard)
        self.lo_hard = lo_hard
        self.top = top            # soft band window top; None: exact
        self.deriv = PR.zero() if deriv is None else deriv
        self.logq = PR.zero() if logq is None else logq
        self.shifted = {}

    def __eq__(self, other):
        if other.__class__ is not ShiftOp:
            return NotImplemented
        return ((self.bands, self.lo, self.lo_hard, self.top, self.deriv,
                 self.logq) == (other.bands, other.lo, other.lo_hard,
                                other.top, other.deriv, other.logq))

    @property
    def win(self) -> VarWindow:
        """The Lambda-window: floor ``lo``; top soft at ``top``, else exact."""
        top = max([self.lo, *self.bands]) if self.top is None else self.top
        return VarWindow(self.lo, top, self.lo_hard, self.top is None)

    def support(self) -> tuple:
        """(lo, hi) bounds of the nonzero bands (``support_in``)."""
        return support_in(self.win, [i for i, c in self.bands.items()
                                     if not c.is_zero()])

    def is_zero(self) -> bool:
        return (all(c.is_zero() for c in self.bands.values())
                and self.deriv.is_zero() and self.logq.is_zero())

    def scale(self, c) -> "ShiftOp":
        if isinstance(c, (int, Fraction)):
            c = PR.rational(c)
        return ShiftOp({i: s.scale(c) for i, s in self.bands.items()},
                       self.lo, self.lo_hard, self.deriv * c, self.logq * c,
                       self.top)

    def __add__(self, other: "ShiftOp") -> "ShiftOp":
        if not isinstance(other, ShiftOp):
            return NotImplemented
        return sum_ops((self, other))

    def __sub__(self, other: "ShiftOp") -> "ShiftOp":
        return self + other.scale(-1)

    def mul(self, other: "ShiftOp") -> "ShiftOp":
        """Banded product; requires both derivation/log parts to vanish on
        at least one side unless handled through ``commutator``.

        The band window is the kernel's product window: soft at
        max(a.lo + b.top, b.lo + a.top) when a floor is soft, and at
        min(a.top + b.lo, b.top + a.lo) when a top is."""
        if (not self.deriv.is_zero() or not other.deriv.is_zero()
                or not self.logq.is_zero() or not other.logq.is_zero()):
            raise NonUnit("use commutator/add for derivation-carrying operators")
        sa, sb = self.support(), other.support()
        if sa[0] > sa[1] or sb[0] > sb[1]:
            return ShiftOp({}, 0, True)
        win = product_win(self.win, other.win, sa, sb, "Lambda")
        top = None if win.hi_hard else win.hi
        terms: dict = {}
        memo = other.shifted
        for i, a in self.bands.items():
            for j, b in other.bands.items():
                if i + j < win.lo or top is not None and i + j > top:
                    continue
                if i:           # a shift by 0 is the band itself
                    shifted = memo.get((i, j))
                    if shifted is None:
                        shifted = memo[i, j] = b.exp_derivation(x_shift(i), {})
                    b = shifted
                terms.setdefault(i + j, []).append(a * b)
        return ShiftOp({n: sum_series(t) for n, t in terms.items()},
                       win.lo, win.lo_hard, top=top)

    def commutator(self, other: "ShiftOp") -> "ShiftOp":
        """[self, other] with scalar eps d_x parts handled by the rule
        [c eps d_x, B] = c * eps d_x(B-coefficients); log Q is central."""
        a_band, b_band = self.band_part(), other.band_part()
        out = a_band.mul(b_band) - b_band.mul(a_band)
        if not self.deriv.is_zero():
            out = out + b_band.eps_dx().scale(self.deriv)
        if not other.deriv.is_zero():
            out = out - a_band.eps_dx().scale(other.deriv)
        return out

    def band_part(self) -> "ShiftOp":
        """The bands alone: the operator itself, with its kept shifts, when
        it has no eps d_x and no log Q part."""
        if self.deriv.is_zero() and self.logq.is_zero():
            return self
        return ShiftOp(self.bands, self.lo, self.lo_hard, top=self.top)

    def eps_dx(self) -> "ShiftOp":
        return ShiftOp({i: c.derivative("x").shift_exponent("eps", 1)
                        for i, c in self.bands.items()},
                       self.lo, self.lo_hard, top=self.top)

    def split_plus(self) -> "ShiftOp":
        if (not self.lo_hard and self.lo > 0
                or self.top is not None and self.top < 0):
            raise WindowUnderflow("plus-part needs the window to reach 0")
        return ShiftOp({i: c for i, c in self.bands.items() if i >= 0},
                       0, True, top=self.top)

    def split_minus(self) -> "ShiftOp":
        if self.top is not None and self.top < -1:
            raise WindowUnderflow("minus-part needs the window to reach -1")
        return ShiftOp({i: c for i, c in self.bands.items() if i < 0},
                       self.lo, self.lo_hard)

    def pow(self, n: int) -> "ShiftOp":
        out = identity_op()
        for _ in range(n):
            out = out.mul(self)
        return out

    def inverse(self) -> "ShiftOp":
        """Inverse of an operator with invertible extreme coefficient, in
        the direction of its band window: lowering (lead at the top band t,
        the geometric series floored, known from lo - 2t) for a soft floor
        lo or a lone band under an exact top; raising (lead at the bottom
        band t, trimmed at the top, known through top - 2t) for a soft top
        over a hard floor.  Any other window raises NonUnit."""
        if not self.deriv.is_zero() or not self.logq.is_zero():
            raise NonUnit("cannot invert derivation-carrying operators")
        if self.is_zero():
            raise NonUnit("cannot invert the zero operator")
        nz = sorted(i for i, c in self.bands.items() if not c.is_zero())
        if self.top is None and (not self.lo_hard or len(nz) == 1):
            t = nz[-1]
            trim = ShiftOp({}, self.lo - t, self.lo_hard)
        elif self.top is not None and self.lo_hard:
            t = nz[0]
            trim = ShiftOp({}, self.top - t, True, top=self.top - t)
        else:
            raise NonUnit("an inverse needs one soft end of the band "
                          "window, or a lone band under an exact top")
        # (c Lambda^t)^{-1} = c(x - t eps)^{-1} Lambda^{-t}
        c = self.bands[t]
        shifted = c.exp_derivation(x_shift(-t), {})
        lead_inv = ShiftOp({-t: shifted.recip()}, -t, True)
        rest = ShiftOp({i: b for i, b in self.bands.items() if i != t},
                       self.lo, self.lo_hard, top=self.top)
        h = lead_inv.mul(rest)  # strictly lowering or raising
        out = power_sum(identity_op() + trim,
                        lambda p: p.mul(h) + trim,
                        lambda j: (-1) ** j, limit=1000,
                        what="operator inverse")
        return out.mul(lead_inv)

    def eq_report(self, other: "ShiftOp"):
        """None if equal, else (where, lhs, rhs) at the lowest differing
        band: ``where`` names the band and, as a series does
        (``discrepancy``), its least differing key; lhs and rhs are the two
        sides' coefficients there."""
        d = self - other
        for i in sorted(d.bands):
            found = discrepancy(self.bands.get(i, TruncSeries.zero()),
                                d.bands[i])
            if found:
                where, lhs, rhs = found
                return {"band": i, **where}, lhs, rhs
        for name, a, b in (("eps d_x", self.deriv, other.deriv),
                           ("log Q", self.logq, other.logq)):
            if a != b:
                return {"band": name}, a, b
        return None


def sum_ops(ops) -> ShiftOp:
    """The sum of the operators ``ops``: band i is one ``sum_series`` of
    their bands i, on the merge of their band windows (``merge_win``)."""
    first, *rest = ops
    win, deriv, logq = first.win, first.deriv, first.logq
    for op in rest:
        win = merge_win(win, op.win, "Lambda", "addition")
        deriv, logq = deriv + op.deriv, logq + op.logq
    top = None if win.hi_hard else win.hi
    bands: dict = {}
    for op in (first, *rest):
        for i, c in op.bands.items():
            if i >= win.lo and (top is None or i <= top):
                bands.setdefault(i, []).append(c)
    return ShiftOp({i: sum_series(cs) for i, cs in bands.items()},
                   win.lo, win.lo_hard, deriv, logq, top)


def identity_op() -> ShiftOp:
    return ShiftOp({0: TruncSeries.scalar(1)}, 0, True)


def lambda_op(n: int = 1) -> ShiftOp:
    return ShiftOp({n: TruncSeries.scalar(1)}, n, True)


def vacuum_lbar() -> ShiftOp:
    return ShiftOp({-1: TruncSeries.from_poly("Q", {1: 1})}, -1, True)


# ---------------------------------------------------------------------------
# tau functions and wave operators
# ---------------------------------------------------------------------------


class TauJet:
    """Jet of a tau function: polynomial flow dependence, declared times."""
    __slots__ = ("series", "ytimes", "ybtimes")

    def __init__(self, series: TruncSeries, ytimes: int, ybtimes: int):
        if not series.coeff_at({}).is_monomial():
            raise DivisionByZeroTau("tau needs an invertible constant term")
        self.series, self.ytimes, self.ybtimes = series, ytimes, ybtimes

    def shifted(self, r: int) -> TruncSeries:
        return self.series.exp_derivation(x_shift(r), {})


def x_shift(r) -> list:
    """The part of r eps d_x, for ``TruncSeries.exp_derivation``: the
    Taylor shift x -> x + r eps (none at r = 0)."""
    return [("x", TruncSeries.from_poly("eps", {1: r}))]


def miwa_shift(names, sign: int) -> list:
    """The parts of -sign * sum_n (lam^-n / n) eps d/d names[n-1], for
    ``TruncSeries.exp_derivation``: the Miwa shift of the times."""
    return [(name, TruncSeries.from_poly("eps", {1: Fraction(-sign, n)})
             * TruncSeries.from_poly("lam", {-n: 1}))
            for n, name in enumerate(names, 1)]


def tau_to_wave(tau: TauJet, depth: int) -> tuple[ShiftOp, ShiftOp]:
    """The wave pair from the shifted-ratio expansions.

    P = 1 + sum w_i Lambda^{-i} from [exp(-sum (lam^-n/n) eps d_{y_n}) tau]/tau,
    Q = sum wbar_i (Lambda/Q)^i from [exp(+...ybar...) tau(x+eps)]/tau(x).
    P is known down to a soft floor at -depth, Q up to a soft top at depth.
    """
    tau_inv = tau.series.recip()

    def ratio(ser, names, sign, i):
        # the lam^-i coefficient takes the Miwa shift in names[:i] alone,
        # truncated at lam^-i: it keeps the flow degrees that its own i
        # powers know, not those of the deeper coefficients
        shifted = ser.exp_derivation(miwa_shift(names[:i], sign),
                                     {"lam": down_win(-i, hi=0)})
        return shifted.coeff_of("lam", -i) * tau_inv

    times = range(1, depth + 1)
    ys, ybs = [yname(n) for n in times], [ybname(n) for n in times]
    p_bands = {0: TruncSeries.scalar(1)}
    for i in times:
        p_bands[-i] = ratio(tau.series, ys, +1, i)
    p_op = ShiftOp(p_bands, -depth, False)

    tau_x = tau.shifted(1)
    q_op = ShiftOp({i: ratio(tau_x, ybs, -1, i)
                    * TruncSeries.from_poly("Q", {-i: 1})
                    for i in range(depth + 1)}, 0, True, top=depth)
    return p_op, q_op


def dress(p_op: ShiftOp, q_op: ShiftOp) -> tuple[ShiftOp, ShiftOp]:
    """L = P Lambda P^{-1} and Lbar = Q (Q Lambda^{-1}) Q^{-1}; Lbar is
    known one band short of Q's soft top."""
    L = p_op.mul(lambda_op(1)).mul(p_op.inverse())
    return L, q_op.mul(vacuum_lbar()).mul(q_op.inverse())


def log_lax(p_op: ShiftOp) -> ShiftOp:
    """log L = eps d_x - (eps d_x P) P^{-1}."""
    band = p_op.eps_dx().mul(p_op.inverse()).scale(-1)
    return ShiftOp(band.bands, band.lo, band.lo_hard, PR.one(), band.logq)


def log_lax_bar(q_op: ShiftOp) -> ShiftOp:
    """log Lbar = -eps d_x + log Q + (eps d_x Q) Q^{-1}."""
    band = q_op.eps_dx().mul(q_op.inverse())
    return ShiftOp(band.bands, band.lo, band.lo_hard, -PR.one(), PR.one(),
                   band.top)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


def lax_flow_rhs(L: ShiftOp, lbar: ShiftOp, n: int,
                 which: str) -> tuple[ShiftOp, ShiftOp]:
    """eps d_{y_n} (L, Lbar) = [(L^n)_+, .] resp. -[(Lbar^n)_-, .]."""
    if which == "y":
        gen = L.pow(n).split_plus()
        return (gen.commutator(L), gen.commutator(lbar))
    gen = lbar.pow(n).split_minus()
    return gen.commutator(L).scale(-1), gen.commutator(lbar).scale(-1)


def check_wave_equations(tau: TauJet, depth: int,
                         flows: int = 1) -> CheckReport:
    """eps d_{y_n} P = -(L^n)_- P and eps d_{y_n} Q = (L^n)_+ Q (and the
    ybar variants) for the wave pair of a polynomially-declared tau, each on
    the band window both sides know; ``q_band_flow{n}`` is the Q-side top."""
    with CheckReport(name="wave-equations",
                     params={"depth": depth, "flows": flows}) as rep:
        p_op, q_op = tau_to_wave(tau, depth)
        L, lbar = dress(p_op, q_op)
        for n in range(1, flows + 1):
            ln, lbn = L.pow(n), lbar.pow(n)
            checks = [
                ("y", "P", _d_time_op(p_op, yname(n)),
                 ln.split_minus().mul(p_op).scale(-1)),
                ("y", "Q", _d_time_op(q_op, yname(n)),
                 ln.split_plus().mul(q_op)),
                ("yb", "P", _d_time_op(p_op, ybname(n)),
                 lbn.split_minus().mul(p_op).scale(-1)),
                ("yb", "Q", _d_time_op(q_op, ybname(n)),
                 lbn.split_plus().mul(q_op)),
            ]
            rep.max_order_verified[f"q_band_flow{n}"] = min(
                merge_win(lhs.win, rhs.win, "Lambda", "comparison").hi
                for _, opname, lhs, rhs in checks if opname == "Q")
            for time, opname, lhs, rhs in checks:
                if not rep.compare(lhs, rhs, {"flow": f"{time}{n}",
                                              "operator": opname}):
                    return rep
    return rep


def _d_time_op(op: ShiftOp, name: str) -> ShiftOp:
    """eps d/d(name) of the bands of ``op`` that hold ``name``; a band
    it zeroes is kept with the window on which the zero is known."""
    return ShiftOp({i: c.derivative(name).shift_exponent("eps", 1)
                    for i, c in op.bands.items() if name in c.wins},
                   op.lo, op.lo_hard, top=op.top)


def verify_vacuum(eps_ord: int) -> CheckReport:
    """tau = 1: P = Q = 1, L = Lambda, Lbar = Q Lambda^{-1}, zero flows."""
    depth = 4
    with CheckReport(name="toda-vacuum", params={"depth": depth}) as rep:
        tau = TauJet(TruncSeries.scalar(1, {"eps": up_win(eps_ord)}), 0, 0)
        p_op, q_op = tau_to_wave(tau, depth)
        rep.compare(p_op, identity_op(), {"op": "P"})
        rep.compare(q_op, identity_op(), {"op": "Q"})
        L, lbar = dress(p_op, q_op)
        rep.compare(L, lambda_op(1), {"op": "L"})
        rep.compare(lbar, vacuum_lbar(), {"op": "Lbar"})
        for n in (1, 2, 3):
            for which in ("y", "yb"):
                for op in lax_flow_rhs(L, lbar, n, which):
                    rep.compare(op, ShiftOp({}, 0, True),
                                {"flow": f"{which}{n}"})
        # log L = eps d_x and log Lbar = -eps d_x + log Q
        rep.compare(log_lax(p_op), ShiftOp({}, 0, True, PR.one()),
                    {"op": "log L"})
        rep.compare(log_lax_bar(q_op),
                    ShiftOp({}, 0, True, -PR.one(), PR.one()),
                    {"op": "log Lbar"})
    return rep


def verify_zakharov_shabat(k_flows: int, eps_ord: int) -> CheckReport:
    """eps d_{y_l}(L^n)_+ - eps d_{y_n}(L^l)_+ + [(L^n)_+, (L^l)_+] = 0 when
    the time derivatives are substituted via the Lax equations, on a generic
    banded L; plus commutation of the first mixed flows on L."""
    with CheckReport(name="zakharov-shabat",
                     params={"flows": k_flows, "eps_ord": eps_ord}) as rep:
        eps_win = up_win(eps_ord)
        L = _generic_l(eps_win)
        lbar = _generic_lbar(eps_win)
        powers = [identity_op()]
        for _ in range(k_flows):
            powers.append(powers[-1].mul(L))
        delta = {n: powers[n].split_plus().commutator(L)
                 for n in range(1, k_flows + 1)}
        # the residual is antisymmetric in (n, l) and zero at n = l
        for n, l in combinations(range(1, k_flows + 1), 2):
            lhs = _dpow_plus(powers, delta[l], n) \
                - _dpow_plus(powers, delta[n], l) \
                + powers[n].split_plus().commutator(
                    powers[l].split_plus())
            if not rep.compare(lhs, ShiftOp({}, 0, True), {"n": n, "l": l}):
                return rep
        # mixed flows commute on L: d_{y1} d_{yb1} L = d_{yb1} d_{y1} L
        dy_l = powers[1].split_plus().commutator(L)
        dy_lbar = powers[1].split_plus().commutator(lbar)
        dyb_l = lbar.split_minus().commutator(L).scale(-1)
        # eps^2 d_y d_yb L = [ (eps d_y Lbar)_-, L ]*(-1) + [Lbar_-, eps d_y L]*(-1)
        lhs = dy_lbar.split_minus().commutator(L).scale(-1) + \
            lbar.split_minus().commutator(dy_l).scale(-1)
        rhs = dyb_l.split_plus().commutator(L) + \
            powers[1].split_plus().commutator(dyb_l)
        rep.compare(lhs, rhs, {"check": "mixed-flow commutation"})
    return rep


def _dpow_plus(powers: list, dL: ShiftOp, n: int) -> ShiftOp:
    """(d (L^n))_+ with dL substituted for the derivative of L, from
    ``powers[r] = L^r`` (r from 0)."""
    return sum_ops(powers[r].mul(dL).mul(powers[n - 1 - r])
                   for r in range(n)).split_plus()


def _generic_l(eps_win: VarWindow) -> ShiftOp:
    # finite band with a hard floor: the flow identities are algebraic in
    # the coefficients, so a terminating tail gives an unconditional check
    coeffs = {
        0: TruncSeries.from_poly("x", {0: Fraction(1, 2), 1: 1}),
        -1: TruncSeries.from_poly("x", {0: -1, 2: Fraction(1, 3)}),
        -2: TruncSeries.from_poly("x", {1: Fraction(2, 5)}),
    }
    bands = {1: TruncSeries.scalar(1, {"eps": eps_win})}
    for i, c in coeffs.items():
        bands[i] = c.truncated({"eps": eps_win})
    return ShiftOp(bands, min(bands), True)


def _generic_lbar(eps_win: VarWindow) -> ShiftOp:
    q1 = TruncSeries.from_poly("Q", {1: 1})
    bands = {
        -1: (q1 * (1 + TruncSeries.from_poly("x", {1: Fraction(1, 4)})
                   * TruncSeries.from_poly("eps", {1: 1})))
        .truncated({"eps": eps_win}),
        0: TruncSeries.from_poly("x", {0: Fraction(-1, 3), 1: 1})
        .truncated({"eps": eps_win}),
        1: TruncSeries.from_poly("x", {2: Fraction(1, 7)})
        .truncated({"eps": eps_win}),
    }
    return ShiftOp(bands, -1, True)


# ---------------------------------------------------------------------------
# the bi-graded reduction
# ---------------------------------------------------------------------------


def reduced_operator(p_op: ShiftOp, q_op: ShiftOp, k: int, m: int) -> ShiftOp:
    """curly-L = (P Lambda^k P^{-1})_+ + (Q (Q Lambda^-1)^m Q^{-1})_- +
    (nu1 - nu0) eps d_x."""
    plus = p_op.mul(lambda_op(k)).mul(p_op.inverse()).split_plus()
    minus = q_op.mul(vacuum_lbar().pow(m)).mul(q_op.inverse()).split_minus()
    op = plus + minus
    return ShiftOp(op.bands, op.lo, op.lo_hard, -PR.diff(), op.logq)


def solve_reduced(curly: ShiftOp, k: int,
                  w_depth: int) -> tuple[ShiftOp, ShiftOp]:
    """Solve L^k + (nu1-nu0) log L = curly-L for L = Lambda + a_0 + ...

    Uses the linear form curly-L o P = P o (Lambda^k + (nu1-nu0) eps d_x):
    each band of P satisfies a first-order difference equation, solved in
    closed form with its x-constants set to zero (``_solve_difference``;
    the recovered L is gauge-independent).  Returns (L, P).
    """
    w = _dressing_bands(curly, k, 1, None, w_depth)
    p_op = ShiftOp({-i: c for i, c in w.items()}, -w_depth, False)
    return p_op.mul(lambda_op(1)).mul(p_op.inverse()), p_op


def solve_reduced_bar(curly: ShiftOp, m: int,
                      w_depth: int) -> tuple[ShiftOp, ShiftOp]:
    """Solve Lbar^m + (nu0-nu1) log(Q^-1 Lbar) = curly-L for the raising
    solution Lbar = Q e^v Lambda^{-1} + ..., via
    curly-L o Q = Q o (Q^m Lambda^{-m} - (nu0-nu1) eps d_x).  Returns
    (Lbar, Q-op); Q's soft top is ``w_depth``, and Lbar's one band lower."""
    wb = _dressing_bands(curly, -m, -1,
                         TruncSeries.from_poly("Q", {m: 1}).recip(), w_depth)
    q_op = ShiftOp(wb, 0, True, top=w_depth)
    return q_op.mul(vacuum_lbar()).mul(q_op.inverse()), q_op


def _dressing_bands(curly: ShiftOp, t: int, sign: int, factor,
                    w_depth: int) -> dict:
    """Bands w_0 = 1, w_1, ..., w_{w_depth} of the dressing whose leading
    band of ``curly`` is Lambda^t; w_j sits at Lambda^{-sign j}.

    Band j solves w_j(x + t eps) - w_j(x) = -R_j (times ``factor``, the
    Q^-m of the raising side, when given) with
    R_j = sum_{b != t} curly_b w_{j + sign(b - t)}(x + b eps)
          - (nu1-nu0) eps d_x w_{j - sign t}
    by ``_solve_difference``, so w_j is known one eps-order short of R_j.
    """
    diffc = PR.diff()
    w: dict[int, TruncSeries] = {0: TruncSeries.scalar(1)}
    for j in range(1, w_depth + 1):
        r = sum_series(c * w[j + sign * (b - t)].exp_derivation(x_shift(b), {})
                       for b, c in curly.bands.items()
                       if b != t and j + sign * (b - t) in w)
        if j - sign * t in w:
            r = r - w[j - sign * t].derivative("x") \
                .shift_exponent("eps", 1).scale(diffc)
        rhs = r.scale(-1) if factor is None else r.scale(-1) * factor
        w[j] = _solve_difference(rhs, t)
    return w


def _solve_difference(rhs: TruncSeries, k: int) -> TruncSeries:
    """w with w(x + k eps) - w(x) = rhs and no x^0 term, for rhs a
    polynomial in x.

    The inverse of the shift difference is the Bernoulli sum
    (e^t - 1)^-1 = sum_n B_n t^(n-1)/n! (B_1 = -1/2; Graham-Knuth-Patashnik,
    Concrete Mathematics, 6.5) at t = k eps d_x, which ends on a
    polynomial: d_x w = sum_n B_n/n! (k eps)^(n-1) d_x^n rhs, and w is its
    x-antiderivative.  The x-constants, the kernel of the
    shift difference, are set to zero.  The kernel's window rules give w
    its windows: its eps^r slot takes rhs's eps^(r+1), so w is known one
    eps-order short of rhs.
    """
    degree = rhs.wins["x"].hi if "x" in rhs.wins else 0
    derivs = accumulate(range(degree), lambda d, _: d.derivative("x"),
                        initial=rhs)
    return _x_antiderivative(sum_series(
        d.shift_exponent("eps", n - 1).scale(
            bernoulli_number(n) / factorial(n) * Fraction(k) ** (n - 1))
        for n, d in enumerate(derivs)))


def _x_antiderivative(ser: TruncSeries) -> TruncSeries:
    if "x" not in ser.wins:
        return ser.shift_exponent("x", 1)
    i = ser.vars.index("x")
    w = ser.wins["x"]
    terms = {}
    for key, c in ser.terms.items():
        e = key[i]
        terms[key[:i] + (e + 1,) + key[i + 1:]] = c / Fraction(e + 1)
    wins = dict(ser.wins)
    wins["x"] = VarWindow(w.lo + 1, w.hi + 1, w.lo_hard, w.hi_hard)
    return TruncSeries(ser.vars, wins, terms, ser.caps)


# ---------------------------------------------------------------------------
# the Q-power gauge bookkeeping
# ---------------------------------------------------------------------------


def gauge_qpower_check() -> CheckReport:
    """tau' = Q^{((x/eps)^2 - (x/eps))/2} tau multiplies each wbar_i by
    Q^{x/eps}: pure bookkeeping on the quadratic Q-exponents."""
    with CheckReport(name="gauge-qpower", params={}) as rep:
        # P(X) = (X^2 - X)/2; the (def_tau_q)-ratio produces P(X+1) - P(X)
        p = {2: Fraction(1, 2), 1: Fraction(-1, 2)}
        shifted = {}
        for e, c in p.items():
            # (X+1)^e expansion
            for j in range(e + 1):
                shifted[j] = shifted.get(j, Fraction(0)) + c * comb(e, j)
        diff = {e: shifted.get(e, Fraction(0)) - p.get(e, Fraction(0))
                for e in set(shifted) | set(p)}
        diff = {e: c for e, c in diff.items() if c}
        rep.compare(diff, {1: Fraction(1)}, {"exponent": "P(X+1) - P(X)"})
    return rep


def vacuum_curly(k: int, m: int, eps_win: VarWindow,
                 perturb: TruncSeries | None = None) -> ShiftOp:
    """Lambda^k + Q^m Lambda^{-m} + (nu1-nu0) eps d_x, optionally with
    ``perturb`` added to the interior band 0."""
    bands = {k: TruncSeries.scalar(1, {"eps": eps_win}),
             -m: TruncSeries.from_poly("Q", {m: 1}).truncated({"eps": eps_win})}
    if perturb is not None:
        bands[0] = TruncSeries.scalar(0, {"eps": eps_win}) + perturb
    return ShiftOp(bands, -m, True, -PR.diff())


def verify_reduced_vacuum(k: int, m: int,
                          eps_ord: int = 3) -> list[CheckReport]:
    """Acceptance-facing vacuum facts for the reduction: the split formula
    at the trivial wave pair, zero flows there, and the defining equations
    verified on the operators solved from the vacuum curly-L."""
    w_depth = 4
    eps_win = up_win(eps_ord)
    reports = []
    with CheckReport(name="reduced-vacuum-split",
                     params={"k": k, "m": m}) as rep:
        p_id, q_id = identity_op(), identity_op()
        curly_split = reduced_operator(p_id, q_id, k, m)
        want = vacuum_curly(k, m, eps_win)
        rep.compare(curly_split, want, {})
        # flows of the trivial vacuum vanish: [(Lambda^n)_+, curly] = 0
        for n in (1, 2):
            rep.compare(lambda_op(n).commutator(want),
                        ShiftOp({}, 0, True), {"flow": f"y{n}"})
    reports.append(rep)

    curly = vacuum_curly(k, m, eps_win)
    with CheckReport(name="reduced-vacuum-solve",
                     params={"k": k, "m": m, "w_depth": w_depth}) as rep:
        L, p_op = solve_reduced(curly, k, w_depth)
        # L = Lambda at Q^0
        q0 = {i: c.coeff_of("Q", 0) for i, c in L.bands.items()}
        for i, c in q0.items():
            want_c = TruncSeries.scalar(1 if i == 1 else 0, c.wins)
            if not rep.compare(c, want_c, {"band": i, "order": "Q^0"}):
                break
        lhs = L.pow(k) + log_lax(p_op).scale(-PR.diff())
        rep.compare(lhs, curly, {"identity": "L^k + (nu1-nu0) log L"})
        lbar, q_op = solve_reduced_bar(curly, m, w_depth)
        bar = log_lax_bar(q_op)
        logq_less = ShiftOp(bar.bands, bar.lo, bar.lo_hard, bar.deriv,
                            bar.logq - PR.one(), bar.top)
        lhs_bar = lbar.pow(m) + logq_less.scale(PR.diff())
        rep.compare(lhs_bar, curly,
                    {"identity": "Lbar^m + (nu0-nu1) log(Q^-1 Lbar)"})
    reports.append(rep)
    return reports


def solve_recovery_ops(k: int, eps_ord: int) -> dict:
    """A dressing P0 known through eps^eps_ord, L0 = P0 Lambda P0^{-1},
    curly-L = L0^k + (nu1-nu0) log L0, and the L, P solved from it, by name."""
    eps_win = up_win(eps_ord)
    w1 = TruncSeries.from_poly("x", {1: Fraction(1, 2)}) * \
        TruncSeries.from_poly("eps", {1: 1})
    w2 = TruncSeries.from_poly("x", {0: Fraction(-1, 3)}) * \
        TruncSeries.from_poly("eps", {2: 1})
    p0 = ShiftOp({0: TruncSeries.scalar(1, {"eps": eps_win}),
                  -1: w1.truncated({"eps": eps_win}),
                  -2: w2.truncated({"eps": eps_win})}, -RECOVERY_DEPTH, False)
    p_inv, log_l = p0.inverse(), log_lax(p0)
    L0 = p0.mul(lambda_op(1)).mul(p_inv)
    l0k = L0.pow(k)
    curly = l0k + log_l.scale(-PR.diff())
    L, p_op = solve_reduced(curly, k, RECOVERY_DEPTH)
    return {"L0^k": l0k, "curly-L": curly, "log L": log_l, "P0^-1": p_inv,
            "L0": L0, "L": L, "P": p_op}


def verify_solve_recovery(k: int, eps_ord: int = 3) -> CheckReport:
    """Build curly-L = L^k + (nu1-nu0) log L from a nontrivial dressing and
    check that the solve reproduces L (``solve_recovery_ops``)."""
    with CheckReport(name="reduced-solve-recovery",
                     params={"k": k, "w_depth": RECOVERY_DEPTH}) as rep:
        ops = solve_recovery_ops(k, eps_ord)
        rep.compare(ops["L"], ops["L0"], {})
    return rep


def verify_flow_band_shape(k: int, m: int) -> CheckReport:
    """The flow right-hand sides [(L^n)_+, curly-L] stay inside the band
    [-m, k-1] for operators solved from a perturbed banded curly-L."""
    w_depth = 3
    eps_win = up_win(2)
    with CheckReport(name="reduced-flow-band", params={"k": k, "m": m}) as rep:
        bump = (TruncSeries.from_poly("x", {1: Fraction(1, 2)}) *
                TruncSeries.from_poly("eps", {1: 1}) *
                TruncSeries.from_poly("Q", {1: 1})).truncated({"eps": eps_win})
        curly = vacuum_curly(k, m, eps_win, perturb=bump)
        L, _ = solve_reduced(curly, k, w_depth)
        for n in (1, 2):
            gen = L.pow(n).split_plus()
            rhs = gen.commutator(curly)
            outside = ShiftOp({i: c for i, c in rhs.bands.items()
                               if i >= k or i < -m}, rhs.lo, rhs.lo_hard)
            if not rep.compare(outside, ShiftOp({}, rhs.lo, rhs.lo_hard),
                               {"flow": f"y{n}"}):
                break
    return rep


def two_toda_vacuum_tau(depth: int, ycap: int,
                        exact_jet: bool = False) -> TauJet:
    """The vacuum tau of the hierarchy in this Q-gauge:
    exp(eps^-2 sum_n n y_n yb_n Q^n), truncated by the flow-degree cap
    ``ycap`` on the y's and on the yb's, with Q and eps exact on [-24, 24].

    The constant function is *not* a tau function here (its wave pair fails
    eps d_{y_n} Q-op = (L^n)_+ Q-op); this exponential is, and collapses to
    1 at Q = 0.  With ``exact_jet`` the truncated polynomial itself is the
    object (both-hard windows, no caps): residue checks on it are exact,
    with jet errors confined to flow-degrees above the caps.
    """
    yw = up_win(2 * ycap)
    wins = {"Q": exact_win(-24, 24), "eps": exact_win(-24, 24)}
    arg = sum_series(TruncSeries.monomial(
        {yname(n): 1, ybname(n): 1, "Q": n, "eps": -2},
        {**wins, yname(n): yw, ybname(n): yw}, coeff=n)
        for n in range(1, depth + 1))
    arg = arg.with_cap([yname(n) for n in range(1, depth + 1)], ycap)
    arg = arg.with_cap([ybname(n) for n in range(1, depth + 1)], ycap)
    ser = arg.exp()
    if exact_jet:
        ser = ser.as_exact()
    return TauJet(ser, depth, depth)
