"""Period-mode calculus: the first-order operator D, its inverse, bi-infinite
sums, the coordinate-change transformation law, and the phase-form primitive
identities.

Everything lives in the lam-chart: the operator

    D = -(z/k) lam^{1-k} d_lam + nu lam^{-k} + sum_i tail_i lam^{-k-i}

is the xi-chart normal form of Eq.-type first-order operators transported
through xi = lam^k; the chart with tail_m = (m/k) q^m is the x-side operator
of the mirror family, tail = 0 is its classical limit, and the y-side
operator is the footwise mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cohomology import Cohomology, SectorIndex
from .errors import NonConvergent, SingularFiber
from .mirror import superpotential, solve_chart_change
from .rationals import ParamRat, PR
from .reports import CheckReport, Stopwatch
from .series import (TruncSeries, VarWindow, down_win,
                     series_reversion, up_win)


@dataclass
class DOp:
    """D = -(z/k) lam^{1-k} d_lam + nu lam^{-k} + sum tail_i lam^{-k-i}.

    Both the residue coefficient nu and the polynomial part (degree k-1,
    encoded by k itself) must be nonzero.
    """
    k: int
    nu: ParamRat
    tail: dict = field(default_factory=dict)   # i >= 1 -> coefficient series

    def __post_init__(self):
        if self.nu.is_zero():
            raise SingularFiber("the operator needs a nonzero residue")
        if self.k < 1:
            raise SingularFiber("the polynomial part must be nonzero")


def d_x_operator(k: int, m: int) -> DOp:
    """The x-side operator of the mirror family at the small slice."""
    qm = TruncSeries.from_poly("q", {m: Fraction(m, k)})
    return DOp(k=k, nu=PR.nu(k), tail={m: qm})


def d_classical(k: int) -> DOp:
    """tail-free operator: phi = k lam^{k-1} + (nu1 - nu0)/lam."""
    return DOp(k=k, nu=PR.nu(k))


def d_apply(D: DOp, g: TruncSeries) -> TruncSeries:
    zf = TruncSeries.from_poly("z", {1: Fraction(-1, D.k)})
    out = g.derivative("lam").shift_exponent("lam", 1 - D.k) * zf
    out = out + g.shift_exponent("lam", -D.k).scale(D.nu)
    for i, c in D.tail.items():
        out = out + g.shift_exponent("lam", -D.k - i) * c
    return out


def d_inverse(D: DOp, g: TruncSeries, zwin: VarWindow) -> TruncSeries:
    """The Lemma-D inverse: the unique solution with leading term
    lam^{A+k}/(-z(A+k)/k + nu) per lam-monomial of g, extended linearly."""
    if "lam" not in g.wins:
        g = g + TruncSeries.scalar(0, {"lam": down_win(-1, hi=0)})
    lam_w = g.wins["lam"]
    li = g.vars.index("lam")
    groups: dict[int, TruncSeries] = {}
    for key, c in g.terms.items():
        a = key[li]
        rest = key[:li] + key[li + 1:]
        cur = groups.get(a)
        piece = TruncSeries(g.vars[:li] + g.vars[li + 1:],
                            {v: w for v, w in g.wins.items() if v != "lam"},
                            {rest: c}, g.caps)
        groups[a] = piece if cur is None else cur + piece
    total = None
    # the inverse has an infinite descending tail, and a soft seed window
    # pollutes the image k orders higher
    lam_out = VarWindow(lam_w.lo if lam_w.lo_hard else lam_w.lo + D.k,
                        lam_w.hi + D.k, False, lam_w.hi_hard, lam_w.den)
    for a, coeff in sorted(groups.items()):
        inv = _d_inverse_monomial(D, a, lam_out, zwin)
        piece = inv * coeff
        total = piece if total is None else total + piece
    if total is None:
        total = TruncSeries.scalar(0, {"lam": lam_out, "z": zwin})
    return total


def _d_inverse_monomial(D: DOp, a: int, lam_out: VarWindow,
                        zwin: VarWindow) -> TruncSeries:
    """f with D f = lam^a, as sum_j f_j(z) lam^{a+k-j}."""
    fj: dict[int, TruncSeries] = {}
    out = TruncSeries.scalar(0, {"lam": lam_out, "z": zwin})
    j = 0
    while a + D.k - j >= lam_out.lo:
        rhs = TruncSeries.scalar(1 if j == 0 else 0, {"z": zwin})
        for i, c in D.tail.items():
            prev = fj.get(j - i)
            if prev is not None:
                rhs = rhs - prev * c
        beta = Fraction(a + D.k - j, D.k)
        lead = TruncSeries.from_poly("z", {0: D.nu, 1: PR.rational(-beta)})
        fj[j] = rhs * lead.recip_within({"z": zwin})
        out = out + fj[j] * TruncSeries.from_poly("lam", {a + D.k - j: 1})
        j += 1
    return out


def bi_infinite_sum(D: DOp, g: TruncSeries, lam_win: VarWindow,
                    zwin: VarWindow) -> TruncSeries:
    """sum_{n in Z} D^n g, truncated by the adic decay in both directions."""
    base = g.truncated({"lam": lam_win, "z": zwin})
    total = base
    cur = base
    guard = 0
    while True:
        cur = d_apply(D, cur).truncated({"lam": lam_win, "z": zwin})
        if cur.is_zero():
            break
        total = total + cur
        guard += 1
        if guard > 10 * (lam_win.hi - lam_win.lo + zwin.hi - zwin.lo + 4):
            raise NonConvergent("positive D-chain does not decay")
    cur = base
    guard = 0
    while True:
        cur = d_inverse(D, cur, zwin).truncated({"lam": lam_win, "z": zwin})
        if cur.is_zero():
            break
        total = total + cur
        guard += 1
        if guard > 10 * (lam_win.hi - lam_win.lo + zwin.hi - zwin.lo + 4):
            raise NonConvergent("negative D-chain does not decay")
    return total


def verify_lemma_d_branches(k: int, alpha_bound: int = 3) -> CheckReport:
    """D^{-1} xi^alpha has constant z-term 1/nu iff alpha = -1.

    Checked for all alpha in (1/k)Z with |alpha| <= alpha_bound on both a
    tail-free operator and the mirror x-side operator.
    """
    with Stopwatch() as sw:
        rep = CheckReport(name="lemma-d-branches",
                          params={"k": k, "alpha_bound": alpha_bound})
        zwin = down_win(-6, hi=0)
        for D in (d_classical(k), d_x_operator(k, max(1, k - 1))):
            for a in range(-alpha_bound * k, alpha_bound * k + 1):
                lam_out = down_win(a - 3 * k, hi=a + k)
                inv = _d_inverse_monomial(D, a, lam_out, zwin)
                z0 = inv.coeff_of("z", 0)
                want_const = a == -k  # alpha = a/k = -1
                got = not z0.is_zero()
                if got != want_const:
                    rep.fail({"alpha": f"{a}/{k}", "tail": bool(D.tail)},
                             str(z0), "1/nu iff alpha=-1")
                    break
                if want_const:
                    expect = TruncSeries.scalar(D.nu.inverse(), z0.wins)
                    if not (z0.coeff_of("lam", 0) -
                            TruncSeries.scalar(D.nu.inverse())).is_zero():
                        rep.fail({"alpha": f"{a}/{k}"}, str(z0), "1/nu")
                        break
                # inverse property: D (D^{-1} g) = g within windows
                back = d_apply(D, inv).truncated(
                    {"lam": down_win(a - 2 * k, hi=a), "z": zwin})
                target = TruncSeries.from_poly("lam", {a: 1}).truncated(
                    {"lam": down_win(a - 2 * k, hi=a), "z": zwin})
                if not (back - target).is_zero():
                    rep.fail({"alpha": f"{a}/{k}", "check": "D o D^-1"},
                             str(back), "lam^a")
                    break
            if not rep.ok:
                break
    rep.elapsed_ms = sw.ms
    return rep


def verify_fixed_point(k: int, m: int, alpha: SectorIndex,
                       lam_lo: int = -10, z_lo: int = -5) -> CheckReport:
    """D f = f for the bi-infinite sum, and its z^0 mode is phi_alpha w/df."""
    with Stopwatch() as sw:
        rep = CheckReport(name="bi-infinite-fixed-point",
                          params={"k": k, "m": m,
                                  "alpha": alpha.label(k, m)})
        D = d_x_operator(k, m)
        lam_win = down_win(lam_lo, hi=2 * k)
        zwin = down_win(z_lo, hi=abs(lam_lo) // 1 + 2)
        g = _phi_mode_seed(k, m, alpha)
        f = bi_infinite_sum(D, g, lam_win, zwin)
        shrunk = {"lam": down_win(lam_lo + k + m, hi=k), "z": zwin}
        df = d_apply(D, f).truncated(shrunk)
        d = df.eq_report(f.truncated(shrunk))
        if d is not None:
            rep.fail({"at": str(d[0])}, "D f", "f")
        # z^0 mode: phi_alpha(x) / (x f'(x)) expanded at infinity
        z0 = f.coeff_of("z", 0)
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        fprime = _rename_x_to_lam(sp.df_dx())
        phi = _rename_x_to_lam(_phi_poly(k, m, alpha))
        den = TruncSeries.from_poly("lam", {1: 1}) * fprime
        want = phi * den.recip_within({"lam": down_win(lam_lo, hi=k),
                                       "q": up_win(abs(lam_lo) + 4)})
        d2 = z0.eq_report(want.truncated(z0.wins))
        if d2 is not None:
            rep.fail({"mode": "z^0", "at": str(d2[0])}, "sum", "phi w/df")
    rep.elapsed_ms = sw.ms
    return rep


def _phi_poly(k: int, m: int, alpha: SectorIndex) -> TruncSeries:
    if alpha.side == "k":
        if alpha.i == 0:
            return TruncSeries.from_poly("x", {k: 1}).scale(
                PR.rational(k) * PR.diff().inverse())
        return TruncSeries.from_poly("x", {alpha.i: 1})
    if alpha.i == 0:
        return (TruncSeries.from_poly("q", {m: 1}) *
                TruncSeries.from_poly("x", {-m: 1})).scale(
                    PR.rational(m) * (-PR.diff()).inverse())
    return TruncSeries.from_poly("q", {alpha.i: 1}) * \
        TruncSeries.from_poly("x", {-alpha.i: 1})


def _phi_mode_seed(k: int, m: int, alpha: SectorIndex) -> TruncSeries:
    """k^{-1} phi_alpha(lam) lam^{-k}: the seed of the x-side mode sum."""
    phi = _rename_x_to_lam(_phi_poly(k, m, alpha))
    return phi.shift_exponent("lam", -k).scale(Fraction(1, k))


def _rename_x_to_lam(ser: TruncSeries) -> TruncSeries:
    from .mirror import _rename_vars
    return _rename_vars(ser, {"x": "lam"})


# ---------------------------------------------------------------------------
# transformation law
# ---------------------------------------------------------------------------


def phi_primitive_difference(D: DOp, x_of_lam: TruncSeries) -> TruncSeries:
    """Phi(lam) - Phi(x(lam)) for the termwise primitive Phi of the
    operator's phi = k lam^{k-1} - k nu lam^{-1} - sum_i k tail_i lam^{-i-1}
    (the minus signs come from phi_- = -p * (operator coefficients)).

    The rational parts integrate termwise; the log part contributes
    -k nu log(lam/x(lam)) = +k nu log1p(x/lam - 1), kept structural.
    """
    k = D.k
    x = x_of_lam
    diff = TruncSeries.from_poly("lam", {k: 1}) - _pow_of(x, k)
    for i, c in D.tail.items():
        # primitive of -k tail_i lam^{-i-1} is (k/i) tail_i lam^{-i}
        diff = diff + c.scale(Fraction(k, i)) * \
            (TruncSeries.from_poly("lam", {-i: 1}) - _pow_of(x, -i))
    u = x * TruncSeries.from_poly("lam", {-1: 1}) - 1
    diff = diff + u.log1p().scale(D.nu * k)
    return diff


def _pow_of(x: TruncSeries, e: int) -> TruncSeries:
    return x ** e if e >= 0 else x.recip() ** (-e)


def verify_transformation_law(k: int, m: int, zlo: int = -4,
                              lam_lo: int = -9) -> list[CheckReport]:
    """f(x(lam)) = f(lam) exp(z^{-1} int_x^lam phi) for two nontrivial
    coordinate changes, on a tail-free and on the mirror x-side operator."""
    reports = []
    cases = []
    c = PR.rational(Fraction(3, 2))
    shift = TruncSeries.from_poly("lam", {1: 1, 0: c})
    cases.append(("shift", shift))
    wavy = TruncSeries.from_poly("lam", {1: 1, 0: c, -1: Fraction(-2, 5)})
    cases.append(("shift+tail", wavy))
    ops = [("classical", d_classical(k)), ("mirror-x", d_x_operator(k, m))]
    for cname, change in cases:
        for oname, D in ops:
            with Stopwatch() as sw:
                rep = CheckReport(
                    name=f"transformation-{cname}-{oname}",
                    params={"k": k, "m": m, "zwin": [zlo, 0],
                            "lam": [lam_lo, 0]})
                lam_win = down_win(lam_lo, hi=2 * k + 2)
                zwin = down_win(zlo, hi=0)
                g = TruncSeries.from_poly("lam", {-k: Fraction(1, k)})
                f = bi_infinite_sum(D, g, lam_win, zwin)
                x_l = change.truncated({"lam": down_win(lam_lo, hi=1)})
                lhs = f.subst("lam", x_l)
                expo = phi_primitive_difference(D, x_l)
                zinv = TruncSeries.var("z", zwin, power=-1)
                # the polynomial slice of the primitive difference is exact
                # and exponentiates with growing (exact) lam-support; the
                # truncated tail escapes through its own window
                poly_part = expo.hard_slice("lam", 0)
                tail_part = expo.below_slice("lam", 0)
                factor = (poly_part * zinv).exp() * (tail_part * zinv).exp()
                rhs = f * factor
                window = {"lam": down_win(lam_lo + k + m + 2, hi=k),
                          "z": zwin}
                d = lhs.truncated(window).eq_report(rhs.truncated(window))
            rep.elapsed_ms = sw.ms
            if d is not None:
                rep.fail({"at": str(d[0])}, "f(x(lam))", "f(lam) exp(...)")
            reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# rational period modes
# ---------------------------------------------------------------------------


@dataclass
class PeriodMode:
    """I^{(n)} as num / (f')^{dpow}; num an exact Laurent polynomial."""
    n: int
    num: TruncSeries
    dpow: int


def mode_chain(k: int, m: int, alpha: SectorIndex, n_max: int,
               chart: str = "x") -> list[PeriodMode]:
    """I^{(0)}..I^{(n_max)} on the small slice, with the defining recursion
    d_x I^{(n)} = f' I^{(n+1)} kept exactly."""
    sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
    if chart == "x":
        fprime = sp.df_dx()
        phi = _phi_poly(k, m, alpha)
        var = "x"
    else:
        # y-chart: feet exchanged
        spy = superpotential(m, k, {i: 0 for i in range(1, k + m)})
        fprime = _swap_nu_ts(spy.df_dx())
        phi = _swap_nu_ts(_phi_poly(m, k, _flip(alpha)))
        var = "x"
    if fprime.is_zero():
        raise SingularFiber("df vanishes identically")
    fsecond = fprime.derivative(var)
    modes = [PeriodMode(0, phi * TruncSeries.from_poly(var, {-1: 1}), 1)]
    for n in range(n_max):
        prev = modes[-1]
        num = prev.num.derivative(var) * fprime - \
            prev.num.scale(prev.dpow) * fsecond
        modes.append(PeriodMode(n + 1, num, prev.dpow + 2))
    return modes


def _flip(alpha: SectorIndex) -> SectorIndex:
    return SectorIndex("k" if alpha.side == "m" else "m", alpha.i)


def _swap_nu_ts(ser: TruncSeries) -> TruncSeries:
    from .mirror import _swap_nu_series
    return _swap_nu_series(ser)


def verify_mode_recursion(k: int, m: int) -> CheckReport:
    """d_x I^{(n)} - f' I^{(n+1)} = 0 replayed on cleared denominators,
    plus the closed first-derivative oracle for I^{(1)}."""
    with Stopwatch() as sw:
        rep = CheckReport(name="mode-chain", params={"k": k, "m": m})
        coh = Cohomology(k, m)
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        fprime = sp.df_dx()
        fsecond = fprime.derivative("x")
        for alpha in coh.sectors():
            modes = mode_chain(k, m, alpha, 3)
            for n in range(3):
                lhs = modes[n].num.derivative("x") * fprime - \
                    modes[n].num.scale(modes[n].dpow) * fsecond
                if not (lhs - modes[n + 1].num).is_zero():
                    rep.fail({"alpha": alpha.label(k, m), "n": n},
                             "d_x I^n", "f' I^{n+1}")
                    break
            # denominators divide powers of x d_x f (after clearing x-powers)
            # by construction: num stays an exact Laurent polynomial
            if not rep.ok:
                break
    rep.elapsed_ms = sw.ms
    return rep


# ---------------------------------------------------------------------------
# phase-form primitives (the W and W-bar building blocks)
# ---------------------------------------------------------------------------


def pairing_quadratic_form(k: int, m: int) -> TruncSeries:
    """sum eta^{ab} phi_a phi_b = k nu^{-1} x^{2k} + m nubar^{-1} (q/x)^{2m}
    + k(k-1) x^k + m(m-1)(q/x)^m, assembled from the dual pairing."""
    coh = Cohomology(k, m)
    total = TruncSeries.scalar(0)
    for a in coh.sectors():
        dual = coh.dual(a)
        for b, gb in dual.coords.items():
            total = total + (_phi_poly(k, m, a) * _phi_poly(k, m, b)).scale(gb)
    return total


def phase_primitive_check(k: int, m: int) -> CheckReport:
    """The three exact rational identities behind the W-formulas."""
    with Stopwatch() as sw:
        rep = CheckReport(name="phase-primitives", params={"k": k, "m": m})
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        fprime = sp.df_dx()
        x2f = TruncSeries.from_poly("x", {2: 1}) * fprime
        nu = PR.nu(k)
        nubar = PR.nubar(m)
        qx = TruncSeries.from_poly("q", {1: 1}) * TruncSeries.from_poly("x", {-1: 1})
        target_num = TruncSeries.from_poly("x", {2 * k: 1}).scale(
            PR.rational(k) * nu.inverse()) + \
            (qx ** (2 * m)).scale(PR.rational(m) * nubar.inverse()) + \
            TruncSeries.from_poly("x", {k: 1}).scale(k * (k - 1)) + \
            (qx ** m).scale(m * (m - 1))
        # identity 1: d/dx[log(x^2 f') + (f - 2(q/x)^m)/(nu0-nu1)]
        #           = target_num / (x^2 f')
        diffc = PR.diff()
        lhs1 = x2f.derivative("x").scale(diffc) + \
            x2f * (fprime + (qx ** m).scale(2 * m) *
                   TruncSeries.from_poly("x", {-1: 1}))
        rhs1 = target_num.scale(diffc)
        if not (lhs1 - rhs1).is_zero():
            rep.fail({"identity": "x-side primitive"}, str(lhs1), str(rhs1))
        # identity 2 (lam-side): d/dlam[lam^k/(nu0-nu1) + log(lam^k - nu)]
        #           = ((k-1) lam^k + nu^{-1} lam^{2k}) / (lam (lam^k - nu))
        lam_k = TruncSeries.from_poly("lam", {k: 1})
        core = lam_k - nu
        lhs2 = (lam_k.derivative("lam").scale(diffc.inverse()) * core +
                lam_k.derivative("lam")) * TruncSeries.from_poly("lam", {1: 1})
        rhs2 = TruncSeries.from_poly("lam", {k: k - 1}) + \
            TruncSeries.from_poly("lam", {2 * k: 1}).scale(nu.inverse())
        if not (lhs2 - rhs2).is_zero():
            rep.fail({"identity": "lam-side primitive"}, str(lhs2), str(rhs2))
        # identity 3: (I0, I0) df numerator equals the displayed form
        quad = pairing_quadratic_form(k, m)
        if not (quad - target_num).is_zero():
            rep.fail({"identity": "(I0,I0) df"}, str(quad), str(target_num))
    rep.elapsed_ms = sw.ms
    return rep


def verify_c_constant(k: int, m: int) -> CheckReport:
    """Pin the integration constant: C = W|_{x=inf} equals the z^{-1}
    coefficient of (d_{0/k} J, 1_{0/k}), which is tau nu0/(nu0-nu1) for
    distinct feet.

    Two parts: the dJ route must produce exactly nu0/(nu0-nu1) per unit tau,
    and the reconstructed W must approach a constant at x = infinity (its
    log-argument tends to 1 and the q-tail vanishes there).

    For equal feet the constant would pick up an extra
    k (Q e^tau)^k/(nu0-nu1)^2 term; that branch is unreachable here since
    the derivative formulas require coprime feet, so it stays untested.
    """
    from .jfunction import build_dj, expand_prefactors
    with Stopwatch() as sw:
        rep = CheckReport(name="c-constant", params={"k": k, "m": m})
        zwin = down_win(-4, hi=1)
        dj = build_dj(k, m, "k", k, 2 * max(k, m), zwin)
        expanded = expand_prefactors(dj, 1)
        coh = Cohomology(k, m)
        a0k = SectorIndex("k", 0)
        paired = expanded.get(a0k)
        eta = coh.pairing(a0k, a0k)
        got = paired.coeff_of("q", 0).coeff_of("z", 0).coeff_of("tau", 1)
        want = TruncSeries.scalar(PR.nu0() * PR.diff().inverse())
        cval = got * eta
        if not (cval - want).is_zero():
            rep.fail({"route": "dJ z^-1 coefficient"}, str(cval), str(want))
        # W approaches its constant: the log-argument tends to 1
        depth = 2 * (k + m) + 4
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        x_of_lam = solve_chart_change(sp, depth)
        lam = series_reversion(x_of_lam, "lam", out_var="x")
        x2f = TruncSeries.from_poly("x", {2: 1}) * sp.df_dx()
        arg = lam * (_pow_of(lam, k).scale(PR.rational(k)) - PR.diff()) * \
            x2f.recip_within({"x": down_win(lam.wins["x"].lo, hi=0),
                              "q": up_win(depth)})
        top = arg.coeff_of("x", 0).coeff_of("q", 0)
        if not (top - TruncSeries.scalar(1)).is_zero():
            rep.fail({"route": "W log-argument at infinity"}, str(top), "1")
    rep.elapsed_ms = sw.ms
    return rep


def verify_w_derivative(k: int, m: int, depth: int | None = None) -> CheckReport:
    """d/dx of the reconstructed W equals
    [-(I0(x), I0(x)) + (I0(lam), I0(lam))] d_x f, to window order.

    W is assembled from the two primitives of the phase forms with lam(x)
    the inverse of the chart change at the small slice.
    """
    depth = depth or (3 * (k + m) + 4)
    with Stopwatch() as sw:
        rep = CheckReport(name="w-derivative", params={"k": k, "m": m,
                                                       "depth": depth})
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        x_of_lam = solve_chart_change(sp, depth)
        lam_of_x = series_reversion(x_of_lam, "lam", out_var="x")
        lam = lam_of_x
        nu = PR.nu(k)
        diffc = PR.diff()
        fprime = sp.df_dx()
        qx = TruncSeries.from_poly("q", {1: 1}) * \
            TruncSeries.from_poly("x", {-1: 1})
        xwin = {"x": down_win(lam.wins["x"].lo + 2 * (k + m) + 2, hi=2 * k + 2),
                "q": up_win(depth + m)}
        # dW/dx = -2m q^m x^{-m-1}/(nu0-nu1) + lam'/lam
        #         + k^2 lam^{k-1} lam' / (k lam^k + nu1 - nu0)
        #         - (x^2 f')'/(x^2 f')
        lam_prime = lam.derivative("x")
        lam_inv = lam.recip_within({"x": down_win(xwin["x"].lo - 2, hi=0),
                                    "q": xwin["q"]})
        lam_k = _pow_of(lam, k)
        denom_k = lam_k.scale(PR.rational(k)) - diffc
        x2f = TruncSeries.from_poly("x", {2: 1}) * fprime
        lhs = (qx ** m).scale(PR.rational(-2 * m) * diffc.inverse()) * \
            TruncSeries.from_poly("x", {-1: 1}) + \
            lam_prime * lam_inv + \
            (_pow_of(lam, k - 1) * lam_prime).scale(k * k) * \
            denom_k.recip_within(xwin) - \
            x2f.derivative("x") * x2f.recip_within(xwin)
        # rhs: -(quad_x)/(x^2 f') + ((k-1)lam^k + nu^{-1}lam^{2k})
        #       / (lam(lam^k - nu)) * lam'
        quad = pairing_quadratic_form(k, m)
        rhs = -quad * x2f.recip_within(xwin) + \
            (lam_k.scale(k - 1) + _pow_of(lam, 2 * k).scale(nu.inverse())) * \
            (lam * (lam_k - nu)).recip_within(xwin) * lam_prime
        diff = lhs - rhs
        got = diff.wins["x"]
        rep.max_order_verified = {"x": [got.lo, got.hi],
                                  "q": diff.wins["q"].hi}
        if got.lo > -(k + m) or diff.wins["q"].hi < m:
            rep.fail({"window": str(got)}, "window too shallow", "")
        elif not diff.is_zero():
            key = min(diff.terms)
            rep.fail({"at": str(dict(zip(diff.vars, key)))},
                     "dW/dx", "phase-form difference")
    rep.elapsed_ms = sw.ms
    return rep


def verify_s_action_replay(k: int, m: int, alpha_i: int = 1,
                           lam_lo: int = -9, z_lo: int = -4) -> CheckReport:
    """The fundamental-solution action through the canonical chart change.

    With x(lam) solving the mirror chart equation at the small slice, the
    primitive difference of the x-side operator collapses to the closed
    Novikov-weighted exponent q^m lam^{-m} (the t_N-part specializes to
    zero on this slice), and the fixed-point sum transforms by exactly that
    exponential: f(x(lam)) = exp(z^{-1} q^m lam^{-m}) f(lam).
    """
    with Stopwatch() as sw:
        rep = CheckReport(name="s-action-replay",
                          params={"k": k, "m": m, "alpha": f"{alpha_i}/{k}",
                                  "lam": [lam_lo, 0], "z": [z_lo, 0]})
        D = d_x_operator(k, m)
        depth = -lam_lo + k + m + 2
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        x_l = solve_chart_change(sp, depth).truncated(
            {"lam": down_win(lam_lo - k - m, hi=1)})
        expo = phi_primitive_difference(D, x_l)
        closed = TruncSeries.from_poly("lam", {-m: 1}) * \
            TruncSeries.from_poly("q", {m: 1})
        d = expo.eq_report(closed.truncated(expo.wins))
        if d is not None:
            rep.fail({"at": str(d[0])}, "primitive difference",
                     "q^m lam^-m")
            rep.elapsed_ms = sw.ms
            return rep
        lam_win = down_win(lam_lo - k - m, hi=2 * k + 2)
        zwin = down_win(z_lo, hi=0)
        g = TruncSeries.from_poly("lam", {alpha_i - k: Fraction(1, k)})
        f = bi_infinite_sum(D, g, lam_win, zwin)
        lhs = f.subst("lam", x_l)
        zinv = TruncSeries.var("z", zwin, power=-1)
        factor = (closed.truncated({"lam": down_win(lam_lo - k - m, hi=0)})
                  * zinv).exp()
        rhs = f * factor
        window = {"lam": down_win(lam_lo + k + m + 2, hi=k), "z": zwin}
        d = lhs.truncated(window).eq_report(rhs.truncated(window))
        if d is not None:
            rep.fail({"at": str(d[0])}, "f(x(lam))",
                     "exp(q^m lam^-m / z) f(lam)")
    rep.elapsed_ms = sw.ms
    return rep
