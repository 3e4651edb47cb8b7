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

from fractions import Fraction
from itertools import chain
from operator import add, le

from .cohomology import Cohomology, SectorIndex
from .errors import SingularFiber
from .mirror import phi_poly, superpotential, solve_chart_change
from .rationals import ParamRat, PR
from .reports import CheckReport
from .series import (POINT, TruncSeries, VarWindow, down_win, merge_win,
                     power_sum, product_win, series_reversion, sum_series,
                     support_in, up_win)


class DOp:
    """D = -(z/k) lam^{1-k} d_lam + nu lam^{-k} + sum tail_i lam^{-k-i}.

    The residue nu and the polynomial part (degree k-1, encoded by k) must
    be nonzero; each tail_i is an exact polynomial free of lam and z.
    """
    __slots__ = ("k", "nu", "tail")

    def __init__(self, k: int, nu: ParamRat, tail: dict | None = None):
        if nu.is_zero():
            raise SingularFiber("the operator needs a nonzero residue")
        if k < 1:
            raise SingularFiber("the polynomial part must be nonzero")
        self.k, self.nu = k, nu
        self.tail = {} if tail is None else tail   # i >= 1 -> tail_i series


def d_x_operator(k: int, m: int) -> DOp:
    """The x-side operator of the mirror family at the small slice."""
    qm = TruncSeries.from_poly("q", {m: Fraction(m, k)})
    return DOp(k=k, nu=PR.nu(k), tail={m: qm})


def d_classical(k: int) -> DOp:
    """tail-free operator: phi = k lam^{k-1} + (nu1 - nu0)/lam."""
    return DOp(k=k, nu=PR.nu(k))


def d_apply(D: DOp, g: TruncSeries) -> TruncSeries:
    zf = TruncSeries.from_poly("z", {1: Fraction(-1, D.k)})
    return sum_series(chain(
        (g.derivative("lam").shift_exponent("lam", 1 - D.k) * zf,
         g.shift_exponent("lam", -D.k).scale(D.nu)),
        (g.shift_exponent("lam", -D.k - i) * c for i, c in D.tail.items())))


def d_inverse(D: DOp, g: TruncSeries, zwin: VarWindow) -> TruncSeries:
    """The Lemma-D inverse: the unique solution with leading term
    lam^{A+k}/(-z(A+k)/k + nu) per lam-monomial of g, extended linearly.
    One pass down the lam-exponents e of f solves (nu - (e/k) z) f_e =
    g_(e-k) - sum_i tail_i f_(e+i) on the kernel's windows of the sum over
    a of D^-1(lam^a) times g's lam^a slice (README, Design notes)."""
    if "lam" not in g.wins:
        g = g + TruncSeries.scalar(0, {"lam": down_win(-1, hi=0)})
    lam_w = g.wins["lam"]
    # the inverse has an infinite descending tail, and a soft seed window
    # pollutes the image k orders higher
    lam_out = VarWindow(lam_w.lo if lam_w.lo_hard else lam_w.lo + D.k,
                        lam_w.hi + D.k, False, lam_w.hi_hard)
    if not g.terms:
        return TruncSeries.scalar(0, {"lam": lam_out, "z": zwin})
    if zwin.lo_hard or not zwin.hi_hard or zwin.lo >= 0:
        raise ValueError(f"zwin must be soft below 0, hard above: {zwin}")
    k, gi = D.k, g.vars.index("lam")
    top = max(key[gi] for key in g.terms)
    tails = {i: c for i, c in D.tail.items() if top + k - i >= lam_out.lo}
    vars = tuple(sorted({*g.vars, "z", *chain.from_iterable(
        c.vars for c in tails.values())}))
    steps = [(i, tuple(dict(zip(c.vars, key)).get(v, 0) for v in vars), x)
             for i, c in tails.items() for key, x in c.terms.items()]
    # g's keys by lam-exponent a, and its z-columns by e = a + k, each
    # under its key with lam and z at 0; f_e takes their place
    li, zi, slices, f, terms = vars.index("lam"), vars.index("z"), {}, {}, {}
    for key, c in g.terms.items():
        slices.setdefault(key[gi], []).append(key)
        key = [dict(zip(g.vars, key)).get(v, 0) for v in vars]
        e, t, key[li], key[zi] = key[li] + k, key[zi], 0, 0
        f.setdefault(e, {}).setdefault(tuple(key), {})[t] = c
    # the windows of D^-1(lam^a) times g's lam^a slice, merged over a
    rest, wins = {v: w for v, w in g.wins.items() if v != "lam"}, {}
    for a, keys in sorted(slices.items()):
        sups = _inverse_support(D, a, lam_out, zwin, vars, steps)
        ext = dict(zip(g.vars, zip(*keys)))
        for v in vars:
            sg = support_in(rest[v], ext[v]) if v in rest else (0, 0)
            w = product_win({"lam": lam_out, "z": zwin}.get(v, POINT),
                            rest.get(v, POINT), sups[v], sg, v)
            wins[v] = merge_win(wins[v], w, v, "addition") if v in wins else w
    for e in range(top + k, lam_out.lo - 1, -1):
        rhs, f[e] = f.pop(e, {}), {}
        for i, d, x in steps:
            for key, col in f.get(e + i, {}).items():
                into = rhs.setdefault(tuple(map(add, key, d)), {})
                for t, c in col.items():
                    into[t] = into[t] - c * x if t in into else -(c * x)
        for key, col in rhs.items():
            f[e][key] = col = _divide_column(col, D.nu, Fraction(e, k),
                                             wins["z"].lo)
            for t, c in col.items():
                terms[key[:li] + (e,) + key[li + 1:zi] + (t,) +
                      key[zi + 1:]] = c
    lows, highs = [wins[v].lo for v in vars], [wins[v].hi for v in vars]
    out = TruncSeries(vars, wins, {key: c for key, c in terms.items() if all(
        map(le, lows, key)) and all(map(le, key, highs))})
    for group, cap in g.caps.items():
        out = out.with_cap(group, cap)
    return out


def _divide_column(col: dict, nu: ParamRat, beta: Fraction, zlo: int) -> dict:
    """The nonzero terms of the z-column col over nu - beta z down to z^zlo:
    col/nu, or from the top down f_(t-1) = (nu/beta) f_t - col_t/beta."""
    if not beta:
        return {t: c * nu.inverse() for t, c in col.items()
                if t >= zlo and not c.is_zero()}
    lead, ratio = PR.rational(-1 / beta), nu * PR.rational(1 / beta)
    out, f = {}, PR.zero()
    for t in range(max(col, default=zlo), zlo, -1):
        f = f * ratio + col[t] * lead if t in col else f * ratio
        if not f.is_zero():
            out[t - 1] = f
    return out


def _inverse_support(D: DOp, a: int, lam_out: VarWindow, zwin: VarWindow,
                     vars: tuple, steps: list) -> dict:
    """The support bounds of D^-1(lam^a) as the kernel builds it on lam_out
    and zwin, from keys alone: mode j (lam^(a+k-j)) takes mode j - i's keys
    moved by tail_i, and a key is kept while its top z-exponent, lowered
    by each division by nu - (e/k) z with e != 0, is in zwin."""
    top, modes = a + D.k, []
    for j in range(top - lam_out.lo + 1 if steps else 1):
        into = {(0,) * len(vars): 0} if j == 0 else {}
        for i, d, _ in steps:
            for key, t in (modes[j - i].items() if i <= j else ()):
                key = tuple(map(add, key, d))
                into[key] = max(into.get(key, t), t)
        drop = 1 if top - j else 0
        modes.append({key: t - drop for key, t in into.items()
                      if t - drop >= zwin.lo})
    kept = zip(vars, zip(*(key for mode in modes for key in mode)))
    return {**{v: (min(col), max(col)) for v, col in kept},
            "lam": support_in(lam_out, [top]),
            "z": support_in(zwin, [0 if top == 0 else -1])}


def bi_infinite_sum(D: DOp, g: TruncSeries, lam_win: VarWindow,
                    zwin: VarWindow) -> TruncSeries:
    """sum_{n in Z} D^n g, truncated by the adic decay in both directions."""
    wins = {"lam": lam_win, "z": zwin}
    base = g.truncated(wins)
    limit = 10 * (lam_win.hi - lam_win.lo + zwin.hi - zwin.lo + 4)
    total = power_sum(base, lambda cur: d_apply(D, cur).truncated(wins),
                      limit=limit, what="positive D-chain")
    return power_sum(base,
                     lambda cur: d_inverse(D, cur, zwin).truncated(wins),
                     total=total, limit=limit, what="negative D-chain")


def verify_lemma_d_branches(k: int) -> CheckReport:
    """D^{-1} xi^alpha has constant z-term 1/nu iff alpha = -1.

    Checked for all alpha in (1/k)Z with |alpha| <= 3 on both a tail-free
    operator and the mirror x-side operator.
    """
    alpha_bound = 3
    with CheckReport(name="lemma-d-branches",
                     params={"k": k, "alpha_bound": alpha_bound}) as rep:
        zwin = down_win(-6, hi=0)
        for D in (d_classical(k), d_x_operator(k, max(1, k - 1))):
            for a in range(-alpha_bound * k, alpha_bound * k + 1):
                # lam^a known down to a - 4k: its inverse is known on
                # lam [a - 3k, a + k]
                g = TruncSeries.from_poly("lam", {a: 1}).truncated(
                    {"lam": down_win(a - 4 * k, hi=a)})
                inv = d_inverse(D, g, zwin)
                z0 = inv.coeff_of("z", 0)
                where = {"alpha": f"{a}/{k}", "tail": bool(D.tail)}
                # a z^0 term, 1/nu at lam^0, on the branch alpha = a/k = -1
                # and none off it
                ok = rep.compare(z0.coeff_of("lam", 0), D.nu.inverse(),
                                 where) if a == -k else rep.compare(z0, 0, where)
                if not ok:
                    break
                # inverse property: D (D^{-1} g) = g within windows
                back = d_apply(D, inv).truncated(
                    {"lam": down_win(a - 2 * k, hi=a), "z": zwin})
                target = TruncSeries.from_poly("lam", {a: 1}).truncated(
                    {"lam": down_win(a - 2 * k, hi=a), "z": zwin})
                if not rep.compare(back, target,
                                   {**where, "check": "D o D^-1"}):
                    break
            if not rep.ok:
                break
    return rep


def verify_fixed_point(k: int, m: int, alpha: SectorIndex) -> CheckReport:
    """D f = f for the bi-infinite sum, and its z^0 mode is phi_alpha w/df."""
    lam_lo, z_lo = -10, -5
    with CheckReport(name="bi-infinite-fixed-point",
                     params={"k": k, "m": m,
                             "alpha": alpha.label(k, m)}) as rep:
        D = d_x_operator(k, m)
        lam_win = down_win(lam_lo, hi=2 * k)
        zwin = down_win(z_lo, hi=abs(lam_lo) + 2)
        g = _phi_mode_seed(k, m, alpha)
        f = bi_infinite_sum(D, g, lam_win, zwin)
        shrunk = {"lam": down_win(lam_lo + k + m, hi=k), "z": zwin}
        df = d_apply(D, f).truncated(shrunk)
        rep.compare(df, f.truncated(shrunk), {})
        # z^0 mode: phi_alpha(x) / (x f'(x)) expanded at infinity
        z0 = f.coeff_of("z", 0)
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        fprime = sp.df_dx().rename({"x": "lam"})
        phi = phi_poly(k, m, alpha).rename({"x": "lam"})
        den = TruncSeries.from_poly("lam", {1: 1}) * fprime
        want = phi * den.recip_within({"lam": down_win(lam_lo, hi=k),
                                       "q": up_win(abs(lam_lo) + 4)})
        rep.compare(z0, want.truncated(z0.wins), {"mode": "z^0"})
    return rep


def _phi_mode_seed(k: int, m: int, alpha: SectorIndex) -> TruncSeries:
    """k^{-1} phi_alpha(lam) lam^{-k}: the seed of the x-side mode sum."""
    phi = phi_poly(k, m, alpha).rename({"x": "lam"})
    return phi.shift_exponent("lam", -k).scale(Fraction(1, k))


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
    u = x * TruncSeries.from_poly("lam", {-1: 1}) - 1
    # primitive of -k tail_i lam^{-i-1} is (k/i) tail_i lam^{-i}
    return sum_series(chain(
        (c.scale(Fraction(k, i)) *
         (TruncSeries.from_poly("lam", {-i: 1}) - x ** -i)
         for i, c in D.tail.items()),
        (u.log1p().scale(D.nu * k),)),
        TruncSeries.from_poly("lam", {k: 1}) - x ** k)


def verify_transformation_law(k: int, m: int) -> list[CheckReport]:
    """f(x(lam)) = f(lam) exp(z^{-1} int_x^lam phi) for two nontrivial
    coordinate changes, on a tail-free and on the mirror x-side operator."""
    zlo, lam_lo = -4, -9
    reports = []
    c = PR.rational(Fraction(3, 2))
    cases = [("shift", TruncSeries.from_poly("lam", {1: 1, 0: c})),
             ("shift+tail", TruncSeries.from_poly(
                 "lam", {1: 1, 0: c, -1: Fraction(-2, 5)}))]
    ops = [("classical", d_classical(k)), ("mirror-x", d_x_operator(k, m))]
    for cname, change in cases:
        for oname, D in ops:
            with CheckReport(
                    name=f"transformation-{cname}-{oname}",
                    params={"k": k, "m": m, "zwin": [zlo, 0],
                            "lam": [lam_lo, 0]}) as rep:
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
                rep.compare(lhs.truncated(window), rhs.truncated(window), {})
            reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# rational period modes
# ---------------------------------------------------------------------------


class PeriodMode:
    """I^{(n)} as num / (f')^{dpow}; num an exact Laurent polynomial."""
    __slots__ = ("num", "dpow")

    def __init__(self, num: TruncSeries, dpow: int):
        self.num, self.dpow = num, dpow


def mode_chain(k: int, m: int, alpha: SectorIndex,
               n_max: int) -> list[PeriodMode]:
    """I^{(0)}..I^{(n_max)} on the small slice, with the defining recursion
    d_x I^{(n)} = f' I^{(n+1)} kept exactly."""
    fprime = superpotential(k, m, {i: 0 for i in range(1, k + m)}).df_dx()
    if fprime.is_zero():
        raise SingularFiber("df vanishes identically")
    fsecond = fprime.derivative("x")
    modes = [PeriodMode(phi_poly(k, m, alpha) *
                        TruncSeries.from_poly("x", {-1: 1}), 1)]
    for _ in range(n_max):
        prev = modes[-1]
        num = prev.num.derivative("x") * fprime - \
            prev.num.scale(prev.dpow) * fsecond
        modes.append(PeriodMode(num, prev.dpow + 2))
    return modes


def verify_mode_recursion(k: int, m: int) -> CheckReport:
    """d_x I^{(n)} = f' I^{(n+1)} for the modes of ``mode_chain``, each
    I^{(n)} = num / (f')^{dpow} expanded at x = infinity through one
    reciprocal of f' known for x >= -6 and q <= 2, so that the recursion is
    checked on the expansions rather than replayed on the numerators."""
    with CheckReport(name="mode-chain", params={"k": k, "m": m}) as rep:
        fprime = superpotential(k, m, {i: 0 for i in range(1, k + m)}).df_dx()
        inv = fprime.recip_within({"x": down_win(-6), "q": up_win(2)})
        inv_pows = {}
        for alpha in Cohomology(k, m).sectors():
            modes = mode_chain(k, m, alpha, 3)
            for mode in modes:
                if mode.dpow not in inv_pows:
                    inv_pows[mode.dpow] = inv ** mode.dpow
            periods = [mode.num * inv_pows[mode.dpow] for mode in modes]
            for n in range(3):
                if not rep.compare(periods[n].derivative("x"),
                                   fprime * periods[n + 1],
                                   {"alpha": alpha.label(k, m), "n": n}):
                    return rep
    return rep


# ---------------------------------------------------------------------------
# phase-form primitives (the W and W-bar building blocks)
# ---------------------------------------------------------------------------


def pairing_quadratic_form(k: int, m: int) -> TruncSeries:
    """sum eta^{ab} phi_a phi_b = k nu^{-1} x^{2k} + m nubar^{-1} (q/x)^{2m}
    + k(k-1) x^k + m(m-1)(q/x)^m, assembled from the dual pairing."""
    coh = Cohomology(k, m)

    def term(a):
        b, gb = coh.dual(a)
        return (phi_poly(k, m, a) * phi_poly(k, m, b)).scale(gb)
    return sum_series(map(term, coh.sectors()), TruncSeries.scalar(0))


def phase_primitive_check(k: int, m: int) -> CheckReport:
    """The three exact rational identities behind the W-formulas."""
    with CheckReport(name="phase-primitives", params={"k": k, "m": m}) as rep:
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
        rep.compare(lhs1, rhs1, {"identity": "x-side primitive"})
        # identity 2 (lam-side): d/dlam[lam^k/(nu0-nu1) + log(lam^k - nu)]
        #           = ((k-1) lam^k + nu^{-1} lam^{2k}) / (lam (lam^k - nu))
        lam_k = TruncSeries.from_poly("lam", {k: 1})
        core = lam_k - nu
        lhs2 = (lam_k.derivative("lam").scale(diffc.inverse()) * core +
                lam_k.derivative("lam")) * TruncSeries.from_poly("lam", {1: 1})
        rhs2 = TruncSeries.from_poly("lam", {k: k - 1}) + \
            TruncSeries.from_poly("lam", {2 * k: 1}).scale(nu.inverse())
        rep.compare(lhs2, rhs2, {"identity": "lam-side primitive"})
        # identity 3: (I0, I0) df numerator equals the displayed form
        rep.compare(pairing_quadratic_form(k, m), target_num,
                    {"identity": "(I0,I0) df"})
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
    with CheckReport(name="c-constant", params={"k": k, "m": m}) as rep:
        zwin = down_win(-4, hi=1)
        dj = build_dj(k, m, "k", k, 2 * max(k, m), zwin)
        expanded = expand_prefactors(dj, 1)
        coh = Cohomology(k, m)
        a0k = SectorIndex("k", 0)
        paired = expanded.get(a0k)
        eta = coh.pairing(a0k, a0k)
        got = paired.coeff_of("q", 0).coeff_of("z", 0).coeff_of("tau", 1)
        want = TruncSeries.scalar(PR.nu0() * PR.diff().inverse())
        rep.compare(got * eta, want, {"route": "dJ z^-1 coefficient"})
        # W approaches its constant: the log-argument tends to 1
        depth = 2 * (k + m) + 4
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        x_of_lam = solve_chart_change(sp, depth, depth + m)
        lam = series_reversion(x_of_lam, "lam", out_var="x")
        x2f = TruncSeries.from_poly("x", {2: 1}) * sp.df_dx()
        arg = lam * ((lam ** k).scale(PR.rational(k)) - PR.diff()) * \
            x2f.recip_within({"x": down_win(lam.wins["x"].lo, hi=0),
                              "q": up_win(depth)})
        rep.compare(arg.coeff_of("x", 0).coeff_of("q", 0),
                    TruncSeries.scalar(1),
                    {"route": "W log-argument at infinity"})
    return rep


def verify_w_derivative(k: int, m: int) -> CheckReport:
    """d/dx of the reconstructed W equals
    [-(I0(x), I0(x)) + (I0(lam), I0(lam))] d_x f, to window order.

    W is assembled from the two primitives of the phase forms with lam(x)
    the inverse of the chart change at the small slice.
    """
    depth = 3 * (k + m) + 4
    with CheckReport(name="w-derivative", params={"k": k, "m": m,
                                                  "depth": depth}) as rep:
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        x_of_lam = solve_chart_change(sp, depth, depth + m)
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
        lam_k = lam ** k
        denom_k = lam_k.scale(PR.rational(k)) - diffc
        x2f = TruncSeries.from_poly("x", {2: 1}) * fprime
        lhs = (qx ** m).scale(PR.rational(-2 * m) * diffc.inverse()) * \
            TruncSeries.from_poly("x", {-1: 1}) + \
            lam_prime * lam_inv + \
            (lam ** (k - 1) * lam_prime).scale(k * k) * \
            denom_k.recip_within(xwin) - \
            x2f.derivative("x") * x2f.recip_within(xwin)
        # rhs: -(quad_x)/(x^2 f') + ((k-1)lam^k + nu^{-1}lam^{2k})
        #       / (lam(lam^k - nu)) * lam'
        quad = pairing_quadratic_form(k, m)
        rhs = -quad * x2f.recip_within(xwin) + \
            (lam_k.scale(k - 1) + (lam ** (2 * k)).scale(nu.inverse())) * \
            (lam * (lam_k - nu)).recip_within(xwin) * lam_prime
        # the verified window is the known window of the difference
        wins = (lhs - rhs).wins
        got = wins["x"]
        rep.max_order_verified = {"x": [got.lo, got.hi], "q": wins["q"].hi}
        if got.lo > -(k + m) or wins["q"].hi < m:
            rep.fail({"window": str(got)}, "window too shallow", "")
        else:
            rep.compare(lhs, rhs, {})
    return rep


def verify_s_action_replay(k: int, m: int) -> CheckReport:
    """The fundamental-solution action through the canonical chart change.

    With x(lam) solving the mirror chart equation at the small slice, the
    primitive difference of the x-side operator collapses to the closed
    Novikov-weighted exponent q^m lam^{-m} (the t_N-part specializes to
    zero on this slice), and the fixed-point sum transforms by exactly that
    exponential: f(x(lam)) = exp(z^{-1} q^m lam^{-m}) f(lam).
    """
    alpha_i, lam_lo, z_lo = 1, -9, -4
    with CheckReport(name="s-action-replay",
                     params={"k": k, "m": m, "alpha": f"{alpha_i}/{k}",
                             "lam": [lam_lo, 0], "z": [z_lo, 0]}) as rep:
        D = d_x_operator(k, m)
        depth = -lam_lo + k + m + 2
        sp = superpotential(k, m, {i: 0 for i in range(1, k + m)})
        x_l = solve_chart_change(sp, depth, depth + m).truncated(
            {"lam": down_win(lam_lo - k - m, hi=1)})
        expo = phi_primitive_difference(D, x_l)
        closed = TruncSeries.from_poly("lam", {-m: 1}) * \
            TruncSeries.from_poly("q", {m: 1})
        if not rep.compare(expo, closed.truncated(expo.wins),
                           {"identity": "primitive difference"}):
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
        rep.compare(lhs.truncated(window), rhs.truncated(window),
                    {"identity": "f(x(lam)) = exp(q^m lam^-m / z) f(lam)"})
    return rep
