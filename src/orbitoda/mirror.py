"""Mirror family, flat coordinates, residue pairing, and classical limits.

The superpotential is carried as an exact Laurent polynomial in x over
(q, t)-polynomials together with structural log-coefficients: the logs never
need expanding because only df and log-derivative bookkeeping enter the
formulas.  Residues at x = 0 and x = infinity are Laurent expansions in the
two orientations of the same variable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import comb
from operator import mul

from .algebra import (bernoulli_number, bernoulli_poly, binom_frac,
                      poly_derivative)
from .cohomology import Cohomology, QuantumRing, SectorIndex
from .errors import SingularFiber
from .rationals import ParamRat, PR
from .reports import CheckReport
from .series import TruncSeries, down_win, exact_win, sum_series, up_win


def tname(i: int) -> str:
    return f"t{i}"


class Superpotential:
    """f_t on the x-chart: rational part + structural logs.

    rational: x^k + sum t_i x^{k-i} + sum t_{k+j} (q/x)^j + (q/x)^m over the
    declared t-variables (or numeric t); logs: c_x * log x + c_q * log q with
    c_x = nu1 - nu0 and c_q = nu0 (from nu1 log x + nu0 log(q/x)), only c_x
    (log_x) entering df/dx; tN_term = nu0 * t_N, in the flat coordinates.
    """
    __slots__ = ("k", "m", "rational", "log_x", "tN_term")

    def __init__(self, k: int, m: int, rational: TruncSeries,
                 log_x: ParamRat, tN_term: TruncSeries):
        self.k, self.m, self.rational = k, m, rational
        self.log_x, self.tN_term = log_x, tN_term

    def df_dx(self) -> TruncSeries:
        return self.rational.derivative("x") + \
            TruncSeries.from_poly("x", {-1: self.log_x})


def superpotential(k: int, m: int, tvals: dict | None = None,
                   tcap: int = 4) -> Superpotential:
    """Build f_t; ``tvals`` maps t-indices to exact rationals (None keeps the
    t's symbolic up to total degree ``tcap``)."""
    N = k + m
    symbolic = tvals is None

    def tvar(i):
        if symbolic:
            s = TruncSeries.var(tname(i), up_win(tcap))
            return s.with_cap([tname(j) for j in range(1, N + 1)], tcap)
        return TruncSeries.scalar(tvals.get(i, 0))

    x = TruncSeries.from_poly("x", {1: 1})
    q = TruncSeries.from_poly("q", {1: 1})
    rational = sum_series(chain(
        (tvar(i) * TruncSeries.from_poly("x", {k - i: 1})
         for i in range(1, k + 1)),
        (tvar(k + j) * (q ** j) * TruncSeries.from_poly("x", {-j: 1})
         for j in range(1, m)),
        ((q ** m) * TruncSeries.from_poly("x", {-m: 1}),)), x ** k)
    return Superpotential(
        k=k, m=m, rational=rational,
        log_x=PR.nu1() - PR.nu0(), tN_term=tvar(N).scale(PR.nu0()))


def _retname_map(k: int, m: int) -> dict[str, str]:
    """y-chart t-names in terms of the x-chart ones: t_i <-> t_{k+m-i}."""
    N = k + m
    out = {tname(N): tname(N)}
    for i in range(1, N):
        out[tname(i)] = tname(N - i)
    return out


# ---------------------------------------------------------------------------
# flat coordinates
# ---------------------------------------------------------------------------


def unit_powers(one_u: TruncSeries, lo: int, hi: int) -> dict[int, TruncSeries]:
    """{e: one_u^e for lo <= e <= hi}, lo <= 0 <= hi: each power is one
    product from its neighbour nearer 0 (one_u^-1 is one reciprocal), and
    equals ``one_u ** e`` term for term."""
    out = {0: TruncSeries.scalar(1)}
    if hi >= 1:
        out[1] = one_u
    if lo <= -1:
        out[-1] = one_u.recip()
    for e in range(2, hi + 1):
        out[e] = out[e - 1] * one_u
    for e in range(-2, lo - 1, -1):
        out[e] = out[e + 1] * out[-1]
    return out


def newton_schedule(depth: int) -> list[int]:
    """Precisions 1, ..., ceil(depth/4), ceil(depth/2), depth: the top-down
    halving of depth, run bottom up (Brent-Kung 1978)."""
    out = [depth]
    while out[-1] > 1:
        out.append(-(-out[-1] // 2))
    return out[::-1]


def solve_chart_change(sp: Superpotential, depth: int,
                       qtop: int) -> TruncSeries:
    """x(lam) = lam (1 + u) solving f_t(x) = lam^k + (log-normal form).

    Returns x(lam) with the lam-window soft down to lam^{1-depth} and the
    q-window soft above q^qtop.  The caller states both: a check solves on
    the window it reads (the period checks pass qtop = depth + m, the flat
    coordinates a q-window deeper than their lam-window).
    """
    k = sp.k
    qwin = up_win(qtop)
    lam_pow = {e: TruncSeries.from_poly("lam", {e: 1}) for e in range(-sp.m, k + 1)}

    def subst_x(powers, e):
        # (lam (1+u))^e
        return powers[e] * TruncSeries.from_poly("lam", {e: 1})

    # the rational terms as (x-exponent, rest of the term, whether the rest
    # is 1), built once for all Newton steps
    terms = []
    for key, c in sp.rational.terms.items():
        exps = dict(zip(sp.rational.vars, key))
        rest = {n: v for n, v in exps.items() if n != "x"}
        terms.append((exps.get("x", 0), TruncSeries.monomial(
            rest, {n: sp.rational.wins[n] for n in rest}, coeff=c),
            not any(rest.values())))

    def G(u, powers):
        # the leading x^k is the start
        return sum_series(chain(
            (mono * subst_x(powers, e) for e, mono, bare in terms
             if e != k or not bare),
            (u.log1p().scale(sp.log_x),)),
            subst_x(powers, k) - lam_pow[k] + sp.tN_term)

    def Gprime(powers, lamw):
        # d/du of G: from the rational part, e * lam^e (1+u)^{e-1}, plus
        # log-term c/(1+u)
        return sum_series(chain(
            (mono.scale(e) * powers[e - 1] *
             TruncSeries.from_poly("lam", {e: 1})
             for e, mono, _ in terms if e),
            (powers[-1].scale(sp.log_x),)),
            TruncSeries.scalar(0, {"lam": lamw, "q": qwin}))

    # An iterate exact to lam^-p before a step is exact to lam^-(2p+1)
    # after it, so step i re-declares the iterate on lam^[-p_i, 0], zero
    # below its old bottom, for p_i in ``newton_schedule(depth)``; only
    # G = 0 on the full window ends the loop.  G and G' share one table of
    # the powers (1+u)^e, -m-1 <= e <= k; the table, g and G' are freed
    # before the next step builds its own.
    u = TruncSeries.scalar(0, {"lam": down_win(-1), "q": qwin})
    for p in chain(newton_schedule(depth), repeat(depth, 3)):
        lamw = down_win(-p)
        u = TruncSeries(u.vars, {**u.wins, "lam": lamw}, u.terms, u.caps)
        powers = unit_powers(1 + u, -sp.m - 1, k)
        g = G(u, powers)
        if p == depth and g.is_zero():
            break
        gp = Gprime(powers, lamw)
        del powers
        u = u - g * gp.recip()
        del g, gp
    else:
        gc = G(u, unit_powers(1 + u, -sp.m - 1, k))
        if not gc.is_zero():
            raise SingularFiber("chart-change Newton did not converge")
    return (1 + u) * TruncSeries.from_poly("lam", {1: 1})


def flat_coords_residue(k: int, m: int, degree: int) -> dict:
    """tau^{i/k}(t) = (k/i) [x^0] lam(x)^i, read by Lagrange inversion.

    With the chart change x(lam) = lam (1 + u), the substitution x = x(lam)
    turns [x^0] lam^i into [lam^0] lam^i lam x'/x, and lam x'/x = 1 +
    lam d/dlam log(1 + u), so tau^{i/k} = -k [lam^-i] log(1 + u): all k
    coordinates are coefficients of one log1p, and lam(x) is never formed.
    x(lam) is known to lam^(1-depth), so log(1 + u) to lam^-depth: depth k
    knows lam^-k (at k - 1 the coeff_of raises WindowUnderflow).  The
    q-window is q^(k+2m+3).

    Returns {('k', i): polynomial in the t's}; i = 0 holds t_k + nu0 t_N.
    """
    sp = superpotential(k, m, None, degree)
    x_of_lam = solve_chart_change(sp, k, k + 2 * m + 3)
    log_u = (x_of_lam.shift_exponent("lam", -1) - 1).log1p().scale(-k)
    return {("k", i % k): log_u.coeff_of("lam", -i) for i in range(1, k + 1)}


def flat_coords_binomial(k: int, m: int, degree: int | None = None) -> dict:
    """The truncated-binomial closed form of the flat coordinates.

    The sums are finite (weighted degree i in the t's), so the output is an
    exact polynomial; ``degree`` is accepted for signature parity and only
    caps the result when given.
    """
    out = {}
    N = k + m
    for i in range(1, k + 1):
        ti = TruncSeries.from_poly(tname(i), {1: 1})
        if i == k:
            tau = ti + TruncSeries.from_poly(tname(N), {1: 1}).scale(PR.nu0())
            out[("k", 0)] = tau
            continue
        if i == 1:
            out[("k", 1)] = ti
            continue
        # f_{i/k}: coefficient of x^{-i} in (1/(i/k)) sum_{n=2}^{i}
        # binom(i/k, n) (t_1/x + ... + t_{i-1}/x^{i-1})^n
        inner = sum_series(
            (TruncSeries.from_poly(tname(a), {1: 1}) *
             TruncSeries.from_poly("x", {-a: 1}) for a in range(1, i)),
            TruncSeries.scalar(0, {"x": exact_win(-(i - 1), -1)}))
        inner_pows = enumerate(accumulate(repeat(inner, i), mul), 1)
        acc = sum_series((inner_pow.scale(c) for n, inner_pow in inner_pows
                          if n >= 2 and (c := binom_frac(Fraction(i, k), n))),
                         TruncSeries.scalar(0))
        f_ik = acc.coeff_of("x", -i).scale(Fraction(k, i))
        out[("k", i)] = ti + f_ik
    if degree is not None:
        caps = frozenset(tname(j) for j in range(1, N + 1))
        out = {key: ser.with_cap(caps, degree) for key, ser in out.items()}
    return out


def verify_flat_coordinates(k: int, m: int) -> CheckReport:
    """Residue route == truncated-binomial route, plus the pinned values,
    on the t-jet of degree 4."""
    degree = 4
    with CheckReport(name="flat-coordinates",
                     params={"k": k, "m": m, "degree": degree},
                     max_order_verified={"t": degree}) as rep:
        res_route = flat_coords_residue(k, m, degree)
        bin_route = flat_coords_binomial(k, m, degree)
        for key in sorted(bin_route):
            a = res_route[key]
            b = bin_route[key] + TruncSeries.scalar(0, a.wins)
            if not rep.compare(a, b, {"tau": f"{key[1]}/{k}"}):
                break
        # pinned displays: tau^{1/k} = t_1 (k>1), tau^{0/k} = t_k + nu0 t_N
        want0 = TruncSeries.var(tname(k), up_win(degree)) + \
            TruncSeries.var(tname(k + m), up_win(degree)).scale(PR.nu0())
        got0 = res_route[("k", 0)]
        rep.compare(got0, want0.truncated(got0.wins), {"tau": f"0/{k}"})
    return rep


# ---------------------------------------------------------------------------
# residue pairing
# ---------------------------------------------------------------------------


def _laurent_support(ser: TruncSeries, var: str) -> tuple[int, int]:
    i = ser.vars.index(var)
    exps = [key[i] for key in ser.terms]
    return (min(exps), max(exps))


def to_y_chart(ser: TruncSeries) -> TruncSeries:
    """Exact monomial remap x^e q^j -> y^{-e} q^{e+j} (y = q/x)."""
    out = {}
    xi = ser.vars.index("x") if "x" in ser.vars else None
    qi = ser.vars.index("q") if "q" in ser.vars else None
    qlos, qhis, ylos, yhis = [0], [0], [0], [0]
    rest = [i for i, v in enumerate(ser.vars) if v not in ("x", "q")]
    restvars = tuple(ser.vars[i] for i in rest)
    for key, c in ser.terms.items():
        e = key[xi] if xi is not None else 0
        j = key[qi] if qi is not None else 0
        nk = (-e, e + j) + tuple(key[i] for i in rest)
        qlos.append(e + j)
        qhis.append(e + j)
        ylos.append(-e)
        yhis.append(-e)
        out[nk] = out.get(nk, PR.zero()) + c
    wins = {"y": exact_win(min(ylos), max(yhis)),
            "q": exact_win(min(qlos), max(qhis))}
    for i in rest:
        wins[ser.vars[i]] = ser.wins[ser.vars[i]]
    vars_all = ("q", "y") + restvars
    order = sorted(range(len(vars_all)), key=lambda i: vars_all[i])
    sorted_vars = tuple(vars_all[i] for i in order)
    terms = {}
    for key, c in out.items():
        if not c.is_zero():
            full = (key[1], key[0]) + key[2:]
            terms[tuple(full[i] for i in order)] = c
    caps = {g: c for g, c in ser.caps.items() if "x" not in g and "q" not in g}
    return TruncSeries(sorted_vars, wins, terms, caps)


def residue_both_ends(nums: list[TruncSeries],
                      den: TruncSeries) -> list[TruncSeries]:
    """-(res_0 + res_inf) of (num/den) dx for each of the exact Laurent
    ``nums`` over one exact Laurent ``den``.

    1/den is expanded once per end, on the deepest window any numerator
    reads, and each residue is one ``mul_coeff``: it forms only the term
    pairs that land on x^-1 (y^-1 at zero).
    """
    dlo, dhi = _laurent_support(den, "x")
    spans = [_laurent_support(num, "x") for num in nums]
    qspan = max(hi - lo for lo, hi in spans) + (dhi - dlo) + 4
    zero = TruncSeries.scalar(0)
    # res_inf(g dx) = -[x^-1]_inf g: 1/den expands downward from x^{-dhi},
    # and q-degrees only grow
    tops = [hi for _, hi in spans if hi - dhi >= -1]
    if tops:
        inv_inf = den.recip_within({"x": down_win(-1 - max(tops), hi=dhi),
                                    "q": up_win(qspan)})
    at_inf = [num.mul_coeff(inv_inf, "x", -1) if hi - dhi >= -1 else zero
              for num, (_, hi) in zip(nums, spans)]
    # res_0(g dx) = +[y^-1] of q y^{-2} g(q/y) at y = infinity: on the
    # y = q/x chart all q-offsets from the leading monomial are >= 0
    on_y = {i: to_y_chart(num) for i, (num, (lo, _)) in
            enumerate(zip(nums, spans)) if lo - dlo <= -1}
    if on_y:
        den_y = to_y_chart(den)
        nyhi = max(_laurent_support(num_y, "y")[1] for num_y in on_y.values())
        qloy = min(0, *(_laurent_support(s, "q")[0]
                        for s in (den_y, *on_y.values())))
        inv_y = TruncSeries.monomial(
            {"q": 1, "y": -2}, {"q": exact_win(1, 1), "y": exact_win(-2, -2)}
        ) * den_y.recip_within(
            {"y": down_win(-2 - nyhi, hi=_laurent_support(den_y, "y")[1]),
             "q": up_win(qspan, lo=2 * qloy - qspan)})
    return [val - on_y[i].mul_coeff(inv_y, "y", -1) if i in on_y else val
            for i, val in enumerate(at_inf)]


def _gauss_invert(mat: list[list[ParamRat]]) -> list[list[ParamRat]]:
    n = len(mat)
    a = [row[:] + [PR.one() if i == j else PR.zero() for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[r][col].is_zero() and a[r][col].is_monomial():
                piv = r
                break
        if piv is None:
            raise SingularFiber("flat-chart Jacobian constant part singular")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inverse()
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [vr - f * vc for vr, vc in zip(a[r], a[col])]
    return [row[n:] for row in a]


class FlatChart:
    """tau(t) polynomials with the inverse Jacobian d t / d tau.

    Built from the exact binomial closed form (the residue route serves as
    its independent oracle in verify_flat_coordinates); the symbolic inverse
    is a jet of the requested degree, the numeric inverse is exact.
    """

    def __init__(self, k: int, m: int, degree: int):
        self.k = k
        self.m = m
        self.degree = degree
        N = k + m
        self.alphas = [("k", i) for i in range(1, k)] + [("k", 0)] + \
            [("m", j) for j in range(1, m)] + [("m", 0)]
        self.tnames = [tname(i) for i in range(1, N + 1)]
        taus_x = flat_coords_binomial(k, m)
        taus_y = flat_coords_binomial(m, k)
        rename = _retname_map(k, m)
        self.tau: dict = {}
        for (_side, i), ser in taus_x.items():
            self.tau[("k", i)] = ser
        # y-chart: feet exchanged (nu0 <-> nu1) and t-indices reflected
        for (_side, j), ser in taus_y.items():
            self.tau[("m", j)] = ser.rename(rename).map_coeffs(PR.swap_nu)
        self.jacobian = [[self.tau[alpha].derivative(tn)
                          for tn in self.tnames] for alpha in self.alphas]

    def dt_dtau_jet(self) -> list[list[TruncSeries]]:
        """J^{-1} as a jet in t to the chart's degree, indexed [t][alpha]."""
        n = len(self.alphas)
        group = frozenset(self.tnames)
        C = [[self.jacobian[r][c].coeff_at({}) for c in range(n)]
             for r in range(n)]
        Cinv = _gauss_invert(C)
        Nmat = [[(self.jacobian[r][c] - TruncSeries.scalar(C[r][c]))
                 .with_cap(group, self.degree)
                 for c in range(n)] for r in range(n)]
        CN = _mat_mul_scalar(Cinv, Nmat)
        term = [[TruncSeries.scalar(Cinv[r][c]) for c in range(n)]
                for r in range(n)]
        terms = [term]
        # N has t-degree >= 1, so the product past ``degree`` is all zero
        for _ in range(self.degree):
            term = _mat_mul_series(CN, term)
            term = [[(-1) * e for e in row] for row in term]
            if all(e.is_zero() for row in term for e in row):
                break
            terms.append(term)
        return [[sum_series(t[r][c] for t in terms) for c in range(n)]
                for r in range(n)]

    def dt_dtau_at(self, tvals: dict) -> list[list[ParamRat]]:
        """Exact J(t0)^{-1} at a rational parameter point."""
        n = len(self.alphas)
        point = {tname(i): Fraction(v) for i, v in tvals.items()}
        jac = [[_value_at(self.jacobian[r][c], point) for c in range(n)]
               for r in range(n)]
        return _gauss_invert(jac)


def _value_at(ser: TruncSeries, point: dict) -> ParamRat:
    """The value of a polynomial on hard windows with no caps at the
    rational ``point`` (variable -> value; a variable it lacks is 0), in
    one pass over its terms."""
    if ser.caps or not all(w.lo_hard and w.hi_hard
                           for w in ser.wins.values()):
        raise ValueError("a point value needs hard windows and no caps")
    vals = [point.get(v, 0) for v in ser.vars]
    total = PR.zero()
    for key, c in ser.terms.items():
        x = Fraction(1)
        for val, e in zip(vals, key):
            if e:
                x *= val ** e
        if x:
            total = total + c * x
    return total


def _mat_mul_scalar(A: list[list[ParamRat]], B: list[list[TruncSeries]]):
    n = len(A)
    return [[sum_series(B[r][c].scale(A[i][r]) for r in range(n))
             for c in range(n)] for i in range(n)]


def _mat_mul_series(A: list[list[TruncSeries]], B: list[list[TruncSeries]]):
    n = len(A)
    return [[sum_series(A[i][r] * B[r][c] for r in range(n))
             for c in range(n)] for i in range(n)]


def df_dt(sp: Superpotential, k: int, m: int, b_index: int) -> TruncSeries:
    """d f / d t_b as an exact Laurent polynomial in (x, q, t)."""
    N = k + m
    q = TruncSeries.from_poly("q", {1: 1})
    if 1 <= b_index <= k:
        return TruncSeries.from_poly("x", {k - b_index: 1})
    if k + 1 <= b_index <= N - 1:
        j = b_index - k
        return (q ** j) * TruncSeries.from_poly("x", {-j: 1})
    # t_N: q-dependence q = Q e^{t_N} plus the log-term nu0
    wins = sp.rational.wins
    qi = sp.rational.vars.index("q")
    return sum_series((TruncSeries.monomial(dict(zip(sp.rational.vars, key)),
                                            wins, coeff=c * key[qi])
                       for key, c in sp.rational.terms.items() if key[qi]),
                      TruncSeries.scalar(PR.nu0()))


def _pairing_vectors(k: int, m: int, tvals: dict | None, degree: int):
    """(chart, [v_alpha], x^2 f'): v_alpha = sum_b (dt_b/dtau_alpha) df/dt_b
    for each flat direction alpha, the denominator of the residue pairing.

    The inverse Jacobian is a jet in t when ``tvals`` is None, and scalars
    at that rational point otherwise."""
    chart = FlatChart(k, m, degree)
    sp = superpotential(k, m, tvals, degree)
    n = len(chart.alphas)
    dfdt = [df_dt(sp, k, m, b + 1) for b in range(n)]
    fprime = sp.df_dx()
    if fprime.is_zero():
        raise SingularFiber("df/dx vanishes identically")
    den = TruncSeries.from_poly("x", {2: 1}) * fprime
    minv = chart.dt_dtau_jet() if tvals is None else chart.dt_dtau_at(tvals)
    v_alpha = [sum_series(dfdt[b] * w if tvals is None else dfdt[b].scale(w)
                          for b in range(n)
                          if not (w := minv[b][a_pos]).is_zero())
               for a_pos in range(n)]
    return chart, v_alpha, den


def residue_pairing_matrix(k: int, m: int, tvals: dict | None = None,
                           degree: int = 2) -> tuple[list, list, CheckReport]:
    """Full matrix (d/dtau^a, d/dtau^b) via residues; compared to eta.

    With ``tvals`` the check is exact at that rational parameter point;
    without, it is symbolic in t through jet degree ``degree``.
    """
    with CheckReport(name="mirror-pairing",
                     params={"k": k, "m": m, "degree": degree,
                             "t": "symbolic" if tvals is None else
                             {i: str(v) for i, v in tvals.items()}},
                     max_order_verified={"t_jet": degree if tvals is None
                                         else 0}) as rep:
        chart, v_alpha, den = _pairing_vectors(k, m, tvals, degree)
        coh = Cohomology(k, m)
        n = len(chart.alphas)
        pairs = [(a_pos, b_pos) for a_pos in range(n)
                 for b_pos in range(a_pos, n)]
        vals = residue_both_ends([v_alpha[a_pos] * v_alpha[b_pos]
                                  for a_pos, b_pos in pairs], den)
        matrix = [[] for _ in range(n)]
        for (a_pos, b_pos), val in zip(pairs, vals):
            matrix[a_pos].append(val)
            want = coh.pairing(SectorIndex(*chart.alphas[a_pos]),
                               SectorIndex(*chart.alphas[b_pos]))
            rep.compare(val, TruncSeries.scalar(want, val.wins),
                        {"alpha": str(chart.alphas[a_pos]),
                         "beta": str(chart.alphas[b_pos])})
    return matrix, chart.alphas, rep


def verify_residue_pairing(k: int, m: int, degree: int = 2, seed: int = 0,
                           points: int = 3) -> list[CheckReport]:
    """The residue pairing against eta: symbolic in t through jet
    ``degree``, then exactly at ``points`` random rational t drawn from
    ``seed``."""
    reps = [residue_pairing_matrix(k, m, None, degree)[2]]
    rng = random.Random(seed)
    for i in range(points):
        tv = {j: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for j in range(1, k + m + 1)}
        rep = residue_pairing_matrix(k, m, tv, degree)[2]
        rep.name = f"mirror-pairing-point-{i}"
        rep.params["seed"] = seed
        reps.append(rep)
    return reps


# ---------------------------------------------------------------------------
# tangent algebra
# ---------------------------------------------------------------------------


def tangent_relation(k: int, m: int, tvals: dict) -> TruncSeries:
    """The cleared relation x^{m+1} d_x f_t of the tangent algebra at a
    rational parameter point.  At the small slice t = (0,..,0,t_N) it is
    k x^{k+m} + (nu1-nu0) x^m - m q^m."""
    return TruncSeries.from_poly("x", {m + 1: 1}) * \
        superpotential(k, m, tvals).df_dx()


def tangent_reduce(k: int, m: int, rel: TruncSeries,
                   poly: TruncSeries) -> TruncSeries:
    """Normal form modulo <rel>, rel = ``tangent_relation(k, m, t)``:
    support x^0..x^{k+m-1}.  Euclidean reduction works from both ends of
    the Laurent range for any t, since rel keeps its unit top coefficient k
    and its monomial constant term -m q^m."""
    out = poly
    guard = 0
    while "x" in out.vars and out.terms:
        guard += 1
        if guard > 10000:
            raise SingularFiber("reduction did not terminate")
        xi = out.vars.index("x")
        xs = [key[xi] for key in out.terms]
        hi, lo = max(xs), min(xs)
        if hi >= k + m:
            lead = out.coeff_of("x", hi)
            out = out - lead.scale(Fraction(1, k)) * rel * \
                TruncSeries.from_poly("x", {hi - (k + m): 1})
        elif lo < 0:
            lead = out.coeff_of("x", lo)
            quot = lead.shift_exponent("q", -m).scale(Fraction(-1, m))
            out = out - quot * rel * TruncSeries.from_poly("x", {lo: 1})
        else:
            break
    return out


def phi_poly(k: int, m: int, alpha: SectorIndex) -> TruncSeries:
    """The Laurent polynomial of the sector ``alpha``: x^i and (q/x)^i for
    i > 0; the untwisted ones k x^k / (nu0 - nu1) and
    m (q/x)^m / (nu1 - nu0)."""
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


def verify_tangent_product(k: int, m: int) -> CheckReport:
    """Tangent-algebra products at the small slice match the quantum ring."""
    with CheckReport(name="tangent-product", params={"k": k, "m": m}) as rep:
        ring = QuantumRing(k, m)
        rel = tangent_relation(k, m, {i: 0 for i in range(1, k + m)})

        def normal_form(poly: TruncSeries) -> TruncSeries:
            return tangent_reduce(k, m, rel, poly)

        # the ring's y is q/x on the x-chart
        y_on_x = TruncSeries.from_poly("q", {1: 1}) * \
            TruncSeries.from_poly("x", {-1: 1})
        sectors = Cohomology(k, m).sectors()
        ring_elems = {a: ring.from_sector(a) for a in sectors}
        for a in sectors:
            for b in sectors:
                lhs = normal_form(phi_poly(k, m, a) * phi_poly(k, m, b))
                rhs = normal_form(ring.mul(ring_elems[a], ring_elems[b])
                                  .subst("y", y_on_x))
                if not rep.compare(lhs, rhs, {"a": a.label(k, m),
                                              "b": b.label(k, m)}):
                    return rep
        # unit acts trivially
        unit = phi_poly(k, m, SectorIndex("k", 0)) + \
            phi_poly(k, m, SectorIndex("m", 0))
        for a in sectors:
            phi = phi_poly(k, m, a)
            if not rep.compare(normal_form(unit * phi), normal_form(phi),
                               {"a": a.label(k, m), "b": "unit"}):
                break
    return rep


# ---------------------------------------------------------------------------
# classical limit data and stationary-phase polynomials
# ---------------------------------------------------------------------------


def classical_critical_data(k: int, m: int) -> CheckReport:
    """At Q = 0 each foot (n, val) in ((k, nu), (m, nubar)) of the
    small-slice superpotential has critical points x^n = val and Hessian
    n^2 val there, in the unimodular coordinate: exactly,

        x f'(x) = n (x^n - val)  and  (x d_x)^2 f = n^2 val + n x f'(x).

    The m-foot is read on the y-chart y = q/x, where the small-slice
    superpotential is the one with the feet exchanged and nu0 <-> nu1."""
    with CheckReport(name="classical-critical",
                     params={"k": k, "m": m}) as rep:
        small = {i: 0 for i in range(1, k + m)}
        x = TruncSeries.from_poly("x", {1: 1})
        feet = ((k, PR.nu(k), superpotential(k, m, small).df_dx()),
                (m, PR.nubar(m), superpotential(m, k, small).df_dx()
                 .map_coeffs(PR.swap_nu)))
        for n, val, fprime in feet:
            x_f1 = (x * fprime).coeff_of("q", 0)
            crit = TruncSeries.from_poly("x", {n: n, 0: -n * val})
            for name, got, want in (
                    ("x f'", x_f1, crit),
                    ("(x d_x)^2 f", x * x_f1.derivative("x"),
                     crit.scale(n) + val * (n * n))):
                if not rep.compare(got, want, {"foot": n, "identity": name}):
                    return rep
    return rep


def stationary_phase_A(n: int) -> dict[int, Fraction]:
    """A_n(s) = B_n(1-s)/(n(n-1)) as {power of s: coefficient}."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    bn = bernoulli_poly(n)
    out: dict[int, Fraction] = {}
    # substitute x -> 1 - s
    for e, c in bn.items():
        # (1-s)^e
        for j in range(e + 1):
            out[j] = out.get(j, Fraction(0)) + c * comb(e, j) * (-1) ** j
    scale = Fraction(1, n * (n - 1))
    return {e: c * scale for e, c in out.items() if c}


def classical_R(k: int, j: int, n_max: int, barred: bool = False,
                m: int | None = None) -> tuple[Fraction, TruncSeries]:
    """The diagonal classical-limit factor:

        g_{alpha i} exp( sum_{n>=2} A_n(j/foot) (-nu)^{-n+1} z^{n-1} )

    Returns (the fractional nu-power j/foot - 1/2 of the prefactor, the
    exponential series R = 1 + O(z)).  The scalar part of g_{alpha i} is
    g_alpha, and nu means nubar on the barred side.
    """
    foot = k
    nu = PR.nubar(m) if barred else PR.nu(k)
    zwin = up_win(n_max - 1)
    s = Fraction(j, foot)

    def term(n):
        val = sum((c * s ** e for e, c in stationary_phase_A(n).items()),
                  Fraction(0))
        coeff = PR.rational(val) * ((-1 * nu).inverse() ** (n - 1))
        return TruncSeries.var("z", zwin, power=n - 1, coeff=coeff)

    arg = sum_series(map(term, range(2, n_max + 1)),
                     TruncSeries.scalar(0, {"z": zwin}))
    return (s - Fraction(1, 2), arg.exp())


def verify_a_polynomials(n: int) -> CheckReport:
    """A_2' = s - 1/2, A_j(1) = B_j/(j(j-1)) and A_{j+1}' = -(j-1) A_j for
    2 <= j <= n."""
    with CheckReport(name="a-polynomials", params={"n": n}) as rep:
        rep.compare(poly_derivative(stationary_phase_A(2)),
                    {1: Fraction(1), 0: Fraction(-1, 2)},
                    {"n": 2, "identity": "A_2'"})
        for j in range(2, n + 1):
            an = stationary_phase_A(j)
            if not rep.compare(sum(an.values(), Fraction(0)),
                               bernoulli_number(j) / (j * (j - 1)),
                               {"n": j, "identity": "A_n(1)"}):
                break
            if j < n and not rep.compare(
                    poly_derivative(stationary_phase_A(j + 1)),
                    {e: -(j - 1) * c for e, c in an.items()},
                    {"n": j, "identity": "A_{n+1}'"}):
                break
    return rep


def verify_classical_r(k: int, m: int) -> CheckReport:
    """R = 1 + O(z) for the factors (k, 1), (k, k) and the barred (m, 1)."""
    with CheckReport(name="classical-r", params={"k": k, "m": m}) as rep:
        for (foot, j, barred) in [(k, 1, False), (k, k, False), (m, 1, True)]:
            power, series = classical_R(foot, j, 8, barred=barred, m=m)
            if not rep.compare(series.coeff_at({}), PR.one(),
                               {"foot": foot, "j": j, "z": 0}):
                break
    return rep


def gaussian_moment_oracle(n_max: int) -> CheckReport:
    """Machine stationary-phase expansion of the model integral.

    Substitute t = nu(1+u) in int e^{(t - nu log t)/z} t^{s-1} dt, expand the
    non-Gaussian part, integrate with the Laplace moments (odd -> 0,
    u^{2p} -> (2p-1)!! (-w)^p with w = z/nu), and compare the log of the
    normalized series against sum A_n(s) (-w)^{n-1}.
    """
    with CheckReport(name="gaussian-moment-oracle", params={"n": n_max},
                     max_order_verified={"w": n_max - 1}) as rep:
        U = 6 * n_max + 2
        uw = up_win(U)
        vw = up_win(2 * n_max + 2)   # v counts 1/w powers
        sw_deg = U + 1
        # u - log(1+u) = sum_{r>=2} (-1)^r u^r / r; the r = 2 term is the
        # Gaussian kernel, the rest exponentiates against 1/w
        arg = sum_series((TruncSeries.monomial(
            {"u": r, "v": 1}, {"u": uw, "v": vw}, coeff=Fraction((-1) ** r, r))
            for r in range(3, U + 1)),
            TruncSeries.scalar(0, {"u": uw, "v": vw}))
        F = arg.exp()
        # times (1+u)^{s-1} with symbolic s: sum_c binom(s-1, c) u^c
        swin = up_win(sw_deg)
        spoly = TruncSeries.var("s", swin) - 1

        def binomial_terms():
            binom_c = TruncSeries.scalar(1, {"s": swin})
            fact = Fraction(1)
            for c in range(0, U + 1):
                if c:
                    binom_c = binom_c * (spoly - (c - 1))
                    fact *= c
                yield binom_c.scale(Fraction(1, fact)) * \
                    TruncSeries.monomial({"u": c}, {"u": uw})

        S = sum_series(binomial_terms(),
                       TruncSeries.scalar(0, {"s": swin, "u": uw}))
        # moment integration: u^a v^b -> (a-1)!! (-1)^{a/2} w^{a/2-b}.  It
        # reads a even and a/2 - b in [0, n_max - 1], so of F * S only the
        # pairs of F's terms with such a b and u-exponents summing to a are
        # formed
        wwin = up_win(n_max - 1)

        def moments():
            mom = Fraction(1)
            for a in range(0, U + 1, 2):
                if a:
                    mom *= 1 - a
                part = F.below_slice("v", min(a // 2, vw.hi) + 1) \
                    .hard_slice("v", a // 2 - n_max + 1)
                coeff = part.mul_coeff(S, "u", a)
                for key, c in coeff.terms.items():
                    exps = dict(zip(coeff.vars, key))
                    yield TruncSeries.monomial(
                        {"w": a // 2 - exps["v"], "s": exps.get("s", 0)},
                        {"w": wwin, "s": swin}, coeff=c * mom)

        logR = sum_series(moments(),
                          TruncSeries.scalar(0, {"w": wwin, "s": swin})).log()
        want = sum_series((TruncSeries.monomial(
            {"w": n - 1, "s": e}, {"w": wwin, "s": swin},
            coeff=c * (-1) ** (n - 1))
            for n in range(2, n_max + 1)
            for e, c in stationary_phase_A(n).items()),
            TruncSeries.scalar(0, {"w": wwin, "s": swin}))
        rep.compare(logR, want, {})
    return rep
