"""Quantized vertex operators, the y-variable change, and HQE evaluation.

Vertex operators are handled through their normal-ordered symbols: a
lambda-indexed family of creation linear forms (multiplication operators
eps^-1 q_n^alpha) and annihilation linear forms (derivations eps d/dq_n^alpha).
Symbol equality implies operator equality, so no Fock-space action is needed
for the operator identities; a small Fock evaluator is provided for the
residue checks, acting on truncated polynomial elements.

Fock variables carry the dilaton-shift convention (the series live around
-1z, i.e. q_1^{0/k} and q_1^{0/m} are shifted by 1); the shift is metadata
for interpreting elements and never enters the symbol algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import frac_factorial, symmetric_e, symmetric_h
from .cohomology import Cohomology, SectorIndex
from .rationals import ParamRat, PR
from .reports import CheckReport, Stopwatch
from .series import TruncSeries, VarWindow, down_win, exact_win, up_win


@dataclass
class VertexSymbol:
    """Normal-ordered symbol of exp(f-hat).

    creation[p][(L, alpha)]   = coefficient of eps^-1 q_L^alpha at lambda^p
    annihilation[p][(l, alpha)] = coefficient of eps d/dq_l^alpha at lambda^p
    """
    creation: dict = field(default_factory=dict)
    annihilation: dict = field(default_factory=dict)

    def add_creation(self, p: int, key, c: ParamRat):
        if c.is_zero():
            return
        slot = self.creation.setdefault(p, {})
        cur = slot.get(key)
        s = c if cur is None else cur + c
        if s.is_zero():
            slot.pop(key, None)
        else:
            slot[key] = s

    def add_annihilation(self, p: int, key, c: ParamRat):
        if c.is_zero():
            return
        slot = self.annihilation.setdefault(p, {})
        cur = slot.get(key)
        s = c if cur is None else cur + c
        if s.is_zero():
            slot.pop(key, None)
        else:
            slot[key] = s

    def cleaned(self) -> "VertexSymbol":
        return VertexSymbol(
            {p: d for p, d in self.creation.items() if d},
            {p: d for p, d in self.annihilation.items() if d})

    def scaled(self, c) -> "VertexSymbol":
        out = VertexSymbol()
        for p, slot in self.creation.items():
            for key, v in slot.items():
                out.add_creation(p, key, v * c)
        for p, slot in self.annihilation.items():
            for key, v in slot.items():
                out.add_annihilation(p, key, v * c)
        return out

    def plus(self, other: "VertexSymbol") -> "VertexSymbol":
        out = VertexSymbol()
        for sym in (self, other):
            for p, slot in sym.creation.items():
                for key, v in slot.items():
                    out.add_creation(p, key, v)
            for p, slot in sym.annihilation.items():
                for key, v in slot.items():
                    out.add_annihilation(p, key, v)
        return out

    def eq_report(self, other: "VertexSymbol"):
        for kind in ("creation", "annihilation"):
            a = getattr(self, kind)
            b = getattr(other, kind)
            for p in sorted(set(a) | set(b)):
                sa = a.get(p, {})
                sb = b.get(p, {})
                for key in sorted(set(sa) | set(sb), key=str):
                    va = sa.get(key, PR.zero())
                    vb = sb.get(key, PR.zero())
                    if not (va - vb).is_zero():
                        return {"kind": kind, "lambda_power": p,
                                "slot": str(key), "lhs": str(va),
                                "rhs": str(vb)}
        return None


def build_gamma(k: int, m: int, sign: int, barred: bool,
                mode_max: int, depth: int = 8) -> VertexSymbol:
    """Symbol of the exponent of Gamma^{sign} (or its barred partner).

    Annihilation entries are exact; creation entries are the z^-1-expansion
    of the rational mode coefficients, kept through q-index <= depth.
    The barred operator is the same construction with the feet exchanged.
    """
    kk, mm = (m, k) if barred else (k, m)
    side = "m" if barred else "k"
    coh = Cohomology(k, m)
    nu = PR.nubar(m) if barred else PR.nu(k)
    out = VertexSymbol()
    sgn = PR.rational(sign)
    # annihilation side: vop summands with n >= 0
    n = 0
    while True:
        base_power = -(n + 1) * kk
        if base_power + kk < -mode_max:
            break
        for i in range(1, kk + 1):
            p = base_power + i
            if not (-mode_max <= p <= mode_max):
                continue
            alpha = SectorIndex(side, (kk - i) % kk)
            # prod_{l=1}^{n} (nu + (-i/kk + l) z), a degree-n z-polynomial
            poly = TruncSeries.from_poly("z", {0: 1})
            for l in range(1, n + 1):
                poly = poly * TruncSeries.from_poly(
                    "z", {0: nu, 1: Fraction(-i, kk) + l})
            for (e,), c in poly.terms.items():
                out.add_annihilation(p, (e, alpha), c * sgn)
        n += 1
    # creation side: n = -N-1, lambda^{N kk + i}
    N = 0
    while N * kk + 1 <= mode_max:
        for i in range(1, kk + 1):
            p = N * kk + i
            if p > mode_max:
                continue
            galpha = coh.g(SectorIndex(side, i % kk))
            denom = TruncSeries.from_poly("z", {0: 1})
            for l in range(0, N + 1):
                denom = denom * TruncSeries.from_poly(
                    "z", {0: nu, 1: -(Fraction(i, kk) + l)})
            series = denom.recip_within({"z": down_win(-depth - 1, hi=0)})
            series = series.scale(galpha)
            for (e,), c in series.terms.items():
                L = -e - 1
                if 0 <= L <= depth:
                    # phi (−z)^{-L-1} quantizes to -eps^-1 q_L; the vector is
                    # g_alpha 1^{i/kk}, so the slot is q_L^{i/kk}
                    coeff = c * ((-1) ** (L + 1))
                    out.add_creation(p, (L, SectorIndex(side, i % kk)),
                                     -coeff * sgn)
        N += 1
    return out.cleaned()


# ---------------------------------------------------------------------------
# change of variables q -> y
# ---------------------------------------------------------------------------


def a_matrix_entry(k: int, i: int, N: int, L: int, barred: bool = False) -> ParamRat:
    """a_{N,L} in y_{Nk+i} = sum_L a_{N,L} q_L^{i/k}, via the h-polynomials."""
    if L < N:
        return PR.zero()
    nu = PR.nubar(k) if barred else PR.nu(k)
    coh_g = PR.rational(Fraction(1, k)) if i % k else _g_untwisted(barred)
    args = [Fraction(k, i + a * k) for a in range(N + 1)]  # 1/(i/k + a)
    h = symmetric_h(L - N, [PR.rational(x) for x in args])
    return (nu ** (L - N)) * h * coh_g / frac_factorial(Fraction(N * k + i, k))


def _g_untwisted(barred: bool) -> ParamRat:
    return (-PR.diff()).inverse() if barred else PR.diff().inverse()


def a_matrix_row_generating(k: int, i: int, N: int, L_max: int,
                            barred: bool = False) -> list[ParamRat]:
    """The same row read off from g / prod_{l=0}^N (nu - (l + i/k) w)."""
    nu = PR.nubar(k) if barred else PR.nu(k)
    denom = TruncSeries.from_poly("w", {0: 1})
    for l in range(N + 1):
        denom = denom * TruncSeries.from_poly(
            "w", {0: nu, 1: -(Fraction(i, k) + l)})
    series = denom.recip_within({"w": down_win(-L_max - 2, hi=0)})
    series = series.scale(_g_untwisted(barred) if i % k == 0
                          else PR.rational(Fraction(1, k)))
    out = []
    for L in range(L_max + 1):
        c = series.terms.get((-L - 1,), PR.zero())
        out.append(c * ((-1) ** (L + 1)))
    return out


def verify_change_matrix(k: int, N_max: int, L_max: int) -> CheckReport:
    """The h-polynomial display of the change equals its generating series."""
    with Stopwatch() as sw:
        rep = CheckReport(name="change-matrix",
                          params={"k": k, "N_max": N_max, "L_max": L_max},
                          max_order_verified={"N": N_max, "L": L_max})
        for i in range(1, k + 1):
            for N in range(N_max + 1):
                row = a_matrix_row_generating(k, i, N, L_max)
                for L in range(L_max + 1):
                    want = a_matrix_entry(k, i, N, L)
                    if not (row[L] - want).is_zero():
                        rep.fail({"i": i, "N": N, "L": L}, str(row[L]), str(want))
                        rep.elapsed_ms = sw.ms
                        return rep
    rep.elapsed_ms = sw.ms
    return rep


def verify_lemma_inv(k: int, L_max: int) -> CheckReport:
    """forward(h) o inverse(e) = identity: the Kronecker-delta sums.

    For every 1 <= i <= k and 0 <= N <= L <= L_max,
    sum_n e_{L-n}(1/(i/k)...1/(i/k+L-1)) h_{n-N}(1/(i/k)...1/(i/k+N)) = delta,
    and the L > N case vanishes as the nu^{L-N} coefficient of a polynomial
    of lower degree.
    """
    with Stopwatch() as sw:
        rep = CheckReport(name="lemma-inv", params={"k": k, "L_max": L_max},
                          max_order_verified={"L": L_max})
        for i in range(1, k + 1):
            base = Fraction(i, k)
            for L in range(L_max + 1):
                e_args = [PR.rational(1 / (base + a)) for a in range(L)]
                for N in range(L + 1):
                    h_args = [PR.rational(1 / (base + a)) for a in range(N + 1)]
                    acc = PR.zero()
                    for n in range(N, L + 1):
                        acc = acc + symmetric_e(L - n, e_args) * \
                            symmetric_h(n - N, h_args)
                    want = PR.one() if L == N else PR.zero()
                    if not (acc - want).is_zero():
                        rep.fail({"i": i, "N": N, "L": L}, str(acc), str(want))
                        rep.elapsed_ms = sw.ms
                        return rep
                    if L > N:
                        # generating-product route: the product is a polynomial
                        # of degree L-N-1 in nu, so its nu^{L-N} slot vanishes
                        prod = TruncSeries.from_poly("nu", {0: 1})
                        for a in range(L):
                            prod = prod * TruncSeries.from_poly(
                                "nu", {0: 1, 1: PR.rational(1 / (base + a))})
                        inv = TruncSeries.from_poly("nu", {0: 1})
                        for a in range(N + 1):
                            inv = inv * TruncSeries.from_poly(
                                "nu", {0: 1, 1: PR.rational(1 / (base + a))})
                        ratio = prod * inv.recip_within(
                            {"nu": up_win(L - N + 1)})
                        top = ratio.terms.get((L - N,), PR.zero())
                        if not top.is_zero():
                            rep.fail({"i": i, "N": N, "L": L, "route": "generating"},
                                     str(top), "0")
                            rep.elapsed_ms = sw.ms
                            return rep
    rep.elapsed_ms = sw.ms
    return rep


def verify_theorem2_transform(k: int, m: int, mode_max: int,
                              L_pad: int = 4, negate: bool = False) -> list[CheckReport]:
    """Every vertex mode, rewritten in the flow variables, matches the
    2-Toda form: lambda^{-M} modes give (1/M) eps d/dy_M, lambda^{+M} modes
    give -eps^-1 y_M, and the lambda^0 mode is the untwisted translation.

    Both the unbarred (y) and barred (y-bar) sides are checked.
    """
    out = []
    for barred in (False, True):
        kk = m if barred else k
        with Stopwatch() as sw:
            rep = CheckReport(
                name="theorem2-" + ("barred" if barred else "unbarred"),
                params={"k": k, "m": m, "modes": mode_max, "L_pad": L_pad},
                max_order_verified={"lambda": mode_max})
            gamma = build_gamma(k, m, +1, barred, mode_max,
                                depth=mode_max // kk + L_pad)
            disc = _check_modes(gamma, k, m, barred, mode_max, L_pad, negate)
            if disc is not None:
                rep.fail(disc, disc.get("lhs", "?"), disc.get("rhs", "?"))
        rep.elapsed_ms = sw.ms
        out.append(rep)
    return out


def _check_modes(gamma: VertexSymbol, k: int, m: int, barred: bool,
                 mode_max: int, L_pad: int, negate: bool = False):
    kk = m if barred else k
    side = "m" if barred else "k"
    nu = PR.nubar(m) if barred else PR.nu(k)
    coh = Cohomology(k, m)
    # negative modes: coefficient of eps d/dy_M must be 1/M
    for M in range(1, mode_max + 1):
        p = -M
        slot = gamma.annihilation.get(p, {})
        # transform sum_l c_{l,alpha} eps d/dq_l -> sum_N (...) eps d/dy
        y_coeff: dict[int, ParamRat] = {}
        for (l, alpha), c in slot.items():
            i = alpha.i if alpha.i else kk          # q-variables q^{i/kk}, i=kk for untwisted
            for N in range(l + 1):
                a = a_matrix_entry(kk, i, N, l, barred=barred)
                if a.is_zero():
                    continue
                idx = N * kk + i
                cur = y_coeff.get(idx, PR.zero()) + c * a
                if cur.is_zero():
                    y_coeff.pop(idx, None)
                else:
                    y_coeff[idx] = cur
        want = {M: PR.rational(Fraction(1, M))}
        if negate and M == 1:
            want = {M: PR.rational(Fraction(1, M + 1))}
        for idx in sorted(set(y_coeff) | set(want)):
            got = y_coeff.get(idx, PR.zero())
            expect = want.get(idx, PR.zero())
            if not (got - expect).is_zero():
                return {"mode": p, "flow_index": idx, "lhs": str(got),
                        "rhs": str(expect), "side": side}
    # lambda^0 mode: exactly the untwisted translation eps d/dq_0
    slot = gamma.annihilation.get(0, {})
    want_key = (0, SectorIndex(side, 0))
    for key, c in slot.items():
        expect = PR.one() if key == want_key else PR.zero()
        if not (c - expect).is_zero():
            return {"mode": 0, "slot": str(key), "lhs": str(c),
                    "rhs": str(expect), "side": side}
    if want_key not in slot:
        return {"mode": 0, "slot": str(want_key), "lhs": "0", "rhs": "1",
                "side": side}
    # positive modes: creation entries must match -eps^-1 y_{N kk + i}
    for p in range(1, mode_max + 1):
        slot = gamma.creation.get(p, {})
        i = p % kk if p % kk else kk
        N = (p - i) // kk
        for (L, alpha), c in slot.items():
            expect_alpha = SectorIndex(side, i % kk)
            if alpha != expect_alpha:
                return {"mode": p, "slot": str((L, alpha)), "lhs": str(c),
                        "rhs": "0", "side": side}
            want = -a_matrix_entry(kk, i, N, L, barred=barred)
            if not (c - want).is_zero():
                return {"mode": p, "slot": str((L, alpha)), "lhs": str(c),
                        "rhs": str(want), "side": side}
        for L in range(N, N + L_pad + 1):
            key = (L, SectorIndex(side, i % kk))
            if key not in slot:
                want = a_matrix_entry(kk, i, N, L, barred=barred)
                if not want.is_zero():
                    return {"mode": p, "slot": str(key), "lhs": "0",
                            "rhs": str(-want), "side": side}
    return None


# ---------------------------------------------------------------------------
# symplectic pairing of symbols (commutation factors)
# ---------------------------------------------------------------------------


def commutation_factor(f: VertexSymbol, g: VertexSymbol) -> dict[int, ParamRat]:
    """Omega(f, g) per lambda-power: sum f_annih * g_creation - g_annih * f_creation."""
    out: dict[int, ParamRat] = {}
    for pa, slot_a in f.annihilation.items():
        for pc, slot_c in g.creation.items():
            acc = PR.zero()
            for key, c in slot_a.items():
                other = slot_c.get(key)
                if other is not None:
                    acc = acc + c * other
            if not acc.is_zero():
                p = pa + pc
                cur = out.get(p, PR.zero()) + acc
                if cur.is_zero():
                    out.pop(p, None)
                else:
                    out[p] = cur
    for pa, slot_a in g.annihilation.items():
        for pc, slot_c in f.creation.items():
            acc = PR.zero()
            for key, c in slot_a.items():
                other = slot_c.get(key)
                if other is not None:
                    acc = acc + c * other
            if not acc.is_zero():
                p = pa + pc
                cur = out.get(p, PR.zero()) - acc
                if cur.is_zero():
                    out.pop(p, None)
                else:
                    out[p] = cur
    return out


def translation_symbol(side: str, c=1) -> VertexSymbol:
    """The symbol of c * 1-hat_{0/side} = c eps d/dq_0^{0/side}."""
    sym = VertexSymbol()
    sym.add_annihilation(0, (0, SectorIndex(side, 0)), PR.rational(c))
    return sym


# ---------------------------------------------------------------------------
# Fock elements and residue evaluation
# ---------------------------------------------------------------------------


POINT_LAM = exact_win(0, 0)


def fock_var(leg: str, n: int, alpha: SectorIndex) -> str:
    return f"q{leg}{n}_{alpha.side}{alpha.i}"


def flow_var(leg: str, barred: bool, n: int, diff: bool = False) -> str:
    base = "w" if barred else "y"
    return f"{base}{'d' if diff else leg}{n}"


def miwa_part(f: TruncSeries, sign: int, barred: bool, leg: str,
              depth: int) -> TruncSeries:
    """exp(-sign * sum (lam^{-n}/n) eps d_{y_n}) f — exact on a polynomial
    jet, producing nonpositive lambda-powers."""
    def apply_a(g: TruncSeries) -> TruncSeries:
        acc = None
        for n in range(1, depth + 1):
            name = flow_var(leg, barred, n)
            if name not in g.wins:
                continue
            d = g.derivative(name)
            if d.is_zero():
                continue
            term = d.shift_exponent("eps", 1).scale(Fraction(-sign, n))
            term = term * TruncSeries.from_poly("lam", {-n: 1})
            acc = term if acc is None else acc + term
        if acc is None:
            return TruncSeries.scalar(0) * g
        return acc

    total = f + TruncSeries.scalar(0, {"lam": POINT_LAM})
    power = total
    j = 0
    fact = 1
    while True:
        j += 1
        fact *= j
        power = apply_a(power)
        if power.is_zero():
            break
        total = total + power.scale(Fraction(1, fact))
    return total


def lam_depth(ser: TruncSeries) -> int:
    if "lam" not in ser.vars:
        return 0
    i = ser.vars.index("lam")
    return -min((key[i] for key in ser.terms), default=0)


def mult_part(f: TruncSeries, miwa: TruncSeries, sign: int, barred: bool,
              leg: str, depth: int, eps_win: VarWindow,
              span: int) -> TruncSeries:
    """Multiply by exp(sign * sum (y_n/eps) lam^n) expanded to the given
    lambda-span (recorded as a soft lambda-top)."""
    lam_up = VarWindow(0, span, True, False)
    arg = None
    for n in range(1, depth + 1):
        name = flow_var(leg, barred, n)
        w = f._win(name) if name in f.wins else exact_win(0, 0)
        win = VarWindow(w.lo, max(w.hi, 1), w.lo_hard, w.hi_hard, w.den)
        t = TruncSeries.monomial({name: 1, "eps": -1, "lam": n},
                                 {name: win, "eps": eps_win, "lam": lam_up},
                                 coeff=sign)
        arg = t if arg is None else arg + t
    return miwa * arg.exp()


def toda_hqe_eval(tau: "TauJet", n: int, l: int, depth: int,
                  eps_win: VarWindow, lam_span: int | None = None) -> TruncSeries:
    """The lambda-residue of the bilinear form at the pair (n, l):

        res [ lam^{l-n} (G+ tau_l)(G- tau_{n+1})
              - (Q/lam)^{l-n} (Gbar- tau_{l+1})(Gbar+ tau_n) ] dlam/lam,

    with independent flow variables on the two legs.  Returns the residue
    as a series; the tau family satisfies the equations iff it vanishes.
    """
    from .toda import yname, ybname  # local import avoids a cycle
    extra = abs(n - l) + 2 if lam_span is None else lam_span

    def leg_series(r: int, leg: str) -> TruncSeries:
        shifted = tau.shifted(r, eps_win)
        names = {}
        for j in range(1, tau.ytimes + 1):
            names[yname(j)] = flow_var(leg, False, j)
        for j in range(1, tau.ybtimes + 1):
            names[ybname(j)] = flow_var(leg, True, j)
        return _rename(shifted, names)

    m1a = miwa_part(leg_series(l, "a"), +1, False, "a", depth)
    m1b = miwa_part(leg_series(n + 1, "b"), -1, False, "b", depth)
    m2a = miwa_part(leg_series(l + 1, "a"), -1, True, "a", depth)
    m2b = miwa_part(leg_series(n, "b"), +1, True, "b", depth)
    # spans sized so every lambda-pairing against the partner's hard bottom
    # is reachable: a_p pairs with b_{shift - p}
    s1 = l - n
    span1 = lam_depth(m1a) + lam_depth(m1b) + abs(s1) + extra
    ga = mult_part(leg_series(l, "a"), m1a, +1, False, "a", depth, eps_win,
                   span1)
    gb = mult_part(leg_series(n + 1, "b"), m1b, -1, False, "b", depth,
                   eps_win, span1)
    term1 = _lam_zero_of_product(ga, gb, s1)
    s2 = n - l
    span2 = lam_depth(m2a) + lam_depth(m2b) + abs(s2) + extra
    gab = mult_part(leg_series(l + 1, "a"), m2a, -1, True, "a", depth,
                    eps_win, span2)
    gbb = mult_part(leg_series(n, "b"), m2b, +1, True, "b", depth, eps_win,
                    span2)
    term2 = _lam_zero_of_product(gab, gbb, s2).shift_exponent("Q", l - n)
    resid = term1 - term2
    # Hirota substitution: leg a = s + d, leg b = s - d
    for j in range(1, depth + 1):
        for barred in (False, True):
            s_v = flow_var("s", barred, j)
            d_v = flow_var("", barred, j, diff=True)
            sw = VarWindow(0, 2 * depth, True, False)
            splus = TruncSeries.var(s_v, sw) + TruncSeries.var(d_v, sw)
            sminus = TruncSeries.var(s_v, sw) - TruncSeries.var(d_v, sw)
            a_v = flow_var("a", barred, j)
            b_v = flow_var("b", barred, j)
            if a_v in resid.wins:
                resid = resid.subst(a_v, splus)
            if b_v in resid.wins:
                resid = resid.subst(b_v, sminus)
    return resid


def _lam_zero_of_product(a: TruncSeries, b: TruncSeries, shift: int) -> TruncSeries:
    """[lam^0] of (a * b * lam^shift), summed over matching lambda-pairs.

    Both factors have hard lambda-bottoms (exact Miwa parts), so pairings
    outside either declared top are provably zero.
    """
    ia = a.vars.index("lam")
    ib = b.vars.index("lam")
    lo_a = min((k[ia] for k in a.terms), default=0)
    lo_b = min((k[ib] for k in b.terms), default=0)
    if not a.wins["lam"].lo_hard or not b.wins["lam"].lo_hard:
        raise WindowUnderflow("lambda residue needs hard bottoms")
    total = None
    for p in range(lo_a, -shift - lo_b + 1):
        ca = a.coeff_of("lam", p)
        cb = b.coeff_of("lam", -shift - p)
        if ca.is_zero() or cb.is_zero():
            continue
        term = ca * cb
        total = term if total is None else total + term
    if total is None:
        total = a.coeff_of("lam", lo_a) * TruncSeries.scalar(0)
    return total


def _rename(ser: TruncSeries, names: dict) -> TruncSeries:
    from .mirror import _rename_vars
    return _rename_vars(ser, names)


def residual_bidegree(resid: TruncSeries, key) -> tuple[int, int]:
    """(unbarred, barred) flow-degree of a residual monomial."""
    du = dw = 0
    for v, e in zip(resid.vars, key):
        if v.startswith("y"):
            du += e
        elif v.startswith("w"):
            dw += e
    return du, dw


def toda_hqe_report(tau, n: int, l: int, depth: int, eps_win: VarWindow,
                    dcap: int = 2) -> CheckReport:
    """All-zero check of the (n, l) residue through flow-bidegree
    (dcap, dcap); jet errors above the declared degrees are reported as the
    verified boundary, not failures."""
    rep = CheckReport(name=f"toda-hqe-{n}-{l}",
                      params={"n": n, "l": l, "depth": depth,
                              "bidegree": [dcap, dcap]})
    with Stopwatch() as sw:
        resid = toda_hqe_eval(tau, n, l, depth, eps_win)
        offenders = []
        beyond = None
        for key in sorted(resid.terms):
            du, dw = residual_bidegree(resid, key)
            if du <= dcap and dw <= dcap:
                offenders.append((key, (du, dw)))
            else:
                beyond = (du, dw) if beyond is None else min(beyond, (du, dw))
        rep.max_order_verified = {"bidegree": [dcap, dcap],
                                  "first_jet_error_at": beyond}
        if offenders:
            key, bid = offenders[0]
            rep.fail({"at": str({v: e for v, e in zip(resid.vars, key) if e}),
                      "bidegree": list(bid)},
                     str(resid.terms[key]), "0")
    rep.elapsed_ms = sw.ms
    return rep


# ---------------------------------------------------------------------------
# the orbifold HQE evaluator on truncated Fock elements
# ---------------------------------------------------------------------------


def fock_one(eps_win: VarWindow) -> TruncSeries:
    return TruncSeries.scalar(1, {"eps": eps_win})


def apply_vertex(sym: VertexSymbol, elem: TruncSeries, leg: str,
                 eps_win: VarWindow, lam_span: int, qdeg_cap: int,
                 qvar_hi: int = 6) -> TruncSeries:
    """exp(creation) exp(annihilation) applied to a truncated Fock element."""
    lam_w = exact_win(-lam_span, lam_span)

    def apply_a(g: TruncSeries) -> TruncSeries:
        acc = None
        for p, slot in sym.annihilation.items():
            if abs(p) > lam_span:
                continue
            for (L, alpha), c in slot.items():
                name = fock_var(leg, L, alpha)
                if name not in g.wins:
                    continue
                d = g.derivative(name)
                if d.is_zero():
                    continue
                term = d.shift_exponent("eps", 1).scale(c)
                term = term * TruncSeries.from_poly("lam", {p: 1})
                acc = term if acc is None else acc + term
        if acc is None:
            return TruncSeries.scalar(0, {"lam": lam_w}) * g
        return acc

    total = elem + TruncSeries.scalar(0, {"lam": lam_w})
    j = 0
    fact = 1
    power = total
    while True:
        j += 1
        fact *= j
        power = apply_a(power)
        if power.is_zero():
            break
        total = total + power.scale(Fraction(1, fact))
    # creation exponential: declared q-variable windows with a group cap
    arg = None
    group = []
    for p, slot in sym.creation.items():
        if abs(p) > lam_span:
            continue
        for (L, alpha), c in slot.items():
            name = fock_var(leg, L, alpha)
            group.append(name)
            t = TruncSeries.monomial(
                {name: 1, "eps": -1, "lam": p},
                {name: VarWindow(0, qvar_hi, True, False),
                 "eps": eps_win, "lam": lam_w}, coeff=c)
            arg = t if arg is None else arg + t
    if arg is None:
        return total
    arg = arg.with_cap(group, qdeg_cap)
    return total * arg.exp()


def translate(elem: TruncSeries, leg: str, shifts: dict,
              eps_win: VarWindow) -> TruncSeries:
    """e^{c 1-hat_alpha}: shift q_0^alpha by c eps for each alpha."""
    out = elem
    for alpha, c in shifts.items():
        name = fock_var(leg, 0, alpha)
        if name not in out.wins:
            continue
        w = out.wins[name]
        repl = TruncSeries.var(name, w) + \
            TruncSeries.from_poly("eps", {1: c}).truncated({"eps": eps_win})
        out = out.subst(name, repl)
    return out


def hqe_residue_eval(k: int, m: int, d1: TruncSeries, d2: TruncSeries,
                     n: int, l: int, mode_max: int, eps_win: VarWindow,
                     qdeg_cap: int = 2, depth: int = 4) -> TruncSeries:
    """The lambda-residue of the orbifold bilinear form on d1 (x) d2.

    Vertex operators enter through their symbols with |mode| <= mode_max
    (mode_max = 0 strips them entirely); translations shift the untwisted
    q_0-slots per the (n, l)-bookkeeping.  Returns the residue series after
    the substitution q' = x + y, q'' = x - y.
    """
    lam_span = mode_max + abs(n - l) + 2
    k0 = SectorIndex("k", 0)
    m0 = SectorIndex("m", 0)
    legs1 = [translate(d1, "a", {k0: n + 1, m0: n}, eps_win),
             translate(d2, "b", {k0: l, m0: l + 1}, eps_win)]
    if mode_max > 0:
        ga = build_gamma(k, m, -1, False, mode_max, depth)
        gb = build_gamma(k, m, +1, False, mode_max, depth)
        a = apply_vertex(ga, legs1[0], "a", eps_win, lam_span, qdeg_cap)
        b = apply_vertex(gb, legs1[1], "b", eps_win, lam_span, qdeg_cap)
    else:
        lam_w = exact_win(-lam_span, lam_span)
        a = legs1[0] + TruncSeries.scalar(0, {"lam": lam_w})
        b = legs1[1] + TruncSeries.scalar(0, {"lam": lam_w})
    # [lam^0] of lam^{n-l} a b and of lam^{l-n} ab bb: only the lambda-pairs
    # that reach the residue are formed
    term1 = a.mul_coeff(b, "lam", l - n)
    if mode_max > 0:
        gab = build_gamma(k, m, +1, True, mode_max, depth)
        gbb = build_gamma(k, m, -1, True, mode_max, depth)
        ab = apply_vertex(gab, legs1[0], "a", eps_win, lam_span, qdeg_cap)
        bb = apply_vertex(gbb, legs1[1], "b", eps_win, lam_span, qdeg_cap)
    else:
        ab, bb = a, b
    term2 = ab.mul_coeff(bb, "lam", n - l).shift_exponent("Q", n - l)
    resid = term1 - term2
    # q' = x + y, q'' = x - y on every Fock slot present
    for name in [v for v in resid.vars if v.startswith("qa") or v.startswith("qb")]:
        root = name[2:]
        xw = resid.wins[name]
        xs = TruncSeries.var("x" + root, xw)
        ys = TruncSeries.var("y" + root, xw)
        repl = xs + ys if name.startswith("qa") else xs - ys
        caps_ok = not any(name in g for g in resid.caps)
        if caps_ok:
            resid = resid.subst(name, repl)
    return resid
