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

from fractions import Fraction
from typing import NamedTuple

from .algebra import e_row, frac_factorial, h_row
from .cohomology import SectorIndex
from .rationals import ParamRat, PR
from .reports import CheckReport
from .series import (TruncSeries, VarWindow, down_win, exact_win, sum_series,
                     up_win)
from .toda import TauJet, miwa_shift, two_toda_vacuum_tau, ybname, yname


class VertexSymbol:
    """Normal-ordered symbol of exp(f-hat).

    creation[p][(L, alpha)]   = coefficient of eps^-1 q_L^alpha at lambda^p
    annihilation[p][(l, alpha)] = coefficient of eps d/dq_l^alpha at lambda^p
    """
    __slots__ = ("creation", "annihilation")

    def __init__(self, creation: dict | None = None,
                 annihilation: dict | None = None):
        self.creation = {} if creation is None else creation
        self.annihilation = {} if annihilation is None else annihilation

    def add(self, kind: str, p: int, key, c: ParamRat):
        """Accumulate c at (p, key) of one kind, dropping what cancels."""
        if c.is_zero():
            return
        slot = getattr(self, kind).setdefault(p, {})
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


def build_gamma(k: int, m: int, sign: int, barred: bool,
                mode_max: int, depth: int = 8) -> VertexSymbol:
    """Symbol of the exponent of Gamma^{sign} (or its barred partner).

    Annihilation entries are exact; creation entries are the z^-1-expansion
    of the rational mode coefficients, kept through q-index <= depth.
    The barred operator is the same construction with the feet exchanged.
    """
    kk = m if barred else k
    side = "m" if barred else "k"
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
                out.add("annihilation", p, (e, alpha), c * sgn)
        n += 1
    # creation side: n = -N-1, lambda^{N kk + i}; phi (-z)^{-L-1} quantizes
    # to -eps^-1 q_L, and the vector is g_alpha 1^{i/kk}, so the slot of
    # a_{N,L} is q_L^{i/kk}
    for p in range(1, mode_max + 1):
        i = (p - 1) % kk + 1
        alpha = SectorIndex(side, i % kk)
        row = a_matrix_row_generating(kk, i, (p - i) // kk, depth, barred)
        for L, c in enumerate(row):
            out.add("creation", p, (L, alpha), -c * sgn)
    return out.cleaned()


# ---------------------------------------------------------------------------
# change of variables q -> y
# ---------------------------------------------------------------------------


def _nu_and_g(k: int, i: int, barred: bool) -> tuple[ParamRat, ParamRat]:
    """nu (nubar on the barred side) and g_alpha of the slot q^{i/k}."""
    nu = PR.nubar(k) if barred else PR.nu(k)
    if i % k:
        return nu, PR.rational(Fraction(1, k))
    return nu, (-PR.diff()).inverse() if barred else PR.diff().inverse()


def a_matrix_row(k: int, i: int, N: int, L_max: int,
                 barred: bool = False) -> list[ParamRat]:
    """[a_{N,0}, ..., a_{N,L_max}] in y_{Nk+i} = sum_L a_{N,L} q_L^{i/k}:
    a_{N,L} = nu^{L-N} h_{L-N}(1/(i/k), ..., 1/(i/k+N)) g / (N + i/k)!,
    zero for L < N; one h-row serves every L."""
    nu, g = _nu_and_g(k, i, barred)
    unit = g / frac_factorial(Fraction(N * k + i, k))
    h = h_row(L_max - N, [PR.rational(Fraction(k, i + a * k))
                          for a in range(N + 1)]) if L_max >= N else []
    return [PR.zero()] * min(N, L_max + 1) + \
        [(nu ** j) * hj * unit for j, hj in enumerate(h)]


def a_matrix_row_generating(k: int, i: int, N: int, L_max: int,
                            barred: bool = False) -> list[ParamRat]:
    """The same row read off from g / prod_{l=0}^N (nu - (l + i/k) w)."""
    nu, g = _nu_and_g(k, i, barred)
    denom = TruncSeries.from_poly("w", {0: 1})
    for l in range(N + 1):
        denom = denom * TruncSeries.from_poly(
            "w", {0: nu, 1: -(Fraction(i, k) + l)})
    series = denom.recip_within({"w": down_win(-L_max - 2, hi=0)}).scale(g)
    return [series.terms.get((-L - 1,), PR.zero()) * ((-1) ** (L + 1))
            for L in range(L_max + 1)]


def verify_change_matrix(k: int, N_max: int, L_max: int) -> CheckReport:
    """The h-polynomial display of the change equals its generating series."""
    with CheckReport(name="change-matrix",
                     params={"k": k, "N_max": N_max, "L_max": L_max},
                     max_order_verified={"N": N_max, "L": L_max}) as rep:
        for i in range(1, k + 1):
            for N in range(N_max + 1):
                row = a_matrix_row_generating(k, i, N, L_max)
                want = a_matrix_row(k, i, N, L_max)
                for L in range(L_max + 1):
                    if not rep.compare(row[L], want[L],
                                       {"i": i, "N": N, "L": L}):
                        return rep
    return rep


def lemma_inv_sums(k: int, L_max: int):
    """Yield (i, L, N, acc, top) for 1 <= i <= k and 0 <= N <= L <= L_max:
    acc = sum_n e_{L-n}(1/(i/k)...1/(i/k+L-1)) h_{n-N}(1/(i/k)...1/(i/k+N))
    and, for L > N, top = the nu^{L-N} coefficient of
    prod_{a<L} (1 + nu/(i/k+a)) / prod_{a<=N} (1 + nu/(i/k+a)) (None when
    L = N).

    Per i, the h-row of each N, the reciprocal of each prod_{a<=N} (at
    window L_max-N+1, exact in every slot read) and the running product
    prod_{a<L} are built once.
    """
    for i in range(1, k + 1):
        base = Fraction(i, k)
        xs = [PR.rational(1 / (base + a)) for a in range(L_max + 1)]
        h_rows = [h_row(L_max - N, xs[:N + 1]) for N in range(L_max + 1)]
        prod = TruncSeries.from_poly("nu", {0: 1})  # prod_{a<L}
        recips = []  # recips[N] = 1/prod_{a<=N}
        for L in range(L_max + 1):
            e = e_row(L, xs[:L])
            for N in range(L + 1):
                h = h_rows[N]
                acc = PR.zero()
                for n in range(N, L + 1):
                    acc = acc + e[L - n] * h[n - N]
                top = None
                if L > N:
                    top = prod.mul_coeff(recips[N], "nu", L - N).terms.get(
                        (), PR.zero())
                yield i, L, N, acc, top
            if L < L_max:
                prod = prod * TruncSeries.from_poly("nu", {0: 1, 1: xs[L]})
                recips.append(prod.recip_within({"nu": up_win(L_max - L + 1)}))


def verify_lemma_inv(k: int, L_max: int) -> CheckReport:
    """forward(h) o inverse(e) = identity: the Kronecker-delta sums.

    Every ``lemma_inv_sums`` acc is delta_{L,N}, and every top vanishes:
    the generating product is a polynomial of degree L-N-1 in nu, so its
    nu^{L-N} slot is zero.
    """
    with CheckReport(name="lemma-inv", params={"k": k, "L_max": L_max},
                     max_order_verified={"L": L_max}) as rep:
        for i, L, N, acc, top in lemma_inv_sums(k, L_max):
            want = PR.one() if L == N else PR.zero()
            if not rep.compare(acc, want, {"i": i, "N": N, "L": L}):
                return rep
            if top is not None and not rep.compare(
                    top, PR.zero(),
                    {"i": i, "N": N, "L": L, "route": "generating"}):
                return rep
    return rep


def verify_theorem2_transform(k: int, m: int, mode_max: int,
                              negate: bool = False) -> list[CheckReport]:
    """Every vertex mode, rewritten in the flow variables, matches the
    2-Toda form: lambda^{-M} modes give (1/M) eps d/dy_M, lambda^{+M} modes
    give -eps^-1 y_M, and the lambda^0 mode is the untwisted translation.

    Both the unbarred (y) and barred (y-bar) sides are checked.
    """
    L_pad = 4
    out = []
    for barred in (False, True):
        kk = m if barred else k
        with CheckReport(
                name="theorem2-" + ("barred" if barred else "unbarred"),
                params={"k": k, "m": m, "modes": mode_max, "L_pad": L_pad},
                max_order_verified={"lambda": mode_max}) as rep:
            gamma = build_gamma(k, m, +1, barred, mode_max,
                                depth=mode_max // kk + L_pad)
            _check_modes(rep, gamma, k, m, barred, mode_max, L_pad, negate)
        out.append(rep)
    return out


def _check_modes(rep: CheckReport, gamma: VertexSymbol, k: int, m: int,
                 barred: bool, mode_max: int, L_pad: int,
                 negate: bool = False) -> None:
    """Compare every mode of ``gamma`` with its 2-Toda form on ``rep``,
    up to the first discrepancy."""
    kk = m if barred else k
    side = "m" if barred else "k"
    # rows[i][N] = a_{N, 0..L_max}: N <= mode_max // kk covers every mode,
    # and the slots read reach L <= N + L_pad
    L_max = mode_max // kk + L_pad
    rows = {i: [a_matrix_row(kk, i, N, L_max, barred)
                for N in range(mode_max // kk + 1)]
            for i in range(1, kk + 1)}
    # negative modes: coefficient of eps d/dy_M must be 1/M
    for M in range(1, mode_max + 1):
        p = -M
        slot = gamma.annihilation.get(p, {})
        # transform sum_l c_{l,alpha} eps d/dq_l -> sum_N (...) eps d/dy
        y_coeff: dict[int, ParamRat] = {}
        for (l, alpha), c in slot.items():
            i = alpha.i if alpha.i else kk          # q-variables q^{i/kk}, i=kk for untwisted
            for N in range(l + 1):
                a = rows[i][N][l]
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
            if not rep.compare(y_coeff.get(idx, PR.zero()),
                               want.get(idx, PR.zero()),
                               {"mode": p, "flow_index": idx, "side": side}):
                return
    # lambda^0 mode: exactly the untwisted translation eps d/dq_0
    slot = gamma.annihilation.get(0, {})
    want_key = (0, SectorIndex(side, 0))
    for key, c in {**slot, want_key: slot.get(want_key, PR.zero())}.items():
        if not rep.compare(c, PR.one() if key == want_key else PR.zero(),
                           {"mode": 0, "slot": str(key), "side": side}):
            return
    # positive modes: creation entries must match -eps^-1 y_{N kk + i}
    for p in range(1, mode_max + 1):
        slot = gamma.creation.get(p, {})
        i = p % kk if p % kk else kk
        N = (p - i) // kk
        alpha_p = SectorIndex(side, i % kk)
        # the stored slots, then the mode's sector through L_pad
        for L, alpha in dict.fromkeys([*slot, *((L, alpha_p) for L in
                                                range(N, N + L_pad + 1))]):
            want = -rows[i][N][L] if alpha == alpha_p else PR.zero()
            if not rep.compare(slot.get((L, alpha), PR.zero()), want,
                               {"mode": p, "slot": str((L, alpha)),
                                "side": side}):
                return


# ---------------------------------------------------------------------------
# symplectic pairing of symbols (commutation factors)
# ---------------------------------------------------------------------------


def commutation_factor(f: VertexSymbol, g: VertexSymbol) -> dict[int, ParamRat]:
    """Omega(f, g) per lambda-power: sum f_annih * g_creation - g_annih * f_creation."""
    out: dict[int, ParamRat] = {}
    for ann, cre, negate in ((f, g, False), (g, f, True)):
        for pa, slot_a in ann.annihilation.items():
            for pc, slot_c in cre.creation.items():
                acc = PR.zero()
                for key, c in slot_a.items():
                    other = slot_c.get(key)
                    if other is not None:
                        acc = acc + c * other
                if not acc.is_zero():
                    p = pa + pc
                    cur = out.get(p, PR.zero()) + (-acc if negate else acc)
                    if cur.is_zero():
                        out.pop(p, None)
                    else:
                        out[p] = cur
    return out


def translation_symbol(side: str, c=1) -> VertexSymbol:
    """The symbol of c * 1-hat_{0/side} = c eps d/dq_0^{0/side}."""
    sym = VertexSymbol()
    sym.add("annihilation", 0, (0, SectorIndex(side, 0)), PR.rational(c))
    return sym


# ---------------------------------------------------------------------------
# Fock elements and residue evaluation
# ---------------------------------------------------------------------------


POINT_LAM = exact_win(0, 0)


def fock_var(leg: str, n: int, alpha: SectorIndex) -> str:
    return f"q{leg}{n}_{alpha.side}{alpha.i}"


def flow_var(leg: str, barred: bool, n: int) -> str:
    """Leg ``leg``'s copy of the flow time y_n (w_n for the barred y-bar_n),
    named index-first (``y1a``, ``w2b``) so that no leg copy can coincide
    with a time of the tau jet (``toda.yname``, ``toda.ybname``)."""
    return f"{'w' if barred else 'y'}{n}{leg}"


def miwa_part(f: TruncSeries, sign: int, barred: bool, leg: str,
              depth: int) -> TruncSeries:
    """exp(-sign * sum (lam^{-n}/n) eps d_{y_n}) f — exact on a polynomial
    jet, producing nonpositive lambda-powers."""
    names = [flow_var(leg, barred, n) for n in range(1, depth + 1)]
    return f.exp_derivation(miwa_shift(names, sign), {"lam": POINT_LAM})


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

    def term(n):
        name = flow_var(leg, barred, n)
        w = f._win(name) if name in f.wins else exact_win(0, 0)
        win = VarWindow(w.lo, max(w.hi, 1), w.lo_hard, w.hi_hard)
        return TruncSeries.monomial({name: 1, "eps": -1, "lam": n},
                                    {name: win, "eps": eps_win, "lam": lam_up},
                                    coeff=sign)

    return miwa * sum_series(map(term, range(1, depth + 1))).exp()


def toda_hqe_eval(tau: TauJet, n: int, l: int, depth: int,
                  eps_win: VarWindow) -> TruncSeries:
    """The lambda-residue of the bilinear form at the pair (n, l):

        res [ lam^{l-n} (G+ tau_l)(G- tau_{n+1})
              - (Q/lam)^{l-n} (Gbar- tau_{l+1})(Gbar+ tau_n) ] dlam/lam,

    with independent flow variables on the two legs.  Returns the residue
    as a series; the tau family satisfies the equations iff it vanishes.
    The residue is read in the legs' own times y', y'' (``flow_var``), whose
    windows are exact.  Hirota's form s = (y'+y'')/2, d = (y'-y'')/2 is an
    invertible linear change that keeps each flow bidegree, so it cannot
    change which bidegree classes of the residue vanish.
    """
    extra = abs(n - l) + 2

    def leg_series(r: int, leg: str) -> TruncSeries:
        shifted = tau.shifted(r, eps_win)
        names = {}
        for j in range(1, tau.ytimes + 1):
            names[yname(j)] = flow_var(leg, False, j)
        for j in range(1, tau.ybtimes + 1):
            names[ybname(j)] = flow_var(leg, True, j)
        return shifted.rename(names)

    fa1, fb1 = leg_series(l, "a"), leg_series(n + 1, "b")
    fa2, fb2 = leg_series(l + 1, "a"), leg_series(n, "b")
    m1a = miwa_part(fa1, +1, False, "a", depth)
    m1b = miwa_part(fb1, -1, False, "b", depth)
    m2a = miwa_part(fa2, -1, True, "a", depth)
    m2b = miwa_part(fb2, +1, True, "b", depth)
    # [lam^0] of lam^s a b is [lam^-s] of a b, formed by mul_coeff from the
    # pairs a_p b_{-s-p}; spans are sized so every pairing against the
    # partner's hard bottom is reachable
    s1 = l - n
    span1 = lam_depth(m1a) + lam_depth(m1b) + abs(s1) + extra
    ga = mult_part(fa1, m1a, +1, False, "a", depth, eps_win, span1)
    gb = mult_part(fb1, m1b, -1, False, "b", depth, eps_win, span1)
    term1 = ga.mul_coeff(gb, "lam", -s1)
    s2 = n - l
    span2 = lam_depth(m2a) + lam_depth(m2b) + abs(s2) + extra
    gab = mult_part(fa2, m2a, -1, True, "a", depth, eps_win, span2)
    gbb = mult_part(fb2, m2b, +1, True, "b", depth, eps_win, span2)
    term2 = gab.mul_coeff(gbb, "lam", -s2).shift_exponent("Q", l - n)
    return term1 - term2


def toda_hqe_report(tau, n: int, l: int, depth: int,
                    eps_win: VarWindow) -> CheckReport:
    """All-zero check of the (n, l) residue through flow-bidegree (2, 2):
    the residue capped at total degree 2 in the unbarred (y...) and in the
    barred (w...) flow times is compared with 0.  Jet errors above the box
    are reported as the verified boundary, not failures."""
    with CheckReport(name=f"toda-hqe-{n}-{l}",
                     params={"n": n, "l": l, "depth": depth,
                             "bidegree": [2, 2]}) as rep:
        resid = toda_hqe_eval(tau, n, l, depth, eps_win)
        # a monomial's flow bidegree: its exponent sums over the unbarred
        # (y...) and the barred (w...) flow times
        ys = [i for i, v in enumerate(resid.vars) if v.startswith("y")]
        ws = [i for i, v in enumerate(resid.vars) if v.startswith("w")]
        box = resid.with_cap([resid.vars[i] for i in ys], 2) \
            .with_cap([resid.vars[i] for i in ws], 2)
        beyond = min(((sum([key[i] for i in ys]), sum([key[i] for i in ws]))
                      for key in resid.terms if key not in box.terms),
                     default=None)
        rep.max_order_verified = {"bidegree": [2, 2],
                                  "first_jet_error_at": beyond}
        rep.compare(box, 0, {})
    return rep


# ---------------------------------------------------------------------------
# the orbifold HQE evaluator on truncated Fock elements
# ---------------------------------------------------------------------------


def fock_one(eps_win: VarWindow) -> TruncSeries:
    return TruncSeries.scalar(1, {"eps": eps_win})


class Vertex(NamedTuple):
    """A vertex operator on one leg, ready to apply: its annihilation half
    as the parts of a derivation on the lambda-window ``lam_w``, and its
    creation half as the exponential it multiplies by (None without
    creation slots).  Neither depends on the element it acts on."""
    parts: list
    lam_w: VarWindow
    creation: TruncSeries | None


def vertex_on_leg(sym: VertexSymbol, leg: str, eps_win: VarWindow,
                  lam_span: int, qdeg_cap: int) -> Vertex:
    """The vertex operator of ``sym`` on the Fock slots of ``leg``, its
    modes kept to |lambda-degree| <= lam_span and its creation exponential
    capped at total q-degree ``qdeg_cap``."""
    lam_w = exact_win(-lam_span, lam_span)
    parts = [(fock_var(leg, L, alpha), TruncSeries.from_poly("eps", {1: c})
              * TruncSeries.from_poly("lam", {p: 1}))
             for p, slot in sym.annihilation.items() if abs(p) <= lam_span
             for (L, alpha), c in slot.items()]
    # creation exponential: declared q-variable windows with a group cap
    slots = [(fock_var(leg, L, alpha), p, c)
             for p, slot in sym.creation.items() if abs(p) <= lam_span
             for (L, alpha), c in slot.items()]
    if not slots:
        return Vertex(parts, lam_w, None)
    arg = sum_series(TruncSeries.monomial(
        {name: 1, "eps": -1, "lam": p},
        {name: up_win(6), "eps": eps_win, "lam": lam_w}, coeff=c)
        for name, p, c in slots)
    arg = arg.with_cap([name for name, _, _ in slots], qdeg_cap)
    return Vertex(parts, lam_w, arg.exp())


def apply_vertex(vertex: Vertex, elem: TruncSeries) -> TruncSeries:
    """exp(creation) exp(annihilation) applied to a truncated Fock element."""
    total = elem.exp_derivation(vertex.parts, {"lam": vertex.lam_w})
    return total if vertex.creation is None else total * vertex.creation


def residue_vertices(k: int, m: int, n: int, l: int, mode_max: int,
                     eps_win: VarWindow) -> tuple:
    """The four vertex operators of ``hqe_residue_eval`` at (n, l): Gamma^-
    on leg a, Gamma^+ on leg b, then the barred Gamma^+ on leg a and the
    barred Gamma^- on leg b."""
    lam_span = mode_max + abs(n - l) + 2
    qdeg_cap, depth = 2, 4
    return tuple(vertex_on_leg(build_gamma(k, m, sign, barred, mode_max,
                                           depth),
                               leg, eps_win, lam_span, qdeg_cap)
                 for sign, barred, leg in [(-1, False, "a"), (+1, False, "b"),
                                           (+1, True, "a"), (-1, True, "b")])


def translate(elem: TruncSeries, leg: str, shifts: dict,
              eps_win: VarWindow) -> TruncSeries:
    """e^{c 1-hat_alpha}: shift q_0^alpha by c eps for each alpha, as the
    exponential of the derivation sum_alpha c eps d/dq_0^alpha."""
    parts = [(fock_var(leg, 0, alpha), TruncSeries.from_poly("eps", {1: c}))
             for alpha, c in shifts.items()]
    return elem.exp_derivation(parts, {"eps": eps_win})


def hqe_residue_eval(k: int, m: int, d1: TruncSeries, d2: TruncSeries,
                     n: int, l: int, mode_max: int, eps_win: VarWindow,
                     vertices: tuple | None = None) -> TruncSeries:
    """The lambda-residue of the orbifold bilinear form on d1 (x) d2.

    Vertex operators enter through their symbols with |mode| <= mode_max
    (mode_max = 0 strips them entirely), their creation parts capped at
    total q-degree 2 and their mode coefficients kept through q-index 4;
    translations shift the untwisted q_0-slots per the (n, l)-bookkeeping.
    ``vertices`` are ``residue_vertices(k, m, n, l, mode_max, eps_win)``,
    built here when not given: residues of several elements at one (n, l)
    share them.  The residue is returned in the two legs' own Fock slots
    q' = ``qa*`` and q'' = ``qb*``: the change q' = x + y, q'' = x - y is
    linear and invertible, so it does not change whether the residue
    vanishes.
    """
    k0 = SectorIndex("k", 0)
    m0 = SectorIndex("m", 0)
    legs1 = [translate(d1, "a", {k0: n + 1, m0: n}, eps_win),
             translate(d2, "b", {k0: l, m0: l + 1}, eps_win)]
    if mode_max > 0:
        if vertices is None:
            vertices = residue_vertices(k, m, n, l, mode_max, eps_win)
        a, b, ab, bb = (apply_vertex(vertex, leg) for vertex, leg
                        in zip(vertices, legs1 + legs1))
    else:
        lam_span = abs(n - l) + 2
        lam_w = exact_win(-lam_span, lam_span)
        a = legs1[0] + TruncSeries.scalar(0, {"lam": lam_w})
        b = legs1[1] + TruncSeries.scalar(0, {"lam": lam_w})
        ab, bb = a, b
    # [lam^0] of lam^{n-l} a b and of lam^{l-n} ab bb: only the lambda-pairs
    # that reach the residue are formed
    term1 = a.mul_coeff(b, "lam", l - n)
    term2 = ab.mul_coeff(bb, "lam", n - l).shift_exponent("Q", n - l)
    return term1 - term2


# ---------------------------------------------------------------------------
# the HQE checks
# ---------------------------------------------------------------------------


HQE_EPS = exact_win(-24, 24)


def verify_trivial_residue(k: int, m: int) -> CheckReport:
    """With the vertex operators stripped, 1 (x) 1 has zero residue at
    (n, l) = (0, 0), (1, 0) and (0, 1)."""
    with CheckReport(name="hqe-trivial-residue",
                     params={"k": k, "m": m}) as rep:
        one = fock_one(HQE_EPS)
        for (n, l) in [(0, 0), (1, 0), (0, 1)]:
            if not rep.compare(hqe_residue_eval(k, m, one, one, n, l, 0,
                                                HQE_EPS), 0, {"n": n, "l": l}):
                break
    return rep


def verify_bilinearity(k: int, m: int) -> CheckReport:
    """Scaling the first leg by 2 scales a nonzero residue by 2."""
    with CheckReport(name="hqe-bilinearity", params={"k": k, "m": m}) as rep:
        da = fock_one(HQE_EPS) + TruncSeries.var(
            fock_var("a", 0, SectorIndex("k", 0)), exact_win(0, 1)) \
            .truncated({"eps": HQE_EPS})
        db = fock_one(HQE_EPS)
        vertices = residue_vertices(k, m, 1, 0, 4, HQE_EPS)
        lhs = hqe_residue_eval(k, m, da.scale(2), db, 1, 0, 4, HQE_EPS,
                               vertices)
        resid = hqe_residue_eval(k, m, da, db, 1, 0, 4, HQE_EPS, vertices)
        if resid.is_zero():
            # scaling a zero residue proves nothing
            rep.fail({}, "0", "a nonzero residue",
                     detail="the residue being scaled vanishes identically")
        else:
            rep.compare(lhs, resid.scale(2), {})
    return rep


def verify_toda_hqe_vacuum(times: int) -> list[CheckReport]:
    """The 2-Toda HQE on the vacuum exponential carrying ``times`` flow
    times, at (n, l) in {0, 1}^2 through flow-bidegree (2, 2)."""
    tau = two_toda_vacuum_tau(times, 3, exact_jet=True)
    return [toda_hqe_report(tau, n, l, times, HQE_EPS)
            for (n, l) in [(0, 0), (0, 1), (1, 0), (1, 1)]]


def verify_toda_hqe_negative_control() -> CheckReport:
    """A tau jet that is not a 2-Toda tau function must fail the HQE at a
    located discrepancy."""
    with CheckReport(name="toda-hqe-negative-control", params={}) as rep:
        yw = up_win(8)
        arg = TruncSeries.monomial(
            {"y1": 1, "yb1": 1, "Q": 1, "eps": -2},
            {"y1": yw, "yb1": yw, "Q": exact_win(-16, 16), "eps": HQE_EPS},
            coeff=2)
        arg = arg.with_cap(["y1"], 4).with_cap(["yb1"], 4)
        bad = TauJet(arg.exp().as_exact(), 1, 1)
        inner = toda_hqe_report(bad, 1, 0, 1, HQE_EPS)
        if inner.first_discrepancy is None:
            rep.fail({}, "undetected perturbation", "a located discrepancy")
        else:
            rep.detail = "perturbation located at " + \
                str(inner.first_discrepancy)
    return rep
