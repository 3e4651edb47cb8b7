"""The equivariant J-series, its derivative formulas, and the full
differential-operator verification engine.

A ``JSeries`` keeps two sectors, tagged by which exponential prefactor they
carry (e^{tau nu0/z} at the 0-foot, e^{tau nu1/z} at the infinity-foot).
Inside a sector, terms are graded by the integer power of q = Q e^tau and
each graded piece is a cohomology-valued Laurent series in z.  tau only ever
enters through q-powers and the prefactor, so z d/dtau acts on the (sector s,
q-degree a) piece as multiplication by (nu_s + a z).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import frac_part_unit
from .cohomology import Cohomology, SectorIndex
from .errors import BadIndex, NonUnit, NotCoprime
from .rationals import ParamRat, PR
from .reports import CheckReport
from .series import TruncSeries, VarWindow, sum_series

from math import gcd, prod


def poch(param: ParamRat, x: Fraction) -> TruncSeries:
    """prod_{b={x},{x}+1,...,x} (param + b z) as an exact z-polynomial.

    Empty (= 1) when x < {x}; {x} is the (0,1]-normalized fractional part,
    so integer x gives b = 1..x.
    """
    x = Fraction(x)
    out = TruncSeries.from_poly("z", {0: 1})
    b = frac_part_unit(x)
    while b <= x:
        out = out * TruncSeries.from_poly("z", {0: param, 1: PR.rational(b)})
        b += 1
    return out


def inv_poch(param: ParamRat, x: Fraction, zwin: VarWindow) -> TruncSeries:
    """``poch(param, x).recip_within({"z": zwin})`` truncated to the soft
    bottom ``zwin.lo``, in closed form: the same terms, in the same order,
    with the same window.

    With b_i = {x} + i - 1 (i = 1..n) the factors of ``poch``,

        1/poch = sum_j (-param)^j h_j(1/b_1, ..., 1/b_n) z^(-n-j) / prod b_i,

    h_j the complete homogeneous symmetric polynomial, kept for
    -n-j >= zwin.lo; the window is [zwin.lo, -n] (the point zwin.lo, with
    no term, when -n < zwin.lo), soft below and hard above.  Writing
    b_i = N_i/D and L = lcm(N_i), h_j = (D/L)^j H_j with H_j the integer h_j
    of the L/N_i, so each coefficient costs integer adds and one content
    gcd.  ``zwin`` must be soft below and hard above, the shape every
    J-function window has; NonUnit when zwin.lo > n, as ``recip`` raises.
    """
    if zwin.lo_hard or not zwin.hi_hard:
        raise ValueError(f"inv_poch needs a z-window soft below and hard "
                         f"above, got {zwin}")
    x = Fraction(x)
    f = frac_part_unit(x)
    n = int(x - f) + 1 if x >= f else 0
    if zwin.lo > n:
        raise NonUnit(f"1/poch: the leading power z^{n} lies below the "
                      f"window {zwin}")
    den = f.denominator
    nums = [f.numerator + i * den for i in range(n)]
    lcm = 1
    for num in nums:
        lcm = lcm * num // gcd(lcm, num)
    top = -n - zwin.lo
    h = [1] + [0] * top
    for num in nums:
        a = lcm // num
        for j in range(1, top + 1):
            h[j] += a * h[j - 1]
    neg = -param
    power = PR.one()
    num_scale, den_scale = den ** n, prod(nums)
    terms = {}
    for j in range(top + 1):
        if j:
            power = power * neg
            num_scale *= den
            den_scale *= lcm
        if h[j] and not power.is_zero():
            num = h[j] * num_scale
            terms[(-n - j,)] = ParamRat.from_ints(
                {key: num * v for key, v in power.num.items()},
                den_scale * power.den)
    return TruncSeries(("z",), {"z": VarWindow(zwin.lo, max(-n, zwin.lo),
                                               False, True)}, terms)


def poch_ratio(param: ParamRat, x: Fraction, zwin: VarWindow) -> TruncSeries:
    """[prod_{b<{x}} / prod_{b<=x}] (param + b z), by tail cancellation.

    Equal to 1/poch(param, x) when x >= {x}, and to the finite product over
    {x} - Z>0 values b with x < b < {x} otherwise.
    """
    x = Fraction(x)
    f = frac_part_unit(x)
    if x >= f:
        return inv_poch(param, x, zwin)
    out = TruncSeries.from_poly("z", {0: 1})
    b = f - 1
    while b > x:
        out = out * TruncSeries.from_poly("z", {0: param, 1: PR.rational(b)})
        b -= 1
    return out.truncated({"z": zwin})


@dataclass
class JSeries:
    k: int
    m: int
    qmax: int
    zwin: VarWindow
    # sector tag -> q-degree -> SectorIndex -> z-series
    sectors: dict = field(default_factory=lambda: {"0": {}, "inf": {}})

    def add_term(self, sector: str, qdeg: int, idx: SectorIndex,
                 zser: TruncSeries):
        if qdeg > self.qmax or zser.is_zero():
            return
        bucket = self.sectors[sector].setdefault(qdeg, {})
        cur = bucket.get(idx)
        new = zser if cur is None else cur + zser
        if new.is_zero() and cur is None:
            return
        bucket[idx] = new

    def pieces(self):
        """(sector, qdeg, idx, zser) of every stored piece."""
        for sector, grades in self.sectors.items():
            for qdeg, bucket in grades.items():
                for idx, zser in bucket.items():
                    yield sector, qdeg, idx, zser

    def map_terms(self, fn) -> "JSeries":
        """fn(sector, qdeg, idx, zser) -> zser."""
        out = JSeries(self.k, self.m, self.qmax, self.zwin)
        for sector, qdeg, idx, zser in self.pieces():
            out.add_term(sector, qdeg, idx, fn(sector, qdeg, idx, zser))
        return out

    def apply_zdtau_affine(self, coeff_fn) -> "JSeries":
        """Apply an operator acting on (s, a) as multiplication by c0 + c1 z.

        coeff_fn(sector, qdeg) returns the pair (c0, c1) of ``ParamRat``s;
        each piece A becomes c0 A + c1 z A, a scale, a z-shift and one sum,
        with a zero part skipped.
        """
        def piece(sector, qdeg, idx, zser):
            c0, c1 = coeff_fn(sector, qdeg)
            parts = [] if c0.is_zero() else [zser.scale(c0)]
            if not c1.is_zero():
                parts.append(zser.shift_exponent("z", 1).scale(c1))
            return sum_series(parts)
        return self.map_terms(piece)

    def shift_q(self, delta: int) -> "JSeries":
        out = JSeries(self.k, self.m, self.qmax + delta, self.zwin)
        for sector, qdeg, idx, zser in self.pieces():
            out.add_term(sector, qdeg + delta, idx, zser)
        return out

    def scale(self, c) -> "JSeries":
        return self.map_terms(lambda s, a, idx, z: z.scale(c))

    def low_q_part(self, below: int) -> list:
        """Nonzero (sector, qdeg, idx, zser) pieces with qdeg < below."""
        return [p for p in self.pieces() if p[1] < below and not p[3].is_zero()]

    def diff_report(self, other: "JSeries", qmax: int):
        """First discrepancy (dict) or None; compares through q-degree qmax."""
        for sector in ("0", "inf"):
            for qdeg in range(0, qmax + 1):
                a = self.sectors[sector].get(qdeg, {})
                b = other.sectors[sector].get(qdeg, {})
                for idx in sorted(set(a) | set(b)):
                    za = a.get(idx)
                    zb = b.get(idx)
                    if za is None:
                        za = TruncSeries.scalar(0, {"z": zb.wins["z"]})
                    if zb is None:
                        zb = TruncSeries.scalar(0, {"z": za.wins["z"]})
                    rep = za.eq_report(zb)
                    if rep is not None:
                        exps, resid = rep
                        return {
                            "sector": sector,
                            "q_degree": qdeg,
                            "class": idx.label(self.k, self.m),
                            "z_power": str(exps.get("z", 0)),
                            "difference": str(resid),
                        }
        return None


def _require_coprime(k: int, m: int):
    if gcd(k, m) != 1:
        raise NotCoprime(f"k={k}, m={m} must be coprime")


def _points(k: int, m: int) -> dict:
    """The two orbifold points by side: 0 (side 'k', uniformized by z^k,
    parameter nu) and infinity (side 'm', w^m, nubar), each as
    (sector, parameter, own foot, other foot)."""
    return {"k": ("0", PR.nu(k), k, m), "m": ("inf", PR.nubar(m), m, k)}


def _piece(ratio, param: ParamRat, x: Fraction, d: int,
           zwin: VarWindow) -> TruncSeries:
    """ratio(param, x, w) z^(1-d), a Pochhammer ratio of z-degree
    {x} - 1 - x, on zwin: built on w, zwin moved up by d - 1, and not built
    at all (zero) when its top power lies below zwin.lo."""
    if frac_part_unit(x) - x - d < zwin.lo:
        return TruncSeries.zero()
    w = VarWindow(zwin.lo + d - 1, zwin.hi + d - 1, zwin.lo_hard,
                  zwin.hi_hard)
    return ratio(param, x, w).shift_exponent("z", 1 - d)


def _one(param: ParamRat, x: Fraction, zwin: VarWindow) -> TruncSeries:
    """J's d = 0 ratio, 1 on zwin."""
    return TruncSeries.scalar(1, {"z": zwin})


def build_j(k: int, m: int, qmax: int, zwin: VarWindow) -> JSeries:
    """Exact truncation of the equivariant J-series (both sectors) to the
    z-window ``zwin``: each piece is known from zwin.lo (``_piece``)."""
    _require_coprime(k, m)
    if qmax < 0:
        raise ValueError("qmax must be nonnegative")
    out = JSeries(k, m, qmax, zwin)
    for side, (sector, param, own, other) in _points(k, m).items():
        fact = Fraction(1)
        for d in range(0, qmax // other + 1):
            if d > 0:
                fact *= d
            ser = _piece(inv_poch if d > 0 else _one, param,
                         Fraction(d * other, own), d, zwin)
            out.add_term(sector, d * other,
                         SectorIndex(side, (-d * other) % own),
                         ser.scale(Fraction(1, 1) / fact))
    return out


def build_dj(k: int, m: int, side: str, index: int, qmax: int,
             zwin: VarWindow) -> JSeries:
    """z d/dtau^alpha J for alpha = index/k (side 'k', 1<=index<=k) or
    index/m (side 'm', 1<=index<=m); index k (resp. m) is the untwisted
    direction 0/k (resp. 0/m).

    Built from the closed derivative formulas, including the k g_alpha
    (resp. m g_alpha) normalization, so the result is exactly z dJ/dtau^alpha.
    The own point's sector is a sum of Pochhammer ratios at q-degrees
    d * other; the other point's sector starts at q-degree ``index`` and
    steps by the own foot.
    """
    _require_coprime(k, m)
    points = _points(k, m)
    if side not in points:
        raise BadIndex(f"side must be 'k' or 'm', got {side!r}")
    sector, param, own, other = points[side]
    if not (1 <= index <= own):
        letter = {"k": "i", "m": "j"}[side]
        raise BadIndex(f"need 1 <= {letter} <= {side}, got {index}")
    o_side = "m" if side == "k" else "k"
    o_sector, o_param = points[o_side][:2]
    pref = Cohomology(k, m).g(SectorIndex(side, index % own)) * own
    out = JSeries(k, m, qmax, zwin)
    fact = Fraction(1)
    for d in range(0, qmax // other + 1):
        if d > 0:
            fact *= d
        ser = _piece(poch_ratio, param, Fraction(d * other - index, own), d,
                     zwin).scale(pref / fact)
        out.add_term(sector, d * other,
                     SectorIndex(side, (index - d * other) % own), ser)
    fact = Fraction(1)
    d = 0
    while d * own + index <= qmax:
        if d > 0:
            fact *= d
        a = d * own + index
        ser = _piece(inv_poch, o_param, Fraction(a, other), d,
                     zwin).scale(pref / fact)
        out.add_term(o_sector, a, SectorIndex(o_side, -a % other), ser)
        d += 1
    return out


# ---------------------------------------------------------------------------
# the combinatorial engine behind the derivative identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaOp:
    """First-order operator attached to one s-value of one foot.

    For a k-foot value s: (z/m) d_tau - nu0/m - s k z; for an m-foot value:
    (z/k) d_tau - nu1/k - s m z.  Acting on the (sector, q-degree a) piece it
    multiplies by c0 + c1 z, with c0 zero or +-(nu0 - nu1)/div and c1
    rational.
    """
    foot: str          # 'k' or 'm'
    s: Fraction

    def multiplier(self, k: int, m: int, sector: str,
                   qdeg: int) -> tuple[ParamRat, ParamRat]:
        """The pair (c0, c1) on the (sector, qdeg) piece."""
        nus = PR.nu0() if sector == "0" else PR.nu1()
        if self.foot == "k":
            div, sub, mult = m, PR.nu0(), k
        else:
            div, sub, mult = k, PR.nu1(), m
        c0 = (nus - sub) / div
        return c0, PR.rational(Fraction(qdeg, div) - self.s * mult)


@dataclass
class LadderSequence:
    k: int
    m: int
    q: list          # q_0..q_M for the normalized pair K > M
    r: list          # r_1..r_{M-1}
    s: list          # s_1..s_{k+m} as (Fraction, foot) in caller naming
    s_tilde: list    # per alpha >= 3: (foot, index) derivative labels
    deltas: list     # DeltaOp per alpha (deltas[alpha-1])
    swapped: bool    # True iff k < m (the normalized big foot is then the m-foot)


def operator_ladder(k: int, m: int) -> LadderSequence:
    """The increasing s-sequence, delta operators, and derivative labels.

    The sequence merges {0/k..(k-1)/k} and {0/m..(m-1)/m} in increasing
    order, with zero of the larger foot first.  The literal closed-form
    index ranges would overproduce entries, so the sequence is built
    directly from the sort; the q_i, r_i data are kept for reference.
    """
    _require_coprime(k, m)
    if k == m:
        raise NotCoprime(f"k = m = {k} is not a coprime pair unless 1;"
                         " the engine needs distinct feet")
    swapped = k < m
    K, M = (m, k) if swapped else (k, m)
    big_foot = "m" if swapped else "k"
    small_foot = "k" if swapped else "m"

    q = [0] * (M + 1)
    r = [0] * M
    for i in range(1, M):
        q[i], r[i] = divmod(i * K, M)
        assert r[i] != 0, "coprimality guarantees nonzero remainders"
    q[M] = K

    entries = [(Fraction(i, K), big_foot) for i in range(K)]
    entries += [(Fraction(j, M), small_foot) for j in range(M)]
    entries.sort(key=lambda t: (t[0], 0 if t[1] == big_foot else 1))
    assert len(entries) == K + M

    deltas = [DeltaOp(foot, s) for (s, foot) in entries]
    s_tilde: list = [None, None]
    for alpha in range(3, K + M + 1):
        s_alpha, foot = entries[alpha - 1]
        if foot == "k":
            f = frac_part_unit(-m * s_alpha)
            s_tilde.append(("k", int(f * k)))
        else:
            f = frac_part_unit(-k * s_alpha)
            s_tilde.append(("m", int(f * m)))
    return LadderSequence(k=k, m=m, q=q, r=r, s=entries, s_tilde=s_tilde,
                            deltas=deltas, swapped=swapped)


def _apply_delta(j: JSeries, k: int, m: int, op: DeltaOp) -> JSeries:
    return j.apply_zdtau_affine(lambda sector, qdeg:
                                op.multiplier(k, m, sector, qdeg))


def verify_jfunc(k: int, m: int, qcheck: int, zlo: int = -6, zhi: int = 2,
                 negate: bool = False) -> list[CheckReport]:
    """The ladder identities delta_1 J, delta_2 J and D_alpha J =
    z d_{s~alpha} J, one report per alpha, then the QDE
    prod_alpha delta_alpha J = q^{km} J as the report ``qde``.

    Verified exactly through q-degree ``qcheck`` on the z-window
    [zlo, zhi], on one J and one delta chain: each delta multiplies every
    (sector, q-degree) piece by its own c0 + c1 z, so the deltas commute,
    and the QDE's left side is the chain after the last rung with the one
    delta it lacks, ``seq.deltas[-1]``, applied.

    Every piece of J and dJ is built only from the lowest z-power its side
    reads: J from zlo - (K + M), since each of the K + M deltas lifts the
    soft bottom by at most one order, and dJ, which no delta acts on, from
    zlo.
    """
    _require_coprime(k, m)
    seq = operator_ladder(k, m)
    K, M = max(k, m), min(k, m)
    pad = K + M  # one z-order of erosion per delta application
    zwin = VarWindow(zlo - pad, zhi + pad, False, True)
    zwin_check = _check_window(zlo, zhi)
    djwin = VarWindow(zlo, zwin.hi, False, True)
    qmax = qcheck + K * M
    j = build_j(k, m, qmax, zwin)
    coh = Cohomology(k, m)
    reports = []

    # alpha = 1 pairs delta_1 (zero of the larger foot) with the derivative
    # along the *smaller* foot's untwisted direction; alpha = 2 mirrors it.
    small_side = "m" if k > m else "k"
    big_side = "k" if k > m else "m"
    for alpha, side in ((1, small_side), (2, big_side)):
        with CheckReport(
                name=f"ladder-alpha-{alpha}",
                params={"k": k, "m": m, "alpha": alpha, "qdeg": qcheck,
                        "zwin": [zlo, zhi]},
                max_order_verified={"q": qcheck, "z": [zlo, zhi]}) as rep:
            n = k if side == "k" else m
            # delta_2 J, the last lhs, starts the chain of alpha >= 3
            lhs = chain = _apply_delta(j, k, m, seq.deltas[alpha - 1])
            g = coh.g(SectorIndex(side, 0))
            rhs = build_dj(k, m, side, n, qmax, djwin).scale((g * n).inverse())
            if negate and alpha == 1:
                lhs = _negate_delta_1(lhs, j, zwin_check, qcheck)
            lhs = _truncate_j(lhs, zwin_check)
            rhs = _truncate_j(rhs, zwin_check)
            disc = lhs.diff_report(rhs, qcheck)
            if disc is not None:
                rep.fail(disc, "delta-chain", "derivative formula")
        reports.append(rep)

    # alpha >= 3: D_alpha J = z d_{s~alpha} J
    chain = _apply_delta(chain, k, m, seq.deltas[0])
    for alpha in range(3, K + M + 1):
        s_alpha = seq.s[alpha - 1][0]
        shift = int(K * M * s_alpha)
        with CheckReport(
                name=f"ladder-alpha-{alpha}",
                params={"k": k, "m": m, "alpha": alpha, "qdeg": qcheck,
                        "zwin": [zlo, zhi], "s_alpha": str(s_alpha)},
                max_order_verified={"q": min(qcheck, qmax - shift),
                                    "z": [zlo, zhi]}) as rep:
            reports.append(rep)
            if alpha > 3:
                chain = _apply_delta(chain, k, m, seq.deltas[alpha - 2])
            low = [(s, a, i, z) for (s, a, i, z)
                   in (chain.low_q_part(shift))
                   if not z.truncated({"z": zwin_check}).is_zero()]
            if low:
                sector, qdeg, idx, zser = low[0]
                rep.fail({"sector": sector, "q_degree": qdeg,
                          "class": idx.label(k, m)},
                         str(zser), "0",
                         "delta chain must annihilate q-degrees below the shift")
                continue
            lhs = chain.shift_q(-shift)
            foot, index = seq.s_tilde[alpha - 1]
            rhs = build_dj(k, m, foot, index, qmax, djwin)
            lhs = _truncate_j(lhs, zwin_check)
            rhs = _truncate_j(rhs, zwin_check)
            disc = lhs.diff_report(rhs, min(qcheck, qmax - shift))
            if disc is not None:
                rep.fail(disc, "D-alpha chain", "derivative formula")

    with CheckReport(name="qde",
                     params={"k": k, "m": m, "qdeg": qcheck,
                             "zwin": [zlo, zhi]},
                     max_order_verified={"q": qcheck, "z": [zlo, zhi]}) as rep:
        chain = _apply_delta(chain, k, m, seq.deltas[-1])
        rhs = j.shift_q(k * m)
        if negate:
            rhs = _perturb(rhs, zwin_check, qcheck)
        lhs = _truncate_j(chain, zwin_check)
        rhs = _truncate_j(rhs, zwin_check)
        disc = lhs.diff_report(rhs, qcheck)
        if disc is not None:
            rep.fail(disc, "QDE operator product", "q^{km} J")
    reports.append(rep)
    return reports


def _check_window(zlo: int, zhi: int) -> VarWindow:
    """The declared window [zlo, zhi], soft on both sides, so truncating to
    it drops every term outside.  A hard top would keep the terms above zhi,
    where J and its derivatives need not agree: J's d = 0 term z is pruned
    when z lies above the build window, while dJ keeps its own."""
    return VarWindow(zlo, zhi, False, False)


def _truncate_j(j: JSeries, zwin: VarWindow) -> JSeries:
    return j.map_terms(lambda s, a, idx, z: z.truncated({"z": zwin}))


def _add_j(a: JSeries, b: JSeries) -> JSeries:
    out = JSeries(a.k, a.m, min(a.qmax, b.qmax), a.zwin)
    for piece in (*a.pieces(), *b.pieces()):
        out.add_term(*piece)
    return out


def _perturb(j: JSeries, zwin: VarWindow, qcheck: int) -> JSeries:
    """Negative control: multiply the first graded piece with q > 0 by z.

    Where that change would not show through q-degree ``qcheck`` inside
    ``zwin``, add z^hi to the same class at q-degree min(q, qcheck) instead,
    so that the perturbation always lands where the check compares.
    """
    sector, qdeg, idx, zser = next(p for p in j.pieces() if p[1] > 0)
    shifted = zser.shift_exponent("z", 1)
    if qdeg <= qcheck and \
            not (shifted - zser).truncated({"z": zwin}).is_zero():
        return j.map_terms(lambda s, a, i, z:
                           shifted if (s, a, i) == (sector, qdeg, idx) else z)
    out = j.map_terms(lambda s, a, i, z: z)
    out.add_term(sector, min(qdeg, qcheck), idx,
                 TruncSeries.monomial({"z": zwin.hi}, {"z": zwin}))
    return out


def _negate_delta_1(lhs: JSeries, j: JSeries, zwin: VarWindow,
                    qcheck: int) -> JSeries:
    """Negative control of ladder-alpha-1: delta_1 + z in place of delta_1,
    or ``_perturb`` where z J has no term through q-degree ``qcheck``
    inside ``zwin``."""
    zj = j.map_terms(lambda s, a, i, z: z.shift_exponent("z", 1))
    if _truncate_j(zj, zwin).low_q_part(qcheck + 1):
        return _add_j(lhs, zj)
    return _perturb(lhs, zwin, qcheck)


def expand_prefactors(j: JSeries, tau_order: int) -> dict:
    """Multiply each sector by its expanded prefactor e^{tau nu_s / z}.

    Returns {SectorIndex: series in (z, tau, q)} with the q-grading folded
    into an exact polynomial variable.  Used by the small-z sanity check; the
    verification engine itself never expands prefactors.
    """
    terms: dict = {}
    tau_win = VarWindow(0, tau_order, True, False)
    for sector, grades in j.sectors.items():
        nus = PR.nu0() if sector == "0" else PR.nu1()
        pref_arg = (TruncSeries.var("tau", tau_win).scale(nus)
                    * TruncSeries.var("z", j.zwin, power=-1))
        pref = pref_arg.exp()
        for qdeg, bucket in grades.items():
            for idx, zser in bucket.items():
                terms.setdefault(idx, []).append(
                    (zser * pref).shift_exponent("q", qdeg))
    return {idx: sum_series(t, TruncSeries.scalar(0))
            for idx, t in terms.items()}


def j_small_z_expansion(k: int, m: int) -> bool:
    """Sanity: the q^0 layer of J expands as z*1 + tau*p + O(z^-1)."""
    coh = Cohomology(k, m)
    zwin = VarWindow(-3, 1, False, True)
    j = build_j(k, m, 0, zwin)
    expanded = expand_prefactors(j, 2)
    unit = coh.unit()
    p = coh.p_class()
    for idx in (SectorIndex("k", 0), SectorIndex("m", 0)):
        ser = expanded[idx].coeff_of("q", 0)
        z1 = ser.coeff_of("z", 1).coeff_of("tau", 0)
        if not (z1 - TruncSeries.scalar(unit.coords[idx])).is_zero():
            return False
        z0t1 = ser.coeff_of("z", 0).coeff_of("tau", 1)
        if not (z0t1 - TruncSeries.scalar(p.coords[idx])).is_zero():
            return False
    return True
