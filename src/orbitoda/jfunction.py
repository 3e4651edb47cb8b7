"""The equivariant J-series, its derivative formulas, and the full
differential-operator verification engine.

J and each derivative z dJ/dtau^alpha are stored in the J format: a dict
from each class (``SectorIndex``) to one ``TruncSeries`` in q = Q e^tau and
z, its q-window hard at 0 and soft above the q-degree it is built through.
A class's side names its sector, the exponential prefactor it carries:
side "k" the 0-foot's e^{tau nu0/z} (sector "0"), side "m" the
infinity-foot's e^{tau nu1/z} (sector "inf").  tau only ever enters
through q-powers and the prefactor, so on a class of sector s, z d/dtau
acts as nu_s + z q d/dq, the Euler operator in q
(``TruncSeries.euler_weight``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import frac_part_unit
from .cohomology import Cohomology, SectorIndex
from .errors import BadIndex, NonUnit, NotCoprime
from .rationals import ParamRat, PR
from .reports import CheckReport
from .series import TruncSeries, VarWindow, exact_win, sum_series

from math import factorial, gcd, prod


def inv_poch(param: ParamRat, x: Fraction, zwin: VarWindow) -> TruncSeries:
    """1/prod_{b={x},{x}+1,...,x} (param + b z), the reciprocal of an exact
    z-polynomial as ``recip_within({"z": zwin})`` forms it, truncated to the
    soft bottom ``zwin.lo``, in closed form: the same terms, in the same
    order, with the same window.  {x} is the (0,1]-normalized fractional
    part, so integer x gives b = 1..x.

    With b_i = {x} + i - 1 (i = 1..n) the factors, the reciprocal is

        sum_j (-param)^j h_j(1/b_1, ..., 1/b_n) z^(-n-j) / prod b_i,

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

    Equal to ``inv_poch(param, x, zwin)`` when x >= {x}, and to the finite product over
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


def _require_coprime(k: int, m: int):
    if gcd(k, m) != 1:
        raise NotCoprime(f"k={k}, m={m} must be coprime")


def _points(k: int, m: int) -> dict:
    """The two orbifold points by side: 0 (side 'k', uniformized by z^k,
    parameter nu) and infinity (side 'm', w^m, nubar), each as
    (parameter, own foot, other foot)."""
    return {"k": (PR.nu(k), k, m), "m": (PR.nubar(m), m, k)}


_SECTOR = {"k": "0", "m": "inf"}     # the sector of a class, by its side


def _sector_nu(side: str) -> ParamRat:
    """nu_s of the sector of a class on ``side``: nu0 at 0, nu1 at inf."""
    return PR.nu0() if side == "k" else PR.nu1()


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


def _classes(pieces, qmax: int) -> dict:
    """The J format of the (q-degree a, class, z-series) ``pieces``: each
    class the sum of its q^a pieces on the q-window [0, qmax], hard below
    and soft above; a zero piece adds nothing."""
    qwin = VarWindow(0, qmax, True, False)
    parts: dict = {}
    for a, idx, ser in pieces:
        if ser.terms:
            parts.setdefault(idx, []).append(TruncSeries(
                ("q", "z"), {"q": qwin, "z": ser.wins["z"]},
                {(a, *key): c for key, c in ser.terms.items()}))
    return {idx: sum_series(p) for idx, p in parts.items()}


def build_j(k: int, m: int, qmax: int, zwin: VarWindow) -> dict:
    """Exact truncation of the equivariant J-series (both sectors) to the
    z-window ``zwin`` through q-degree ``qmax``, in the J format: each
    piece is known from zwin.lo (``_piece``)."""
    _require_coprime(k, m)
    if qmax < 0:
        raise ValueError("qmax must be nonnegative")
    pieces = ((d * other, SectorIndex(side, (-d * other) % own),
               _piece(inv_poch if d > 0 else _one, param,
                      Fraction(d * other, own), d, zwin)
               .scale(Fraction(1, factorial(d))))
              for side, (param, own, other) in _points(k, m).items()
              for d in range(qmax // other + 1))
    return _classes(pieces, qmax)


def build_dj(k: int, m: int, side: str, index: int, qmax: int,
             zwin: VarWindow) -> dict:
    """z d/dtau^alpha J for alpha = index/k (side 'k', 1<=index<=k) or
    index/m (side 'm', 1<=index<=m); index k (resp. m) is the untwisted
    direction 0/k (resp. 0/m).

    Built from the closed derivative formulas, including the k g_alpha
    (resp. m g_alpha) normalization, so the result is exactly z dJ/dtau^alpha,
    in the J format.  The own point's sector is a sum of Pochhammer ratios
    at q-degrees d * other; the other point's sector starts at q-degree
    ``index`` and steps by the own foot.
    """
    _require_coprime(k, m)
    points = _points(k, m)
    if side not in points:
        raise BadIndex(f"side must be 'k' or 'm', got {side!r}")
    param, own, other = points[side]
    if not (1 <= index <= own):
        letter = {"k": "i", "m": "j"}[side]
        raise BadIndex(f"need 1 <= {letter} <= {side}, got {index}")
    o_side = "m" if side == "k" else "k"
    o_param = points[o_side][0]
    pref = Cohomology(k, m).g(SectorIndex(side, index % own)) * own

    def pieces():
        for d in range(qmax // other + 1):
            yield (d * other, SectorIndex(side, (index - d * other) % own),
                   _piece(poch_ratio, param, Fraction(d * other - index, own),
                          d, zwin).scale(pref / factorial(d)))
        for d in range((qmax - index) // own + 1):
            a = d * own + index
            yield (a, SectorIndex(o_side, -a % other),
                   _piece(inv_poch, o_param, Fraction(a, other), d,
                          zwin).scale(pref / factorial(d)))
    return _classes(pieces(), qmax)


# ---------------------------------------------------------------------------
# the combinatorial engine behind the derivative identities
# ---------------------------------------------------------------------------


class DeltaOp(NamedTuple):
    """First-order operator attached to one s-value of one foot.

    For a k-foot value s: (z/m) d_tau - nu0/m - s k z; for an m-foot value:
    (z/k) d_tau - nu1/k - s m z.  With z d_tau = nu_s + z q d/dq on the
    sector s, it is c0 + z (q d/dq / div - s mult) there, with
    c0 = (nu_s - nu_foot)/div zero on the foot's own sector.
    """
    foot: str          # 'k' or 'm'
    s: Fraction

    def apply(self, k: int, m: int, j: dict) -> dict:
        """The operator on each class A of the J format ``j``:
        c0 A + z E(A), E the Euler weight (q d/dq / div - s mult), with no
        generic product."""
        div, mult = (m, k) if self.foot == "k" else (k, m)
        c0 = {side: (_sector_nu(side) - _sector_nu(self.foot)) / div
              for side in _SECTOR}
        out = {}
        for idx, ser in j.items():
            lifted = ser.euler_weight("q", Fraction(1, div),
                                      -self.s * mult).shift_exponent("z", 1)
            c = c0[idx.side]
            out[idx] = lifted if c.is_zero() else ser.scale(c) + lifted
        return out


class LadderSequence:
    """s: s_1..s_{k+m} as (Fraction, foot) in caller naming; s_tilde: per
    alpha >= 3, the (foot, index) derivative labels; deltas: the DeltaOp
    per alpha (deltas[alpha-1])."""
    __slots__ = ("s", "s_tilde", "deltas")

    def __init__(self, s: list, s_tilde: list, deltas: list):
        self.s, self.s_tilde, self.deltas = s, s_tilde, deltas


def operator_ladder(k: int, m: int) -> LadderSequence:
    """The increasing s-sequence, delta operators, and derivative labels.

    The sequence merges {0/k..(k-1)/k} and {0/m..(m-1)/m} in increasing
    order, with zero of the larger foot first.  The literal closed-form
    index ranges would overproduce entries, so the sequence is built
    directly from the sort.
    """
    _require_coprime(k, m)
    if k == m:
        raise NotCoprime(f"k = m = {k} is not a coprime pair unless 1;"
                         " the engine needs distinct feet")
    (K, big_foot), (M, small_foot) = sorted(((k, "k"), (m, "m")),
                                            reverse=True)
    entries = [(Fraction(i, K), big_foot) for i in range(K)]
    entries += [(Fraction(j, M), small_foot) for j in range(M)]
    entries.sort(key=lambda t: (t[0], 0 if t[1] == big_foot else 1))

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
    return LadderSequence(s=entries, s_tilde=s_tilde, deltas=deltas)


def verify_jfunc(k: int, m: int, qcheck: int, zlo: int = -6, zhi: int = 2,
                 negate: bool = False) -> list[CheckReport]:
    """The ladder identities delta_1 J, delta_2 J and D_alpha J =
    z d_{s~alpha} J, one report per alpha, then the QDE
    prod_alpha delta_alpha J = q^{km} J as the report ``qde``.

    Verified exactly through q-degree ``qcheck`` on the z-window
    [zlo, zhi], on one J and one delta chain: each delta acts on every
    class as c0 + z E, E an Euler weight in q, so the deltas commute, and
    the QDE's left side is the chain after the last rung with the one
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
            lhs = chain = seq.deltas[alpha - 1].apply(k, m, j)
            unscale = (coh.g(SectorIndex(side, 0)) * n).inverse()
            rhs = {idx: ser.scale(unscale) for idx, ser
                   in build_dj(k, m, side, n, qmax, djwin).items()}
            if negate and alpha == 1:
                lhs = _negate_delta_1(lhs, j, zwin_check, qcheck)
            compare_classes(rep, k, m, lhs, rhs, zwin_check, qcheck)
        reports.append(rep)

    # alpha >= 3: D_alpha J = z d_{s~alpha} J
    chain = seq.deltas[0].apply(k, m, chain)
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
                chain = seq.deltas[alpha - 2].apply(k, m, chain)
            # the chain vanishes below the shift
            if not compare_classes(rep, k, m, chain, {}, zwin_check,
                                   shift - 1):
                continue
            lhs = {idx: ser.shift_exponent("q", -shift)
                   for idx, ser in chain.items()}
            foot, index = seq.s_tilde[alpha - 1]
            rhs = build_dj(k, m, foot, index, qmax, djwin)
            compare_classes(rep, k, m, lhs, rhs, zwin_check,
                            min(qcheck, qmax - shift))

    with CheckReport(name="qde",
                     params={"k": k, "m": m, "qdeg": qcheck,
                             "zwin": [zlo, zhi]},
                     max_order_verified={"q": qcheck, "z": [zlo, zhi]}) as rep:
        chain = seq.deltas[-1].apply(k, m, chain)
        rhs = {idx: ser.shift_exponent("q", k * m) for idx, ser in j.items()}
        if negate:
            rhs = _perturb(rhs, zwin_check, qcheck)
        compare_classes(rep, k, m, chain, rhs, zwin_check, qcheck)
    reports.append(rep)
    return reports


def _check_window(zlo: int, zhi: int) -> VarWindow:
    """The declared window [zlo, zhi], soft on both sides, so truncating to
    it drops every term outside: a check compares no power above zhi."""
    return VarWindow(zlo, zhi, False, False)


def _compared(ser: TruncSeries, zwin: VarWindow, qtop: int) -> TruncSeries:
    """A class on the window a check compares: q-degrees 0..qtop, z in
    ``zwin``."""
    return ser.below_slice("q", qtop + 1).truncated({"z": zwin}) \
        .hard_slice("q", 0)


def compare_classes(rep: CheckReport, k: int, m: int, lhs: dict, rhs: dict,
                    zwin: VarWindow, qtop: int) -> bool:
    """Compare two J-format dicts class by class on q-degrees 0..qtop inside
    ``zwin``, sector "0" first and classes in order, through ``rep``; a class
    one side lacks is zero there.  At the first class that differs, the
    report names it and its least differing (q, z) key."""
    zero = TruncSeries.zero()
    return all(rep.compare(_compared(lhs.get(idx, zero), zwin, qtop),
                           _compared(rhs.get(idx, zero), zwin, qtop),
                           {"class": idx.label(k, m)})
               for idx in sorted(lhs.keys() | rhs.keys()))


def _perturb(j: dict, zwin: VarWindow, qcheck: int) -> dict:
    """Negative control: multiply the piece of the lowest positive q-degree
    of the first sector by z.

    Where that change would not show through q-degree ``qcheck`` inside
    ``zwin``, add z^hi to the same class at q-degree min(q, qcheck) instead,
    so that the perturbation always lands where the check compares.
    """
    _, a, idx = min((idx.side, q, idx) for idx, ser in j.items()
                    for q, _ in ser.terms if q > 0)
    ser = j[idx]
    piece = ser.below_slice("q", a + 1).hard_slice("q", a)
    change = piece.shift_exponent("z", 1) - piece
    if not _compared(change, zwin, qcheck):
        qa = min(a, qcheck)
        change = TruncSeries.monomial({"q": qa, "z": zwin.hi},
                                      {"q": exact_win(qa, qa), "z": zwin})
    return {**j, idx: ser + change}


def _negate_delta_1(lhs: dict, j: dict, zwin: VarWindow,
                    qcheck: int) -> dict:
    """Negative control of ladder-alpha-1: delta_1 + z in place of delta_1,
    or ``_perturb`` where z J has no term through q-degree ``qcheck``
    inside ``zwin``."""
    zj = {idx: ser.shift_exponent("z", 1) for idx, ser in j.items()}
    if any(_compared(ser, zwin, qcheck) for ser in zj.values()):
        return {idx: ser + zj[idx] for idx, ser in lhs.items()}
    return _perturb(lhs, zwin, qcheck)


def expand_prefactors(j: dict, tau_order: int) -> dict:
    """Multiply each class of the J format ``j`` by its sector's expanded
    prefactor e^{tau nu_s / z}, a series in (q, tau, z).

    Used by the c-constant check; the verification engine itself never
    expands prefactors.
    """
    tau_win = VarWindow(0, tau_order, True, False)
    out = {}
    for idx, ser in j.items():
        pref_arg = (TruncSeries.var("tau", tau_win).scale(_sector_nu(idx.side))
                    * TruncSeries.var("z", ser.wins["z"], power=-1))
        out[idx] = ser * pref_arg.exp()
    return out
