"""J-series construction, derivative formulas, and the identity engine."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import examples

from orbitoda import jfunction
from orbitoda.algebra import frac_part_unit
from orbitoda.cohomology import SectorIndex
from orbitoda.errors import BadIndex, NonUnit, NotCoprime
from orbitoda.jfunction import (DeltaOp, _check_window, _perturb,
                                build_dj, build_j, compare_classes,
                                expand_prefactors, inv_poch, operator_ladder,
                                poch_ratio, verify_jfunc)
from orbitoda.reports import CheckReport
from orbitoda.rationals import ParamRat as PR
from orbitoda.series import TruncSeries as TS, VarWindow, sum_series

ZWIN = VarWindow(-8, 2, False, True)
PAIRS = [(2, 1), (3, 2), (5, 3), (2, 3)]


def test_build_j_q0_layer():
    j = build_j(3, 2, 0, ZWIN)
    assert set(j) == {SectorIndex("k", 0), SectorIndex("m", 0)}
    for ser in j.values():
        assert ser.vars == ("q", "z")
        assert ser.wins["q"] == VarWindow(0, 0, True, False)
        z1 = ser.coeff_of("q", 0)
        assert z1 == TS.var("z", z1.wins["z"])


def test_build_j_d1_term():
    # (k,m)=(3,2), 0-sector, d=1: q^2 z / (z (nu + (2/3) z)) 1_{1/3}
    j = build_j(3, 2, 2, ZWIN)
    got = j[SectorIndex("k", 1)].coeff_of("q", 2)
    want = TS.from_poly("z", {0: PR.nu(3), 1: F(2, 3)}).recip_within(
        {"z": got.wins["z"]})
    assert (got - want).is_zero()


def j_small_z_expansion(k: int, m: int) -> bool:
    """Sanity: the q^0 layer of J expands as z*1 + tau*p + O(z^-1).  The
    unit 1 = 1_{0/k} + 1_{0/m} and the hyperplane class
    p = nu0 1_{0/k} + nu1 1_{0/m} have the coordinates 1 and nu_s on the
    untwisted classes."""
    zwin = VarWindow(-3, 1, False, True)
    j = build_j(k, m, 0, zwin)
    expanded = expand_prefactors(j, 2)
    q0 = {idx: expanded[idx].coeff_of("q", 0)
          for idx in (SectorIndex("k", 0), SectorIndex("m", 0))}
    return all(ser.coeff_of("z", 1).coeff_of("tau", 0) == 1
               and ser.coeff_of("z", 0).coeff_of("tau", 1)
               == (PR.nu0() if idx.side == "k" else PR.nu1())
               for idx, ser in q0.items())


def test_small_z_expansion():
    assert j_small_z_expansion(3, 2)
    assert j_small_z_expansion(5, 3)


def test_j_keeps_its_z_term_above_a_low_build_window():
    # J's d = 0 piece is z 1, built as a scalar 1 on the window moved down
    # by one: [-7, -2] holds no exponent 0, and the 1 widens it to [-7, 0]
    one = TS.scalar(1, {"z": VarWindow(-7, -2, False, True)})
    assert one.wins == {"z": VarWindow(-7, 0, False, True)}
    assert one.terms == {(0,): PR.one()}
    j = build_j(3, 2, 0, VarWindow(-6, -1, False, True))
    assert set(j) == {SectorIndex("k", 0), SectorIndex("m", 0)}
    for ser in j.values():
        assert ser.terms == {(0, 1): PR.one()}


def poch(param, x):
    """prod_{b={x},{x}+1,...,x} (param + b z) as an exact z-polynomial,
    the product whose reciprocal ``inv_poch`` forms in closed form.

    Empty (= 1) when x < {x}; {x} is the (0,1]-normalized fractional part,
    so integer x gives b = 1..x.
    """
    x = F(x)
    out = TS.from_poly("z", {0: 1})
    b = frac_part_unit(x)
    while b <= x:
        out = out * TS.from_poly("z", {0: param, 1: PR.rational(b)})
        b += 1
    return out


def test_poch_conventions():
    nu = PR.nu(3)
    # integer argument: b runs 1..x
    p = poch(nu, F(2))
    want = TS.from_poly("z", {0: nu, 1: 1}) * TS.from_poly("z", {0: nu, 1: 2})
    assert (p - want).is_zero()
    # single fractional factor
    p = poch(nu, F(2, 3))
    assert (p - TS.from_poly("z", {0: nu, 1: F(2, 3)})).is_zero()
    # empty product when x < {x}
    assert (poch(nu, F(-1, 3)) - 1).is_zero()


def _outcome(build):
    """Every field of a series, term order included, or the error raised."""
    try:
        ser = build()
    except NonUnit:
        return "NonUnit"
    return ser.vars, ser.wins, ser.caps, list(ser.terms.items())


INV_POCH_PARAMS = {"nu": PR.nu(3), "nubar": PR.nubar(2), "nu0": PR.nu0()}


@examples(120)
@given(st.integers(-12, 24), st.integers(1, 7),
       st.sampled_from(sorted(INV_POCH_PARAMS)), st.integers(-8, 2),
       st.integers(0, 12))
@example(0, 1, "nu", 2, 0)
def test_inv_poch_equals_recip_of_poch(num, den, param, zlo, pad):
    # N <= 0 gives the empty product; zlo above the leading power z^n
    # raises NonUnit on both paths.  recip knows 1/poch 2n orders below
    # zwin.lo; inv_poch stops at zwin.lo
    x, p = F(num, den), INV_POCH_PARAMS[param]
    zwin = VarWindow(zlo - pad, 2 + pad, False, True)
    bottom = {"z": VarWindow(zwin.lo, zwin.lo, False, True)}
    assert _outcome(lambda: inv_poch(p, x, zwin)) == \
        _outcome(lambda: poch(p, x).recip_within({"z": zwin})
                 .truncated(bottom))


def _deep_piece(ratio, param, x, d, zwin):
    """A J or dJ piece as recip builds it: 1/poch on recip's own window,
    2n orders below zwin, times z^(1-d), with no piece skipped.  A finite
    product, and J's d = 0 ratio 1, is built on zwin moved up by d - 1, so
    that it too is known from zwin.lo and keeps its class known there."""
    if ratio is not jfunction._one and x >= frac_part_unit(x):
        ser = poch(param, x).recip_within({"z": zwin})
    else:
        ser = ratio(param, x, VarWindow(zwin.lo + d - 1, zwin.hi + d - 1,
                                        False, True))
    return ser.shift_exponent("z", 1 - d)


def _class_terms(j):
    return {idx: ser.terms for idx, ser in j.items() if ser.terms}


@pytest.mark.parametrize("k, m, zlo, zhi",
                         [(k, m, -6, 2) for k, m in PAIRS] + [(3, 2, -12, -6)])
def test_pieces_start_at_their_window(monkeypatch, k, m, zlo, zhi):
    # J on verify_jfunc's build window and every dJ on the check bottom:
    # no stored term lies below zwin.lo, and each piece is the deep piece
    # (scaled by its builder) truncated to zwin
    pad, qmax = k + m, 3 * k * m
    jwin = VarWindow(zlo - pad, zhi + pad, False, True)
    djwin = VarWindow(zlo, zhi + pad, False, True)
    builds = [(build_j, (k, m, qmax), jwin)]
    builds += [(build_dj, (k, m, side, i, qmax), djwin)
               for side, n in (("k", k), ("m", m)) for i in range(1, n + 1)]
    for build, args, zwin in builds:
        got = build(*args, zwin)
        for ser in got.values():
            assert ser.wins["z"].lo == zwin.lo and not ser.wins["z"].lo_hard
            assert min(e for _, e in ser.terms) >= zwin.lo
        with monkeypatch.context() as patch:
            patch.setattr(jfunction, "_piece", _deep_piece)
            deep = build(*args, zwin)
        deep = {idx: ser.truncated({"z": zwin}) for idx, ser in deep.items()}
        assert _class_terms(got) == _class_terms(deep), (build.__name__, args)


def test_inv_poch_rejects_other_window_shapes():
    with pytest.raises(ValueError):
        inv_poch(PR.nu(3), F(5, 3), VarWindow(-4, 2, True, True))


def _multiplier(op, k, m, side, qdeg):
    """The pair (c0, c1) of op on the q-degree qdeg slice of a class on
    ``side``: (z/div) d_tau - nu_foot/div - s mult z there is c0 + c1 z."""
    div, mult = (m, k) if op.foot == "k" else (k, m)
    nu = {"k": PR.nu0(), "m": PR.nu1()}
    return (nu[side] - nu[op.foot]) / div, \
        PR.rational(F(qdeg, div) - op.s * mult)


def _generic_delta(j, k, m, op):
    """Reference: each q-degree slice of each class times the z-polynomial
    c0 + c1 z by the generic series product."""
    out = {}
    for idx, ser in j.items():
        slices = []
        for a in sorted({q for q, _ in ser.terms}):
            c0, c1 = _multiplier(op, k, m, idx.side, a)
            slices.append((ser.coeff_of("q", a) *
                           TS.from_poly("z", {0: c0, 1: c1}))
                          .shift_exponent("q", a))
        out[idx] = sum_series(slices, TS.scalar(0, {"q": ser.wins["q"]}))
    return out


def _qde_reference(k, m, qcheck, zlo, zhi, negate=False):
    """The QDE as a check of its own: the k-foot deltas, then the m-foot
    ones, applied to a J of its own by the generic product."""
    pad = k + m
    zwin = VarWindow(zlo - pad, zhi + pad, False, True)
    zwin_check = _check_window(zlo, zhi)
    qmax = qcheck + k * m
    with CheckReport(name="qde", params={"k": k, "m": m, "qdeg": qcheck,
                                         "zwin": [zlo, zhi]},
                     max_order_verified={"q": qcheck, "z": [zlo, zhi]}) as rep:
        j = build_j(k, m, qmax, zwin)
        lhs = j
        for i in range(k):
            lhs = _generic_delta(lhs, k, m, DeltaOp("k", F(i, k)))
        for jj in range(m):
            lhs = _generic_delta(lhs, k, m, DeltaOp("m", F(jj, m)))
        rhs = {idx: ser.shift_exponent("q", k * m) for idx, ser in j.items()}
        if negate:
            rhs = _perturb(rhs, zwin_check, qcheck)
        compare_classes(rep, k, m, lhs, rhs, zwin_check, qcheck)
    return rep


def _agree(k, m, lhs, rhs, zwin, qtop):
    """Whether ``compare_classes`` finds the two J-format dicts equal."""
    return compare_classes(CheckReport(name="t", params={}), k, m, lhs, rhs,
                           zwin, qtop)


def test_class_compare_is_least_in_sector_class_q_z():
    # sector "0" before "inf", then class, then (q, z); z^-4 lies outside
    # the compared window and q^5 above the compared degree
    wins = {"q": VarWindow(0, 6, True, False),
            "z": VarWindow(-4, 2, False, True)}

    def mono(q, z, c=1):
        return TS.monomial({"q": q, "z": z}, wins, c)

    def first(lhs, rhs):
        rep = CheckReport(name="t", params={})
        assert not compare_classes(rep, 3, 2, lhs, rhs, _check_window(-3, 2),
                                   4)
        return rep.first_discrepancy
    k0, k1, k2, m0 = (SectorIndex("k", 0), SectorIndex("k", 1),
                      SectorIndex("k", 2), SectorIndex("m", 0))
    lhs = {m0: mono(0, -3), k0: mono(4, -3), k1: mono(3, 2),
           k2: mono(2, -4) + mono(3, 1)}
    rhs = {k1: mono(5, 0), k2: mono(3, 1, 5)}
    # class 0/3 comes before the lower q-degree of class 1/3
    assert first(lhs, rhs) == {"at": {"class": "0/3", "at": {"q": 4, "z": -3}},
                               "lhs": "1", "rhs": "0"}
    del lhs[k0]
    assert first(lhs, rhs) == {"at": {"class": "1/3", "at": {"q": 3, "z": 2}},
                               "lhs": "1", "rhs": "0"}
    del lhs[k1]
    assert first(lhs, rhs) == {"at": {"class": "2/3", "at": {"q": 3, "z": 1}},
                               "lhs": "1", "rhs": "5"}
    # an exponent 0 is left out of the location
    del lhs[k2], rhs[k2]
    assert first(lhs, rhs) == {"at": {"class": "0/2", "at": {"z": -3}},
                               "lhs": "1", "rhs": "0"}
    del lhs[m0]
    assert _agree(3, 2, lhs, rhs, _check_window(-3, 2), 4)


def _same_verdict(a, b):
    return (a.name, a.params, a.status, a.max_order_verified,
            a.first_discrepancy) == (b.name, b.params, b.status,
                                     b.max_order_verified, b.first_discrepancy)


@pytest.mark.parametrize("k, m", PAIRS)
def test_affine_delta_matches_generic_product(k, m):
    # every delta of the ladder, on both sectors of J: the Euler weight,
    # z-shift, scale and add equals the product of each q-degree slice by
    # from_poly(c0 + c1 z) on the check window
    qcheck, zwin_check = 2 * k * m, _check_window(-6, 2)
    j = build_j(k, m, qcheck + k * m, VarWindow(-6 - k - m, 2 + k + m,
                                                False, True))
    assert {idx.side for idx in j} == {"k", "m"}

    def fields(j):
        return {idx: (ser.vars, ser.wins, sorted(ser.terms.items()))
                for idx, ser in j.items()}
    for op in operator_ladder(k, m).deltas:
        got = {idx: ser.truncated({"z": zwin_check})
               for idx, ser in op.apply(k, m, j).items()}
        want = {idx: ser.truncated({"z": zwin_check})
                for idx, ser in _generic_delta(j, k, m, op).items()}
        assert _agree(k, m, got, want, zwin_check, qcheck), op
        assert fields(got) == fields(want), op


def test_delta_chain_forms_no_generic_product(monkeypatch):
    j = build_j(3, 2, 8, ZWIN)

    def no_product(*args):
        raise AssertionError("generic product of a J piece")
    monkeypatch.setattr(TS, "__mul__", no_product)
    for op in operator_ladder(3, 2).deltas:
        j = op.apply(3, 2, j)


def test_one_j_per_run(monkeypatch):
    import orbitoda.jfunction
    built = []
    monkeypatch.setattr(orbitoda.jfunction, "build_j",
                        lambda *args: built.append(args) or build_j(*args))
    assert all(r.ok for r in verify_jfunc(3, 2, 12))
    assert len(built) == 1


@pytest.mark.parametrize("k, m", PAIRS)
@pytest.mark.parametrize("negate", [False, True])
def test_qde_report_matches_the_operator_product(k, m, negate):
    qdeg = 2 * k * m
    rep = verify_jfunc(k, m, qdeg, negate=negate)[-1]
    assert _same_verdict(rep, _qde_reference(k, m, qdeg, -6, 2, negate))
    assert rep.ok != negate


@pytest.mark.parametrize("k, m, zlo, zhi", [(2, 1, -9, -5), (3, 2, -12, -6),
                                            (3, 2, -3, -1), (3, 2, 0, 0)])
def test_low_z_windows(k, m, zlo, zhi):
    # zhi + k + m < 1: J's d = 0 term z lies above the build window; the
    # checks must look only inside.
    # Narrow windows below z^1 must still catch the QDE negative control.
    qdeg = 2 * k * m
    reps = verify_jfunc(k, m, qdeg, zlo, zhi)
    assert all(r.ok for r in reps), [r.first_discrepancy for r in reps]
    neg = verify_jfunc(k, m, qdeg, zlo, zhi, negate=True)
    for negate, qde in ((False, reps[-1]), (True, neg[-1])):
        assert _same_verdict(qde, _qde_reference(k, m, qdeg, zlo, zhi,
                                                 negate))
    found = [r.first_discrepancy["at"]["at"] for r in neg if not r.ok]
    assert found
    for at in found:
        assert zlo <= at.get("z", 0) <= zhi, at
    qde = neg[-1]
    assert qde.name == "qde" and qde.status == "fail"
    assert zlo <= qde.first_discrepancy["at"]["at"].get("z", 0) <= zhi


def test_poch_ratio_d0_simplifies_to_one():
    # ratio at X = -i/k for 1 <= i <= k-1 is the empty product
    for k in (3, 5):
        nu = PR.nu(k)
        for i in range(1, k):
            r = poch_ratio(nu, F(-i, k), ZWIN)
            assert (r - 1).is_zero()


def test_poch_ratio_untwisted_direction():
    # X = -1 keeps the single b=0 factor: ratio = nu
    nu = PR.nu(3)
    r = poch_ratio(nu, F(-1), ZWIN)
    assert (r - TS.scalar(nu)).is_zero()
    # X = -5/3 keeps b = -2/3
    r = poch_ratio(nu, F(-5, 3), ZWIN)
    assert (r - TS.from_poly("z", {0: nu, 1: F(-2, 3)})).is_zero()


def test_build_dj_d0_only():
    dj = build_dj(3, 2, "m", 2, 0, ZWIN)
    # only d=0 terms survive at qmax=0, all in the infinity sector
    assert {idx.side for idx in dj} == {"m"}
    assert {q for ser in dj.values() for q, _ in ser.terms} == {0}


def test_build_dj_leading_terms():
    # z d_{0/m} J: highest-z term z nubar 1_{0/m} after unscaling m g
    dj = build_dj(3, 2, "m", 2, 4, ZWIN)
    ser = dj[SectorIndex("m", 0)].coeff_of("q", 0)
    g0m = (-PR.diff()).inverse()
    top = ser.coeff_of("z", 1)
    # build_dj includes the m*g normalization: top = m g nubar
    assert top == TS.scalar(PR.nubar(2) * g0m * 2)
    # i = k case: d=0 sector-0 term is z * (k g nu) 1_{0/k} = z 1_{0/k}
    djk = build_dj(3, 2, "k", 3, 4, ZWIN)
    ser = djk[SectorIndex("k", 0)].coeff_of("q", 0)
    assert ser == TS.var("z", ser.wins["z"])


@pytest.mark.parametrize("side, index, message", [
    ("x", 1, "side must be 'k' or 'm', got 'x'"),
    ("k", 0, "need 1 <= i <= k, got 0"),
    ("k", 4, "need 1 <= i <= k, got 4"),
    ("m", 0, "need 1 <= j <= m, got 0"),
    ("m", 3, "need 1 <= j <= m, got 3"),
])
def test_build_dj_rejects_bad_side_and_index(side, index, message):
    with pytest.raises(BadIndex) as info:
        build_dj(3, 2, side, index, 2, ZWIN)
    assert str(info.value) == message


def test_operator_ladder_3_2():
    seq = operator_ladder(3, 2)
    assert [(str(s), f) for s, f in seq.s] == [
        ("0", "k"), ("0", "m"), ("1/3", "k"), ("1/2", "m"), ("2/3", "k")]
    assert seq.s_tilde[2] == ("k", 1)   # s~_3 = (k-m)/k = 1/3


def test_operator_ladder_remainders_nonzero():
    # i K = q_i M + r_i with r_i != 0 for 0 < i < M: the two feet's
    # s-values meet only at 0, so the merged sequence repeats only 0
    for (k, m) in [(5, 3), (7, 4), (4, 3)]:
        values = [s for s, _ in operator_ladder(k, m).s]
        assert values == sorted(values) and len(values) == k + m
        assert [s for s in set(values) if values.count(s) > 1] == [0]


def test_operator_ladder_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        operator_ladder(4, 2)


def _ladder(reps):
    return [r for r in reps if r.name.startswith("ladder-alpha-")]


def _qde(reps):
    (rep,) = [r for r in reps if r.name == "qde"]
    return rep


def test_ladder_identities_3_2():
    reps = verify_jfunc(3, 2, 12)
    assert [r.name for r in reps] == \
        [f"ladder-alpha-{a}" for a in range(1, 6)] + ["qde"]
    assert all(r.ok for r in reps)


def test_ladder_identities_5_3():
    reps = _ladder(verify_jfunc(5, 3, 15))
    assert len(reps) == 8 and all(r.ok for r in reps)


def test_ladder_negative_control():
    reps = _ladder(verify_jfunc(3, 2, 6, negate=True))
    bad = [r for r in reps if not r.ok]
    assert bad and bad[0].name == "ladder-alpha-1"
    assert bad[0].first_discrepancy is not None
    assert bad[0].first_discrepancy["at"]["class"] == "0/3"
    assert bad[0].first_discrepancy["at"]["at"]


def test_qde():
    assert _qde(verify_jfunc(3, 2, 12)).ok
    assert _qde(verify_jfunc(2, 1, 8)).ok


def test_qde_negative_control():
    # at qdeg 3 < km the QDE compares only q-degrees that the shifted J
    # never reaches; the perturbation must land there all the same
    for qdeg in (6, 3):
        rep = _qde(verify_jfunc(3, 2, qdeg, negate=True))
        assert not rep.ok
        assert rep.first_discrepancy is not None
        assert rep.first_discrepancy["at"]["at"].get("q", 0) <= qdeg


@pytest.mark.parametrize("k, m", [(3, 2), (2, 3), (5, 3), (2, 1)])
def test_negative_controls_land_on_the_top_window(k, m):
    # on [1, 1] the added z J of ladder-alpha-1 has no term, so the control
    # falls back to a perturbation that lands inside the window
    qdeg = 2 * k * m
    reps = verify_jfunc(k, m, qdeg, 1, 1, negate=True)
    bad = {r.name: r.first_discrepancy["at"]["at"] for r in reps if not r.ok}
    assert set(bad) == {"ladder-alpha-1", "qde"}
    for at in bad.values():
        assert at["z"] == 1 and at.get("q", 0) <= qdeg, at
    assert all(r.ok for r in verify_jfunc(k, m, qdeg, 1, 1))


def test_swapped_feet_engine():
    # k < m goes through the same engine with feet relabeled
    reps = verify_jfunc(2, 3, 10)
    assert len(reps) == 6 and all(r.ok for r in reps)


def test_tau_derivative_decomposes_over_untwisted_directions():
    # z d/dtau J = nu0 * (z d_{0/k} J) + nu1 * (z d_{0/m} J): the pullback of
    # the restriction direction tau p through the derivative formulas
    k, m, qmax = 3, 2, 8
    j = build_j(k, m, qmax, ZWIN)
    # z d/dtau is nu_s + z q d/dq on the sector s
    lhs = {idx: ser.scale(PR.nu0() if idx.side == "k" else PR.nu1()) +
           ser.euler_weight("q", 1, 0).shift_exponent("z", 1)
           for idx, ser in j.items()}
    djk = build_dj(k, m, "k", k, qmax, ZWIN)
    djm = build_dj(k, m, "m", m, qmax, ZWIN)
    rhs = {idx: sum_series(dj[idx].scale(nu) for dj, nu in
                           ((djk, PR.nu0()), (djm, PR.nu1())) if idx in dj)
           for idx in djk.keys() | djm.keys()}
    assert lhs.keys() == rhs.keys()
    assert _agree(k, m, lhs, rhs, ZWIN, qmax)


def test_poch_ratio_inverts_poch():
    # ratio(X) * poch(X) = 1 whenever X >= {X}
    nu = PR.nu(3)
    for num in (2, 5, 7, 9):
        x = F(num, 3)
        r = poch_ratio(nu, x, ZWIN)
        prod = r * poch(nu, x)
        assert (prod - 1).is_zero()
