"""Vertex symbols, the flow-variable change, and HQE residue evaluation."""

from fractions import Fraction as F

from orbitoda.cohomology import SectorIndex
from orbitoda.hqe import (a_matrix_entry, apply_vertex, build_gamma,
                          commutation_factor, fock_one, fock_var,
                          hqe_residue_eval, toda_hqe_eval, translate,
                          translation_symbol, verify_change_matrix,
                          verify_lemma_inv, verify_theorem2_transform)
from orbitoda.rationals import ParamRat as PR
from orbitoda.series import TruncSeries as TS, exact_win, up_win
from orbitoda.toda import TauJet, two_toda_vacuum_tau

EW = exact_win(-16, 16)


def test_lemma_inv_matrix():
    for k in range(1, 6):
        assert verify_lemma_inv(k, 8).ok


def test_change_matrix_routes_agree():
    assert verify_change_matrix(3, 4, 8).ok
    assert verify_change_matrix(5, 3, 6).ok


def test_theorem2_transform():
    for (k, m) in [(3, 2), (5, 2)]:
        reps = verify_theorem2_transform(k, m, 12)
        for r in reps:
            assert r.ok, (r.name, r.first_discrepancy)


def test_theorem2_negative_control():
    reps = verify_theorem2_transform(3, 2, 6, negate=True)
    assert any(not r.ok for r in reps)
    bad = [r for r in reps if not r.ok][0]
    assert bad.first_discrepancy is not None


def test_gamma_constant_mode_is_translation():
    gamma = build_gamma(3, 2, +1, False, 8)
    slot = gamma.annihilation[0]
    assert slot == {(0, SectorIndex("k", 0)): PR.one()}


def test_gamma_creation_matches_display():
    # lambda^{N k + i} creation coefficient: g_{i/k} / prod(nu - (l+i/k) z)
    k, m = 3, 2
    gamma = build_gamma(k, m, +1, False, 8, depth=6)
    # mode lambda^{k+1} (N=1, i=1): the L-expansion equals -a_{1,L}
    slot = gamma.creation[k + 1]
    for (L, alpha), c in slot.items():
        assert alpha == SectorIndex("k", 1)
        assert (c + a_matrix_entry(k, 1, 1, L)).is_zero()


def test_commutation_factors():
    k, m = 3, 2
    fminus = build_gamma(k, m, -1, False, 8)
    fplus = build_gamma(k, m, +1, False, 8)
    t = translation_symbol("k", 1)
    om = commutation_factor(t, fminus)
    assert set(om) == {k}
    assert om[k] == PR.diff().inverse()
    assert commutation_factor(fplus, fplus) == {}
    # barred analogue: lambda^m / (nu1 - nu0)
    tb = translation_symbol("m", 1)
    fbarm = build_gamma(k, m, -1, True, 8)
    omb = commutation_factor(tb, fbarm)
    assert set(omb) == {m}
    assert omb[m] == (-PR.diff()).inverse()


def test_translation_composition():
    # shift by a eps then b eps equals shift by (a+b) eps
    k0 = SectorIndex("k", 0)
    win = up_win(4)
    name = fock_var("a", 0, k0)
    elem = (1 + TS.var(name, win)) ** 2
    elem = elem.truncated({"eps": EW})
    one_then_two = translate(translate(elem, "a", {k0: 1}, EW), "a", {k0: 2}, EW)
    three = translate(elem, "a", {k0: 3}, EW)
    assert (one_then_two - three).is_zero()


def test_hqe_trivial_residue():
    # D' = D'' = 1 with zero vertex windows: residue of
    # (lam^{n-l} - (Q/lam)^{n-l}) dlam/lam vanishes for every pair
    one = fock_one(EW)
    for (n, l) in [(0, 0), (1, 0), (0, 1), (2, 5)]:
        resid = hqe_residue_eval(3, 2, one, one, n, l, 0, EW)
        assert resid.is_zero()


def test_hqe_bilinearity():
    k0 = SectorIndex("k", 0)
    win = up_win(3)
    d_a = fock_one(EW) + TS.var(fock_var("a", 0, k0), win) \
        .truncated({"eps": EW})
    d_b = fock_one(EW)
    lhs = hqe_residue_eval(3, 2, d_a.scale(F(2)), d_b, 1, 0, 4, EW)
    rhs = hqe_residue_eval(3, 2, d_a, d_b, 1, 0, 4, EW).scale(F(2))
    assert (lhs - rhs).is_zero()
    # additivity in the first slot
    d_c = fock_one(EW).scale(F(1, 3))
    s = hqe_residue_eval(3, 2, d_a + d_c, d_b, 1, 0, 4, EW)
    s2 = hqe_residue_eval(3, 2, d_a, d_b, 1, 0, 4, EW) + \
        hqe_residue_eval(3, 2, d_c, d_b, 1, 0, 4, EW)
    assert (s - s2).is_zero()


def _full_product_residue(k, m, d1, d2, n, l, mode_max, eps_win,
                          qdeg_cap=2, depth=4):
    """The residue formula that forms both full products over every
    lambda-degree before keeping [lam^0]: the reference for the
    residue-only products in hqe_residue_eval."""
    span = mode_max + abs(n - l) + 2
    k0, m0 = SectorIndex("k", 0), SectorIndex("m", 0)
    leg_a = translate(d1, "a", {k0: n + 1, m0: n}, eps_win)
    leg_b = translate(d2, "b", {k0: l, m0: l + 1}, eps_win)

    def dressed(sign, barred, leg, elem):
        sym = build_gamma(k, m, sign, barred, mode_max, depth)
        return apply_vertex(sym, elem, leg, eps_win, span, qdeg_cap)

    term1 = (dressed(-1, False, "a", leg_a) * dressed(+1, False, "b", leg_b)) \
        .shift_exponent("lam", n - l)
    term2 = (dressed(+1, True, "a", leg_a) * dressed(-1, True, "b", leg_b)) \
        .shift_exponent("lam", l - n).shift_exponent("Q", n - l)
    resid = (term1 - term2).coeff_of("lam", 0)
    for name in [v for v in resid.vars if v[:2] in ("qa", "qb")]:
        w = resid.wins[name]
        xs, ys = TS.var("x" + name[2:], w), TS.var("y" + name[2:], w)
        if not any(name in g for g in resid.caps):
            resid = resid.subst(name, xs + ys if name[:2] == "qa" else xs - ys)
    return resid


def test_residue_only_products_match_full_products():
    d_a = fock_one(EW) + TS.var(fock_var("a", 0, SectorIndex("k", 0)),
                                up_win(3)).truncated({"eps": EW})
    d_b = fock_one(EW)
    for (n, l) in [(1, 0), (0, 1)]:
        got = hqe_residue_eval(3, 2, d_a, d_b, n, l, 2, EW)
        want = _full_product_residue(3, 2, d_a, d_b, n, l, 2, EW)
        assert not got.is_zero()
        assert got.vars == want.vars
        assert got.terms == want.terms
        assert got.wins == want.wins
        assert got.caps == want.caps


def test_toda_hqe_vacuum_family():
    # the exact polynomial jet of exp(eps^-2 sum n y_n yb_n Q^n): all-zero
    # through flow-bidegree (2,2); jet errors only above the caps
    from orbitoda.hqe import toda_hqe_report
    tau = two_toda_vacuum_tau(2, 3, exact_jet=True)
    for (n, l) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        rep = toda_hqe_report(tau, n, l, 2, EW, dcap=2)
        assert rep.ok, (n, l, rep.first_discrepancy)


def test_toda_hqe_constant_tau_fails_off_diagonal():
    # by the defining wave equations the constant function is
    # not a tau function; the bilinear residue detects it off the diagonal
    tau = TauJet(TS.scalar(1, {"eps": EW}), 2, 2)
    assert toda_hqe_eval(tau, 0, 0, 2, EW).is_zero()
    assert toda_hqe_eval(tau, 1, 1, 2, EW).is_zero()
    assert not toda_hqe_eval(tau, 1, 0, 2, EW).is_zero()
    assert not toda_hqe_eval(tau, 0, 1, 2, EW).is_zero()


def test_toda_hqe_negative_control_located():
    # a wrong dispersion coefficient (2 instead of 1) is caught with a
    # located slot at low bidegree
    from orbitoda.hqe import toda_hqe_report
    yw = up_win(8)
    arg = TS.monomial({"y1": 1, "yb1": 1, "Q": 1, "eps": -2},
                      {"y1": yw, "yb1": yw, "Q": exact_win(-16, 16),
                       "eps": EW}, coeff=2)
    arg = arg.with_cap(["y1"], 4).with_cap(["yb1"], 4)
    bad = TauJet(arg.exp().as_exact(), 1, 1)
    rep = toda_hqe_report(bad, 1, 0, 1, EW, dcap=2)
    assert not rep.ok
    assert rep.first_discrepancy is not None
    assert rep.first_discrepancy["at"]["bidegree"] == [1, 0]


GOLDEN_HIROTA_D2 = "(2)*c2^2"


def test_lowest_hirota_golden_extraction():
    """Lowest bilinear constraints at n = l on a small generic tau jet.

    tau = 1 + c1 x + c2 (y1 + yb1) + c3 y1 yb1 with free coefficient
    variables.  The machine extraction places the lowest nonvanishing
    Hirota content of this jet in the pure d^2-slots (the mixed (1,1)-slot
    vanishes identically on it); the yd1^2-coefficient is frozen golden.
    """
    cw = exact_win(0, 2)
    xw = exact_win(0, 4)
    c1 = TS.var("c1", cw)
    c2 = TS.var("c2", cw)
    c3 = TS.var("c3", cw)
    yv = TS.from_poly("y1", {1: 1})
    ybv = TS.from_poly("yb1", {1: 1})
    ser = (1 + c1 * TS.var("x", xw) + c2 * (yv + ybv) + c3 * yv * ybv) \
        .truncated({"eps": EW}).as_exact()
    tau = TauJet(ser, 1, 1)
    resid = toda_hqe_eval(tau, 0, 0, 1, EW)
    assert not resid.is_zero()
    mixed = resid.coeff_of("yd1", 1).coeff_of("wd1", 1)
    assert mixed.is_zero()
    d2 = resid.coeff_of("yd1", 2)
    for v in list(d2.wins):
        if v != "c2":
            d2 = d2.coeff_of(v, 0)
    assert str(d2) == GOLDEN_HIROTA_D2
