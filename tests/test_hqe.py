"""Vertex symbols, the flow-variable change, and HQE residue evaluation."""

from fractions import Fraction as F

import pytest

from orbitoda import hqe
from orbitoda.algebra import symmetric_e, symmetric_h
from orbitoda.cohomology import SectorIndex
from orbitoda.errors import WindowUnderflow
from orbitoda.hqe import (a_matrix_row, apply_vertex, build_gamma,
                          commutation_factor, flow_var, fock_one, fock_var,
                          hqe_residue_eval, lemma_inv_sums, residue_vertices,
                          toda_hqe_eval, toda_hqe_report, translate,
                          translation_symbol, verify_change_matrix,
                          verify_lemma_inv, verify_theorem2_transform,
                          vertex_on_leg)
from orbitoda.rationals import ParamRat as PR
from orbitoda.series import (TruncSeries as TS, VarWindow, down_win,
                             exact_win, up_win)
from orbitoda.toda import TauJet, two_toda_vacuum_tau

EW = exact_win(-16, 16)


def test_lemma_inv_matrix():
    for k in range(1, 6):
        assert verify_lemma_inv(k, 8).ok


def _lemma_inv_sums_per_pair(k, L_max):
    """The lemma-inv sums with every symmetric polynomial, product and
    reciprocal built afresh for each (i, L, N): the reference for the
    hoisted ``lemma_inv_sums``."""
    for i in range(1, k + 1):
        base = F(i, k)
        for L in range(L_max + 1):
            e_args = [PR.rational(1 / (base + a)) for a in range(L)]
            for N in range(L + 1):
                h_args = [PR.rational(1 / (base + a)) for a in range(N + 1)]
                acc = PR.zero()
                for n in range(N, L + 1):
                    acc = acc + symmetric_e(L - n, e_args) * \
                        symmetric_h(n - N, h_args)
                top = None
                if L > N:
                    prod = TS.from_poly("nu", {0: 1})
                    for a in range(L):
                        prod = prod * TS.from_poly(
                            "nu", {0: 1, 1: PR.rational(1 / (base + a))})
                    inv = TS.from_poly("nu", {0: 1})
                    for a in range(N + 1):
                        inv = inv * TS.from_poly(
                            "nu", {0: 1, 1: PR.rational(1 / (base + a))})
                    ratio = prod * inv.recip_within({"nu": up_win(L - N + 1)})
                    top = ratio.terms.get((L - N,), PR.zero())
                yield i, L, N, acc, top


@pytest.mark.parametrize("k", range(1, 6))
def test_lemma_inv_sums_match_per_pair_reference(k):
    got = list(lemma_inv_sums(k, 8))
    want = list(_lemma_inv_sums_per_pair(k, 8))
    assert len(got) == len(want) == k * 45
    for g, w in zip(got, want):
        assert g == w


def test_lemma_inv_negative_control(monkeypatch):
    # one perturbed h-row entry: h_1 of the N = 1 row breaks the first sum
    # that reads it, at i = 1, L = 2
    h_row = hqe.h_row

    def perturbed(l, xs):
        row = h_row(l, xs)
        if len(xs) == 2:
            row[1] = row[1] + 1
        return row
    monkeypatch.setattr(hqe, "h_row", perturbed)
    rep = verify_lemma_inv(3, 8)
    assert rep.status == "fail"
    assert rep.first_discrepancy["at"] == {"i": 1, "N": 1, "L": 2}


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
    row = a_matrix_row(k, 1, 1, 6)
    for (L, alpha), c in slot.items():
        assert alpha == SectorIndex("k", 1)
        assert (c + row[L]).is_zero()


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
    win = exact_win(0, 1)
    name = fock_var("a", 0, k0)
    elem = (1 + TS.var(name, win)) ** 2
    elem = elem.truncated({"eps": EW})
    one_then_two = translate(translate(elem, "a", {k0: 1}, EW), "a", {k0: 2}, EW)
    three = translate(elem, "a", {k0: 3}, EW)
    assert (one_then_two - three).is_zero()


def _translate_by_subst(elem, leg, shifts, eps_win):
    """e^{c 1-hat_alpha} as one substitution q_0^alpha -> q_0^alpha + c eps
    per slot: the reference for ``translate``'s exponential of a
    derivation."""
    out = elem
    for alpha, c in shifts.items():
        name = fock_var(leg, 0, alpha)
        if name not in out.wins:
            continue
        repl = TS.var(name, out.wins[name]) + \
            TS.from_poly("eps", {1: c}).truncated({"eps": eps_win})
        out = out.subst(name, repl)
    return out


def _known(s, v):
    w = s._win(v)
    return w.known_lo(), w.known_hi()


@pytest.mark.parametrize("eps_win", [EW, up_win(3)])
def test_translate_matches_substitution(eps_win):
    k0, m0 = SectorIndex("k", 0), SectorIndex("m", 0)
    qk, qm = fock_var("a", 0, k0), fock_var("a", 0, m0)
    elems = [fock_one(eps_win),
             (1 + TS.var(qk, exact_win(0, 1))).truncated({"eps": eps_win}),
             ((2 + TS.var(qk, exact_win(0, 2))) ** 2
              * (TS.var(qm, exact_win(0, 1)) - TS.from_poly("eps", {1: 3}))
              ).truncated({"eps": eps_win})]
    for elem in elems:
        for shifts in ({k0: 1}, {m0: -2}, {k0: 2, m0: 1}, {k0: 0, m0: 3}):
            got = translate(elem, "a", shifts, eps_win)
            want = _translate_by_subst(elem, "a", shifts, eps_win)
            assert got.vars == want.vars
            assert got.terms == want.terms
            assert got.caps == want.caps
            for v in set(got.vars) | set(want.vars):
                assert _known(got, v) == _known(want, v), (v, shifts)


def test_hqe_trivial_residue():
    # D' = D'' = 1 with zero vertex windows: residue of
    # (lam^{n-l} - (Q/lam)^{n-l}) dlam/lam vanishes for every pair
    one = fock_one(EW)
    for (n, l) in [(0, 0), (1, 0), (0, 1), (2, 5)]:
        resid = hqe_residue_eval(3, 2, one, one, n, l, 0, EW)
        assert resid.is_zero()


def test_hqe_bilinearity():
    k0 = SectorIndex("k", 0)
    win = exact_win(0, 1)
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


def test_bilinearity_builds_each_vertex_operator_once(monkeypatch):
    import orbitoda.hqe
    built = []
    build = orbitoda.hqe.build_gamma

    def counting(*args):
        built.append(args)
        return build(*args)
    monkeypatch.setattr(orbitoda.hqe, "build_gamma", counting)
    rep = orbitoda.hqe.verify_bilinearity(3, 2)
    assert rep.ok and len(built) == 4


def test_shared_vertex_operators_give_the_residue():
    d_a = fock_one(EW) + TS.var(fock_var("a", 0, SectorIndex("k", 0)),
                                exact_win(0, 1)).truncated({"eps": EW})
    d_b = fock_one(EW)
    vertices = residue_vertices(3, 2, 1, 0, 4, EW)
    for d in (d_a, d_a.scale(F(2))):
        got = hqe_residue_eval(3, 2, d, d_b, 1, 0, 4, EW, vertices)
        want = hqe_residue_eval(3, 2, d, d_b, 1, 0, 4, EW)
        assert not got.is_zero()
        assert (got.vars, got.wins, got.caps) == \
            (want.vars, want.wins, want.caps)
        assert list(got.terms.items()) == list(want.terms.items())


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
        return apply_vertex(vertex_on_leg(sym, leg, eps_win, span, qdeg_cap),
                            elem)

    term1 = (dressed(-1, False, "a", leg_a) * dressed(+1, False, "b", leg_b)) \
        .shift_exponent("lam", n - l)
    term2 = (dressed(+1, True, "a", leg_a) * dressed(-1, True, "b", leg_b)) \
        .shift_exponent("lam", l - n).shift_exponent("Q", n - l)
    return (term1 - term2).coeff_of("lam", 0)


def test_residue_only_products_match_full_products():
    d_a = fock_one(EW) + TS.var(fock_var("a", 0, SectorIndex("k", 0)),
                                exact_win(0, 1)).truncated({"eps": EW})
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
    tau = two_toda_vacuum_tau(2, 3, exact_jet=True)
    for (n, l) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        rep = toda_hqe_report(tau, n, l, 2)
        assert rep.ok, (n, l, rep.first_discrepancy)


def test_toda_hqe_constant_tau_fails_off_diagonal():
    # by the defining wave equations the constant function is
    # not a tau function; the bilinear residue detects it off the diagonal
    tau = TauJet(TS.scalar(1, {"eps": EW}), 2, 2)
    assert toda_hqe_eval(tau, 0, 0, 2).is_zero()
    assert toda_hqe_eval(tau, 1, 1, 2).is_zero()
    assert not toda_hqe_eval(tau, 1, 0, 2).is_zero()
    assert not toda_hqe_eval(tau, 0, 1, 2).is_zero()


def _perturbed_tau():
    """exp(2 eps^-2 y1 yb1 Q): the vacuum with a wrong dispersion
    coefficient (2 instead of 1), so not a 2-Toda tau function."""
    yw = up_win(8)
    arg = TS.monomial({"y1": 1, "yb1": 1, "Q": 1, "eps": -2},
                      {"y1": yw, "yb1": yw, "Q": exact_win(-16, 16),
                       "eps": EW}, coeff=2)
    arg = arg.with_cap(["y1"], 4).with_cap(["yb1"], 4)
    return TauJet(arg.exp().as_exact(), 1, 1)


def test_toda_hqe_negative_control_located():
    # a wrong dispersion coefficient is caught with a located slot at low
    # bidegree
    rep = toda_hqe_report(_perturbed_tau(), 1, 0, 1)
    assert not rep.ok
    assert rep.first_discrepancy is not None
    assert _bidegree(rep.first_discrepancy["at"]["at"]) == (1, 0)


def _bidegree(exps):
    """The flow bidegree of a monomial's exponents: their sums over the
    unbarred (y...) and the barred (w...) flow times."""
    return tuple(sum(e for v, e in exps.items() if v.startswith(t))
                 for t in "yw")


def _hirota_form(resid, depth, top):
    """Hirota's form of a leg residue: y' = s + d and y'' = s - d for every
    time of either kind, with s and d on the windows [0, top] (soft top)."""
    sw = VarWindow(0, top, True, False)
    for j in range(1, depth + 1):
        for barred in (False, True):
            s_v = TS.var(flow_var("s", barred, j), sw)
            d_v = TS.var(flow_var("d", barred, j), sw)
            for leg, repl in (("a", s_v + d_v), ("b", s_v - d_v)):
                name = flow_var(leg, barred, j)
                if name in resid.wins:
                    resid = resid.subst(name, repl)
    return resid


def _first_offender_and_jet_error(rep):
    at = rep.first_discrepancy
    return (at and _bidegree(at["at"]["at"]),
            tuple(rep.max_order_verified["first_jet_error_at"]))


@pytest.mark.parametrize("case, n, l, want", [
    ("vacuum", 0, 0, (None, (4, 4))),
    ("vacuum", 0, 1, (None, (3, 4))),
    ("vacuum", 1, 0, (None, (4, 3))),
    ("vacuum", 1, 1, (None, (4, 4))),
    ("perturbed", 1, 0, ((1, 0), (3, 2))),
])
def test_leg_reading_matches_hirota_form(monkeypatch, case, n, l, want):
    # the s/d change keeps each flow bidegree and is invertible, so the leg
    # residue and its Hirota form (on s/d windows that cut nothing) have the
    # same first offender and the same first jet error
    tau = two_toda_vacuum_tau(1, 3, exact_jet=True) if case == "vacuum" \
        else _perturbed_tau()
    legs = toda_hqe_report(tau, n, l, 1)
    monkeypatch.setattr(hqe, "toda_hqe_eval", lambda *args: _hirota_form(
        toda_hqe_eval(*args), 1, 20))
    hirota = toda_hqe_report(tau, n, l, 1)
    assert _first_offender_and_jet_error(legs) == want
    assert _first_offender_and_jet_error(hirota) == want


@pytest.mark.parametrize("ycap", [3, 4])
def test_jet_error_follows_the_flow_degree_cap(ycap):
    # the vacuum jet is exact through flow degree ycap; the first nonzero
    # residue class sits one degree above it on each side
    tau = two_toda_vacuum_tau(1, ycap, exact_jet=True)
    rep = toda_hqe_report(tau, 0, 0, 1)
    assert rep.ok
    assert rep.max_order_verified["first_jet_error_at"] == \
        (ycap + 1, ycap + 1)


GOLDEN_HIROTA_D2 = "(2)*c2^2"


def test_lowest_hirota_golden_extraction():
    """Lowest bilinear constraints at n = l on a small generic tau jet.

    tau = 1 + c1 x + c2 (y1 + yb1) + c3 y1 yb1 with free coefficient
    variables.  In Hirota's form (s/d windows [0, 2]) the extraction places
    the lowest nonvanishing content of this jet in the pure d^2-slots (the
    mixed (1,1)-slot vanishes identically on it); the d_1^2-coefficient
    is frozen golden.
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
    resid = _hirota_form(toda_hqe_eval(tau, 0, 0, 1), 1, 2)
    assert not resid.is_zero()
    yd, wd = flow_var("d", False, 1), flow_var("d", True, 1)
    mixed = resid.coeff_of(yd, 1).coeff_of(wd, 1)
    assert mixed.is_zero()
    d2 = resid.coeff_of(yd, 2)
    for v in list(d2.wins):
        if v != "c2":
            d2 = d2.coeff_of(v, 0)
    assert str(d2) == GOLDEN_HIROTA_D2


def test_lambda_residue_reads_a_soft_bottom_inside_its_window():
    # toda_hqe_eval takes the lambda-residue with mul_coeff, which reads a
    # soft-bottomed factor inside the product's known window and refuses
    # an exponent below it
    hard = TS.from_poly("lam", {-1: 1, 0: 2})
    soft = TS.from_poly("lam", {-1: 1, 0: 2}).truncated(
        {"lam": down_win(-3, hi=0)})
    got = hard.mul_coeff(soft, "lam", 0)
    want = (hard * soft).coeff_of("lam", 0)
    assert (got.vars, got.wins, got.caps, list(got.terms.items())) == \
        (want.vars, want.wins, want.caps, list(want.terms.items()))
    assert (hard * soft).wins["lam"].known_lo() == -3
    with pytest.raises(WindowUnderflow):
        hard.mul_coeff(soft, "lam", -4)


