"""Shift-operator algebra, wave operators, flows, and the reduction."""

from fractions import Fraction as F

import pytest

from test_series import taylor_shift

from orbitoda.errors import DivisionByZeroTau, NonUnit
from orbitoda.rationals import ParamRat as PR
from orbitoda.series import (TruncSeries as TS, VarWindow, down_win,
                             sum_series, up_win)
from orbitoda.toda import (ShiftOp, TauJet, _generic_l, _generic_lbar,
                           _solve_difference, _x_antiderivative, x_shift,
                           check_wave_equations, dress,
                           gauge_qpower_check, identity_op, lambda_op,
                           _d_time_op, log_lax, log_lax_bar, tau_to_wave,
                           two_toda_vacuum_tau, vacuum_lbar,
                           verify_reduced_vacuum, verify_solve_recovery,
                           verify_flow_band_shape, verify_vacuum,
                           verify_zakharov_shabat, yname)

EW = up_win(3)


def test_lambda_commutation():
    u = TS.from_poly("x", {1: 1}).truncated({"eps": EW})
    lam = lambda_op(1)
    out = lam.mul(ShiftOp({0: u}, 0, True), EW)
    want = TS.from_poly("x", {1: 1}) + TS.from_poly("eps", {1: 1})
    assert (out.bands[1] - want.truncated({"eps": EW})).is_zero()


def fresh(op):
    """op with no Taylor shift kept."""
    return ShiftOp(op.bands, op.lo, op.lo_hard, op.deriv, op.logq)


def test_kept_band_shifts_give_the_fresh_products():
    # products that reuse the shifted bands of their right factor, on two
    # eps windows and across a power, equal products of fresh operators
    ew2 = up_win(2)
    L, Lb = _generic_l(EW), _generic_lbar(EW)
    for a, b, ew in ((L, Lb, EW), (Lb, L, EW), (L, L, EW), (L, Lb, ew2),
                     (L.mul(Lb, EW), Lb, EW), (Lb, L.mul(Lb, EW), EW)):
        for _ in range(2):
            got = a.mul(b, ew)
            want = fresh(a).mul(fresh(b), ew)
            assert got == want
            assert got.eq_report(want) is None
            for i in got.bands:
                assert got.bands[i].wins == want.bands[i].wins
                assert got.bands[i].caps == want.bands[i].caps
                assert got.bands[i].terms == want.bands[i].terms
    assert {key[2] for key in Lb.shifted} == {EW, ew2}
    # a commutator of operators with no eps d_x part keeps the shifts on
    # its factors themselves
    M = L.mul(L, EW)
    assert M.commutator(Lb, EW) == fresh(M).commutator(fresh(Lb), EW)
    assert M.shifted
    # each shift by i of band j is kept once per eps window, none by 0
    assert all(i for i, _, _ in L.shifted)
    assert len(L.shifted) == len(set(L.shifted))


def test_each_operator_keeps_its_own_shifts():
    L, M = _generic_l(EW), _generic_l(EW)
    L.mul(M, EW)
    assert M.shifted and _generic_l(EW).shifted == {}


def test_replace_and_equality_ignore_the_kept_shifts():
    L = _generic_l(EW)
    L.mul(L, EW)
    assert L.shifted
    assert L == fresh(L) and "shifted" not in repr(L)
    trimmed = ShiftOp({i: c for i, c in L.bands.items() if i <= 0}, L.lo,
                      L.lo_hard, L.deriv, L.logq)
    assert trimmed.shifted == {}
    assert trimmed.mul(L, EW) == fresh(trimmed).mul(fresh(L), EW)
    assert L.mul(trimmed, EW) == fresh(L).mul(fresh(trimmed), EW)


def test_split_projectors():
    a = TS.from_poly("x", {2: 1}).truncated({"eps": EW})
    M = ShiftOp({1: TS.scalar(1, {"eps": EW}), -1: a}, -1, True)
    plus = M.split_plus()
    assert list(plus.bands) == [1]
    assert plus.split_plus().eq_report(plus) is None
    assert plus.split_minus().is_zero()
    recombined = plus + M.split_minus()
    assert recombined.eq_report(M) is None


def test_square_matches_application_oracle():
    # apply (Lambda + a Lambda^-1) twice to test monomials u and compare
    # with the banded square acting once
    a = TS.from_poly("x", {2: 1}).truncated({"eps": EW})
    M = ShiftOp({1: TS.scalar(1, {"eps": EW}), -1: a}, -1, True)
    sq = M.mul(M, EW)
    for u in (TS.from_poly("x", {0: 1}), TS.from_poly("x", {1: 1}),
              TS.from_poly("x", {3: F(1, 2), 1: -2})):
        u = u.truncated({"eps": EW})
        twice = apply_marked(M, apply_marked(M, u))
        once = apply_marked(sq, u)
        assert (twice - once).is_zero()
    # band 0 carries a(x) + a(x+eps) per the shift bookkeeping
    xe = TS.from_poly("x", {1: 1}) + TS.from_poly("eps", {1: 1})
    want0 = (TS.from_poly("x", {2: 1}) + xe * xe).truncated({"eps": EW})
    assert (sq.bands[0] - want0).is_zero()


def apply_marked(op, u):
    """op acting on the function u, its band i marked by s^i."""
    return sum_series(c * taylor_shift(u, "x", "eps", i, EW)
                      * TS.from_poly("s", {i: 1}) for i, c in op.bands.items())


@pytest.mark.parametrize("hard_a, hard_b, lo, lo_hard", [
    (False, True, 0, False),      # a.lo + b.top = -2 + 2
    (True, False, -2, False),     # b.lo + a.top = -3 + 1
    (False, False, 0, False),     # the larger of the two
    (True, True, -2, True),       # lowest bands -1 + -1, exact
])
def test_banded_product_window_rule(hard_a, hard_b, lo, lo_hard):
    # A = Lambda + a Lambda^-1 (soft floor -2), B = 2/7 Lambda^2 + b + a
    # Lambda^-1 (soft floor -3); a hard floor sits at the lowest band
    a = TS.from_poly("x", {2: 1}).truncated({"eps": EW})
    b = TS.from_poly("x", {1: F(1, 2), 0: -1}).truncated({"eps": EW})
    A = ShiftOp({1: TS.scalar(1, {"eps": EW}), -1: a},
                -1 if hard_a else -2, hard_a)
    B = ShiftOp({2: TS.scalar(F(2, 7), {"eps": EW}), 0: b, -1: a},
                -1 if hard_b else -3, hard_b)
    prod = A.mul(B, EW)
    assert (prod.lo, prod.lo_hard) == (lo, lo_hard)
    assert not prod.bands[lo].is_zero()
    known = {} if lo_hard else {"s": down_win(lo)}
    for u in (TS.from_poly("x", {0: 1}), TS.from_poly("x", {1: 1}),
              TS.from_poly("x", {3: F(1, 2), 1: -2})):
        u = u.truncated({"eps": EW})
        twice = apply_marked(A, apply_marked(B, u))
        once = apply_marked(prod, u)
        assert (twice - once).truncated(known).is_zero()


def test_single_band_inverse_keeps_a_soft_floor():
    # (1 + unknown Lambda^{<-3})^-1 is not known below Lambda^-3
    inv = ShiftOp({0: TS.scalar(1, {"eps": EW})}, -3).inverse(EW)
    assert (inv.lo, inv.lo_hard) == (-3, False)
    assert inv.eq_report(identity_op()
                         + ShiftOp({-5: TS.scalar(7)}, -5, True)) is None
    # (2 Lambda + ...)^-1 = Lambda^-1 / 2, known from -2 - 2
    op = ShiftOp({1: TS.scalar(2, {"eps": EW})}, -2)
    inv = op.inverse(EW)
    assert (inv.lo, inv.lo_hard) == (-4, False)
    assert inv.eq_report(lambda_op(-1).scale(F(1, 2))) is None
    assert op.mul(inv, EW).eq_report(identity_op()) is None
    assert inv.mul(op, EW).eq_report(identity_op()) is None


def test_failing_eq_report_names_band_and_exponents():
    a = TS.from_poly("x", {2: 1}).truncated({"eps": EW})
    M = ShiftOp({1: TS.scalar(1, {"eps": EW}), -1: a}, -1, True)
    N = M + ShiftOp({-1: TS.from_poly("x", {1: 3}),
                     0: TS.from_poly("eps", {2: F(1, 2)})}, -1, True)
    # the lowest differing band, then its least key by its nonzero
    # exponents, with both sides' coefficients there
    assert M.eq_report(N) == ({"band": -1, "at": {"x": 1}}, 0, 3)
    assert M.eq_report(ShiftOp(M.bands, -1, True, PR.one())) == \
        ({"band": "eps d_x"}, 0, 1)
    assert M.eq_report(ShiftOp(M.bands, -1, True, logq=PR.rational(F(2, 3)))) \
        == ({"band": "log Q"}, 0, F(2, 3))
    # a soft floor hides a difference below it
    S = ShiftOp({0: TS.scalar(1, {"eps": EW})}, -2)
    assert S.eq_report(S + ShiftOp({-3: TS.scalar(5)}, -3, True)) is None
    assert S.eq_report(S + ShiftOp({-2: TS.scalar(5)}, -2, True)) == \
        ({"band": -2, "at": {}}, 0, 5)


def test_mul_associativity_random():
    a = TS.from_poly("x", {1: F(1, 2)}).truncated({"eps": EW})
    b = TS.from_poly("x", {0: -1, 2: F(1, 3)}).truncated({"eps": EW})
    A = ShiftOp({1: TS.scalar(1, {"eps": EW}), 0: a}, 0, True)
    B = ShiftOp({-1: b, 1: TS.scalar(F(2, 7), {"eps": EW})}, -1, True)
    C = ShiftOp({0: a, -2: b}, -2, True)
    lhs = A.mul(B, EW).mul(C, EW)
    rhs = A.mul(B.mul(C, EW), EW)
    assert lhs.eq_report(rhs) is None


def test_tau_requires_invertible_constant():
    with pytest.raises(DivisionByZeroTau):
        TauJet(TS.from_poly("x", {1: 1}), 0, 0)


def test_vacuum_tau_trivial_wave():
    tau = TauJet(TS.scalar(1, {"eps": EW}), 0, 0)
    p_op, q_op = tau_to_wave(tau, 3, EW)
    assert p_op.eq_report(identity_op()) is None
    assert q_op.eq_report(identity_op()) is None
    L, lbar = dress(p_op, q_op, EW, 3)
    assert L.eq_report(lambda_op(1)) is None
    assert lbar.eq_report(vacuum_lbar()) is None


def test_wave_band_knows_the_flow_orders_of_its_own_powers():
    # band -i of P (i of Q) is the lam^-i coefficient of a Miwa shift,
    # which only its first i powers reach: i derivatives take the y-cap
    # from 3 to 3 - i and the y1-window from degree 6 to 6 - i
    p_op, q_op = tau_to_wave(two_toda_vacuum_tau(2, 3), 2, EW)
    for op, names, sign in ((p_op, ("y1", "y2"), -1),
                            (q_op, ("yb1", "yb2"), 1)):
        for i in (1, 2):
            c = op.bands[sign * i]
            assert c.caps[frozenset(names)] == 3 - i
            assert c.wins[names[0]] == up_win(6 - i)
    assert q_op.bands[0].caps[frozenset(("yb1", "yb2"))] == 3


@pytest.mark.parametrize("depth", [2, 3])
def test_wave_equations_compare_every_band(depth, monkeypatch):
    # every difference band of every flow-1 check knows its flow-degree-0
    # terms, so none of the checks is vacuous
    diffs = []
    eq_report = ShiftOp.eq_report

    def spy(self, other):
        diffs.append(self - other)
        return eq_report(self, other)

    monkeypatch.setattr(ShiftOp, "eq_report", spy)
    assert check_wave_equations(two_toda_vacuum_tau(depth, 3), depth, EW).ok
    assert len(diffs) == 4
    for d in diffs:
        assert d.bands
        assert all(cap >= 0 for c in d.bands.values()
                   for cap in c.caps.values())


def test_d_time_op_keeps_the_bands_it_zeroes():
    # a zero band carries the window on which eps d/dy1 is known to vanish
    p_op, q_op = tau_to_wave(two_toda_vacuum_tau(2, 3), 2, EW)
    for op in (p_op, q_op):
        d = _d_time_op(op, "y1")
        assert set(d.bands) == {i for i, c in op.bands.items()
                                if "y1" in c.wins}
    assert all(c.is_zero() for c in _d_time_op(p_op, "y1").bands.values())


def test_vacuum_report():
    assert verify_vacuum(EW).ok


def test_linearized_tau_wave_coefficient():
    # tau = 1 + c y_1: w_1 = -eps c/(1 + c y_1) to the declared windows
    c = F(3, 5)
    tau_ser = (1 + TS.var(yname(1), up_win(4)).scale(c)).truncated({"eps": EW})
    tau = TauJet(tau_ser, 1, 0)
    p_op, _ = tau_to_wave(tau, 2, EW)
    w1 = p_op.bands.get(-1)
    denom = (1 + TS.var(yname(1), up_win(4)).scale(c)).recip()
    want = (denom * TS.from_poly("eps", {1: 1})).scale(-c).truncated({"eps": EW})
    assert (w1 - want).is_zero()


def test_wave_equations_on_vacuum_family():
    tau = two_toda_vacuum_tau(4, 3)
    assert check_wave_equations(tau, 4, EW, flows=2).ok


def test_constant_tau_is_not_a_tau_function():
    # the wave equations fail for tau = 1: eps d Q-op = 0 but (L)_+ Q-op != 0
    tau = TauJet(TS.scalar(1, {"eps": EW}), 1, 1)
    rep = check_wave_equations(tau, 2, EW, flows=1)
    assert not rep.ok


def test_dressing_single_coefficient():
    w = TS.from_poly("x", {1: 1}).truncated({"eps": EW})
    p = ShiftOp({0: TS.scalar(1, {"eps": EW}), -1: w}, -4, False)
    L = p.mul(lambda_op(1), EW).mul(p.inverse(EW), EW)
    # L = Lambda + (w(x) - w(x+eps)) + O(Lambda^-1)
    band0 = L.bands[0]
    want = -TS.from_poly("eps", {1: 1}).truncated({"eps": EW})
    assert (band0 - want).is_zero()


def test_log_lax_vacuum_forms():
    p = identity_op()
    lg = log_lax(p, EW)
    assert all(c.is_zero() for c in lg.bands.values())
    assert (lg.deriv - PR.one()).is_zero()
    lgb = log_lax_bar(identity_op(), EW, 3)
    assert (lgb.deriv + PR.one()).is_zero()
    assert (lgb.logq - PR.one()).is_zero()


def test_zakharov_shabat():
    assert verify_zakharov_shabat(3, 3).ok


def test_reduction_suite():
    for km in [(2, 1), (3, 2)]:
        for rep in verify_reduced_vacuum(*km):
            assert rep.ok, (rep.name, rep.first_discrepancy)
    assert verify_solve_recovery(2).ok
    assert verify_solve_recovery(3).ok
    assert verify_flow_band_shape(2, 1).ok
    assert verify_flow_band_shape(3, 2).ok


def test_flow_band_negative_control(monkeypatch):
    # every commutator gains x Lambda^2, above the band [-1, 1] of (2, 1):
    # the report must fail at that band in the first flow
    commutator = ShiftOp.commutator

    def perturbed(self, other, eps_win):
        out = commutator(self, other, eps_win)
        return out + ShiftOp({2: TS.from_poly("x", {1: 1})}, out.lo,
                             out.lo_hard)
    monkeypatch.setattr(ShiftOp, "commutator", perturbed)
    rep = verify_flow_band_shape(2, 1)
    assert rep.status == "fail"
    assert rep.first_discrepancy == {
        "at": {"flow": "y1", "band": 2, "at": {"x": 1}},
        "lhs": "1", "rhs": "0"}


def test_gauge_bookkeeping():
    assert gauge_qpower_check().ok


def test_dress_undress_roundtrip():
    # P^-1 L P = Lambda for any unit-leading dressing, to the band window
    w1 = TS.from_poly("x", {1: F(1, 3)}).truncated({"eps": EW})
    w2 = TS.from_poly("x", {2: F(-1, 5)}).truncated({"eps": EW})
    p = ShiftOp({0: TS.scalar(1, {"eps": EW}), -1: w1, -2: w2}, -4, False)
    p_inv = p.inverse(EW)
    L = p.mul(lambda_op(1), EW).mul(p_inv, EW)
    back = p_inv.mul(L, EW).mul(p, EW)
    assert back.eq_report(lambda_op(1)) is None


# -- the difference solve: the closed form against the residual loop ------


def _solve_difference_reference(rhs, k, eps_win):
    """w with w(x + k eps) - w(x) = rhs, order by order in eps, on the
    declared ``eps_win``: the lowest eps-order r0 of the residual fixes the
    x-antiderivative placed at eps^(r0 - 1), its x-constant set to zero."""
    if rhs.is_zero():
        return TS.scalar(0, {"eps": eps_win})
    w = TS.scalar(0, {"eps": eps_win})
    guard = 0
    while True:
        guard += 1
        if guard > 200:
            raise NonUnit("difference solve did not terminate")
        resid = w.exp_derivation(x_shift(k), {"eps": eps_win}) - w - rhs
        if resid.is_zero():
            return w
        ei = resid.vars.index("eps")
        r0 = min(key[ei] for key in resid.terms)
        layer = resid.coeff_of("eps", r0)
        anti = _x_antiderivative(layer).scale(F(-1, k))
        w = w + anti * TS.monomial({"eps": r0 - 1}, {"eps": eps_win})
        if r0 - 1 < eps_win.lo:
            raise NonUnit("difference solve fell below the eps window")


EPS_TAIL = TS.from_poly("eps", {1: 1, 2: F(1, 2), 3: 1, 4: 5, 5: 7, 6: -2})
RHS = {
    # x^0 terms, and an eps^0 term that puts w at eps^-1
    "with x^0": TS.from_poly("x", {0: 1, 1: -1, 3: F(1, 3)})
    * (EPS_TAIL + TS.from_poly("eps", {0: 2})),
    "without x^0": TS.from_poly("x", {2: 1, 1: F(1, 3)}) * EPS_TAIL,
    "free of x": TS.from_poly("Q", {1: 1}) * EPS_TAIL,
    "zero": TS.scalar(0, {"eps": up_win(9)}),
}
TOP = 3


def _known_to(rhs, top):
    return rhs.truncated({"eps": up_win(top)})


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(RHS))
def test_difference_solve_in_closed_form(k, case):
    rhs = _known_to(RHS[case], TOP)
    w = _solve_difference(rhs, k)
    # known one eps-order short of rhs, from the eps-order the solve starts
    assert w.wins["eps"] == VarWindow(-1, TOP - 1, True, False)
    assert w.coeff_of("x", 0).is_zero()
    # the residual loop on a declared window agrees below rhs's eps-top
    ref = _solve_difference_reference(rhs, k, VarWindow(-3, TOP, True, False))
    for r in range(-3, TOP):
        assert (w.coeff_of("eps", r) - ref.coeff_of("eps", r)).is_zero()
    # w(x + k eps) - w(x) = rhs on w's whole known window
    resid = taylor_shift(w, "x", "eps", k) - w - rhs
    assert resid.wins["eps"].known_hi() == TOP - 1
    assert resid.is_zero()
    # each eps-order w claims is the one that rhs known deeper gives
    deep = _solve_difference(_known_to(RHS[case], TOP + 3), k)
    for r in range(-1, TOP):
        assert (w.coeff_of("eps", r) - deep.coeff_of("eps", r)).is_zero()
