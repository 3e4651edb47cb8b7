"""Acceptance suite: one test per criterion, at the stated truncations.

Each test prints a single PASS/FAIL line.  Criterion 10's vacuum sub-check
is implemented literally as stated (constant tau family) and is expected to
fail: the constant function is not a tau function of this hierarchy
normalization (see notes in the wave-equation tests); the genuine vacuum
exponential is run alongside as the passing positive control.
"""

import time
from fractions import Fraction as F

import pytest

from orbitoda.cohomology import SectorIndex
from orbitoda.rationals import ParamRat as PR
from orbitoda.series import TruncSeries as TS, exact_win, up_win

MATRIX = [(2, 1), (3, 2), (4, 3), (5, 2), (5, 3)]


def _line(name, ok, extra=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {extra}")
    return ok


def test_criterion_1_ladder_suite():
    from orbitoda.jfunction import verify_ladder_identities
    ok = True
    for (k, m) in MATRIX:
        t0 = time.monotonic()
        reps = verify_ladder_identities(k, m, 2 * k * m, -6, 2)
        dt = time.monotonic() - t0
        good = all(r.ok for r in reps) and dt < 60.0
        ok = _line(f"1 ladder ({k},{m}) qdeg={2*k*m} z=[-6,2] {dt:.1f}s",
                   good) and ok
    assert ok


def test_criterion_2_qde():
    from orbitoda.jfunction import j_small_z_expansion, verify_qde
    ok = True
    for (k, m) in MATRIX:
        rep = verify_qde(k, m, 2 * k * m, -6, 2)
        ok = _line(f"2 qde ({k},{m}) qdeg={2*k*m}", rep.ok) and ok
    sanity = j_small_z_expansion(3, 2) and j_small_z_expansion(5, 3)
    ok = _line("2 q^0 sanity z*1 + tau*p", sanity) and ok
    assert ok


def test_criterion_3_lemma_inv():
    from orbitoda.hqe import verify_lemma_inv
    ok = True
    for k in range(1, 6):
        rep = verify_lemma_inv(k, 8)
        ok = _line(f"3 lemma-inv k={k} L<=8 (incl. polynomial vanishing)",
                   rep.ok) and ok
    assert ok


def test_criterion_4_theorem2():
    from orbitoda.hqe import verify_theorem2_transform
    ok = True
    for (k, m) in [(3, 2), (5, 2)]:
        t0 = time.monotonic()
        reps = verify_theorem2_transform(k, m, 12)
        dt = time.monotonic() - t0
        good = all(r.ok for r in reps) and dt < 10.0
        ok = _line(f"4 theorem2 ({k},{m}) |mode|<=12 {dt:.1f}s", good) and ok
    assert ok


def test_criterion_5_mirror_pairing():
    from orbitoda.mirror import residue_pairing_matrix
    import random
    ok = True
    for (k, m) in [(2, 1), (3, 2)]:
        matrix, alphas, rep = residue_pairing_matrix(k, m, None, 2)
        pos = {a: i for i, a in enumerate(alphas)}
        vals_ok = rep.ok
        # pinned values from the pairing table
        i0 = pos[("k", 0)]
        vals_ok = vals_ok and matrix[i0][0] == TS.scalar(
            PR.diff().inverse(), matrix[i0][0].wins)
        ok = _line(f"5 pairing ({k},{m}) symbolic jet 2", vals_ok) and ok
    rng = random.Random(11)
    for i in range(3):
        tv = {j: F(rng.randint(-9, 9), rng.randint(1, 9))
              for j in range(1, 8)}
        _, _, rep = residue_pairing_matrix(4, 3, tv, 2)
        ok = _line(f"5 pairing (4,3) rational point {i+1}", rep.ok) and ok
    assert ok


def test_criterion_6_flat_coordinates():
    from orbitoda.mirror import flat_coords_residue, tname, verify_flat_coordinates
    ok = True
    for (k, m) in [(2, 1), (3, 2), (4, 3), (5, 2)]:
        rep = verify_flat_coordinates(k, m, 4)
        ok = _line(f"6 flat routes agree ({k},{m}) degree 4", rep.ok) and ok
    taus = flat_coords_residue(3, 2, 4)
    t1 = TS.from_poly(tname(1), {1: 1})
    want0 = TS.from_poly(tname(3), {1: 1}) + \
        TS.from_poly(tname(5), {1: 1}).scale(PR.nu0())
    pinned = (taus[("k", 1)] - t1.truncated(taus[("k", 1)].wins)).is_zero() \
        and (taus[("k", 0)] - want0.truncated(taus[("k", 0)].wins)).is_zero()
    ok = _line("6 pinned tau^{1/k}=t_1, tau^{0/k}=t_k+nu0 t_N", pinned) and ok
    assert ok


def test_criterion_7_asymptotics():
    from orbitoda.algebra import bernoulli_number, poly_derivative
    from orbitoda.mirror import classical_R, gaussian_moment_oracle, \
        stationary_phase_A
    ok = True
    good = poly_derivative(stationary_phase_A(2)) == {1: F(1), 0: F(-1, 2)}
    for n in range(2, 13):
        an = stationary_phase_A(n)
        good = good and sum(an.values(), F(0)) == \
            bernoulli_number(n) / (n * (n - 1))
        if n < 12:
            lhs = poly_derivative(stationary_phase_A(n + 1))
            good = good and lhs == {e: -(n - 1) * c for e, c in an.items()}
    ok = _line("7 A_n recursion + initial conditions n<=12 "
               "(weight n-1 per the defining PDE; display typo at n>=3)",
               good) and ok
    ok = _line("7 gaussian-moment oracle n<=5", gaussian_moment_oracle(5).ok) \
        and ok
    rz = all(classical_R(k, j, 8)[1].terms.get((0,)) == PR.one()
             for (k, j) in [(3, 1), (5, 2)])
    ok = _line("7 classical factors R = 1 + O(z)", rz) and ok
    assert ok


def test_criterion_8_periods():
    from orbitoda.periods import (phase_primitive_check,
                                  verify_lemma_d_branches,
                                  verify_transformation_law)
    ok = True
    reps = verify_transformation_law(3, 2)
    nontrivial = [r for r in reps if "shift" in r.name]
    ok = _line("8 transformation law, two nontrivial changes x 2 operators",
               len(nontrivial) == 4 and all(r.ok for r in nontrivial)) and ok
    for (k, m) in [(2, 1), (3, 2)]:
        rep = phase_primitive_check(k, m)
        ok = _line(f"8 phase primitives + (I0,I0)df ({k},{m})", rep.ok) and ok
    for k in (2, 3):
        rep = verify_lemma_d_branches(k, alpha_bound=3)
        ok = _line(f"8 lemma-D branches k={k} |alpha|<=3", rep.ok) and ok
    assert ok


def test_criterion_9_toda():
    from orbitoda.toda import (two_toda_vacuum_tau, verify_flow_band_shape,
                               verify_reduced_vacuum, verify_solve_recovery,
                               verify_vacuum, verify_zakharov_shabat)
    ok = True
    ok = _line("9 vacuum tau: P=Q=1, L=Lambda, Lbar=Q/Lambda, zero flows",
               verify_vacuum(up_win(3)).ok) and ok
    ok = _line("9 zakharov-shabat n,l<=3 eps^3",
               verify_zakharov_shabat(3, 3).ok) and ok
    red = all(r.ok for km in [(2, 1), (3, 2)]
              for r in verify_reduced_vacuum(*km))
    ok = _line("9 reduced defining equations at vacuum (solved operators)",
               red) and ok
    ok = _line("9 solve recovers L from curly-L (nontrivial dressing)",
               verify_solve_recovery(2).ok and verify_solve_recovery(3).ok) \
        and ok
    ok = _line("9 flow band shape preserved",
               verify_flow_band_shape(2, 1).ok and
               verify_flow_band_shape(3, 2).ok) and ok
    assert ok


def test_criterion_10_hqe_vacuum_family():
    from orbitoda.hqe import hqe_residue_eval, fock_one, toda_hqe_report
    from orbitoda.toda import two_toda_vacuum_tau
    ew = exact_win(-24, 24)
    ok = True
    tau = two_toda_vacuum_tau(2, 3, exact_jet=True)
    for (n, l) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        rep = toda_hqe_report(tau, n, l, 2, ew, dcap=2)
        ok = _line(f"10 hqe vacuum exponential ({n},{l}) bidegree (2,2)",
                   rep.ok) and ok
    one = fock_one(ew)
    triv = all(hqe_residue_eval(3, 2, one, one, n, l, 0, ew).is_zero()
               for (n, l) in [(0, 0), (1, 0), (0, 1)])
    ok = _line("10 trivial residue (zero vertex windows)", triv) and ok
    assert ok


def test_criterion_10_bilinearity_and_negative_control():
    from orbitoda.hqe import fock_var, fock_one, hqe_residue_eval, \
        toda_hqe_report
    from orbitoda.toda import TauJet
    ew = exact_win(-24, 24)
    k0 = SectorIndex("k", 0)
    da = fock_one(ew) + TS.var(fock_var("a", 0, k0), up_win(3)) \
        .truncated({"eps": ew})
    db = fock_one(ew)
    lhs = hqe_residue_eval(3, 2, da.scale(2), db, 1, 0, 4, ew)
    rhs = hqe_residue_eval(3, 2, da, db, 1, 0, 4, ew).scale(2)
    ok = _line("10 bilinearity", (lhs - rhs).is_zero())
    yw = up_win(8)
    arg = TS.monomial({"y1": 1, "yb1": 1, "Q": 1, "eps": -2},
                      {"y1": yw, "yb1": yw, "Q": exact_win(-16, 16),
                       "eps": ew}, coeff=2)
    arg = arg.with_cap(["y1"], 4).with_cap(["yb1"], 4)
    bad = TauJet(arg.exp().as_exact(), 1, 1)
    rep = toda_hqe_report(bad, 1, 0, 1, ew, dcap=2)
    located = (not rep.ok) and rep.first_discrepancy is not None
    ok = _line("10 negative control: perturbed tau located", located) and ok
    assert ok


@pytest.mark.xfail(
    reason="spec defect: the constant family tau_r = 1 is not a tau function "
    "of this normalization (it fails the defining wave equations "
    "eps d_{y_n} Q-op = (L^n)_+ Q-op); the bilinear residue is nonzero off "
    "the diagonal, e.g. +-2 y_1/eps at (n,l) = (1,0). The genuine vacuum "
    "exponential exp(eps^-2 sum n y_n yb_n Q^n) passes all (n,l) in {0,1}^2.",
    strict=True)
def test_criterion_10_constant_tau_as_stated():
    from orbitoda.hqe import toda_hqe_eval
    from orbitoda.toda import TauJet
    ew = exact_win(-24, 24)
    tau = TauJet(TS.scalar(1, {"eps": ew}), 2, 2)
    for (n, l) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        resid = toda_hqe_eval(tau, n, l, 2, ew)
        assert resid.is_zero(), (n, l)
