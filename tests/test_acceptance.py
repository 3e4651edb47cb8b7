"""Acceptance suite: one test per criterion, at the stated truncations.

Each test prints a single PASS/FAIL line.  Criterion 10's vacuum sub-check
is implemented literally as stated (constant tau family) and is expected to
fail: the constant function is not a tau function of this hierarchy
normalization (see notes in the wave-equation tests); the genuine vacuum
exponential is run alongside as the passing positive control.
"""

import time

import pytest

from orbitoda.rationals import ParamRat as PR
from orbitoda.series import TruncSeries as TS, exact_win, up_win

MATRIX = [(2, 1), (3, 2), (4, 3), (5, 2), (5, 3)]


def _line(name, ok, extra=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {extra}")
    return ok


def test_criterion_1_ladder_suite():
    from orbitoda.jfunction import verify_jfunc
    ok = True
    for (k, m) in MATRIX:
        t0 = time.monotonic()
        reps = [r for r in verify_jfunc(k, m, 2 * k * m, -6, 2)
                if r.name.startswith("ladder-alpha-")]
        dt = time.monotonic() - t0
        good = all(r.ok for r in reps) and dt < 60.0
        ok = _line(f"1 ladder ({k},{m}) qdeg={2*k*m} z=[-6,2] {dt:.1f}s",
                   good) and ok
    assert ok


def test_criterion_2_qde():
    from orbitoda.jfunction import verify_jfunc
    from test_jfunction import j_small_z_expansion
    ok = True
    for (k, m) in MATRIX:
        (rep,) = [r for r in verify_jfunc(k, m, 2 * k * m, -6, 2)
                  if r.name == "qde"]
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
    from orbitoda.mirror import residue_pairing_matrix, verify_residue_pairing
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
    for i, rep in enumerate(verify_residue_pairing(4, 3, 2, seed=11,
                                                   points=3)):
        where = "symbolic jet 2" if i == 0 else f"rational point {i}"
        ok = _line(f"5 pairing (4,3) {where}", rep.ok) and ok
    assert ok


def test_criterion_6_flat_coordinates():
    from orbitoda.mirror import flat_coords_residue, tname, verify_flat_coordinates
    ok = True
    for (k, m) in [(2, 1), (3, 2), (4, 3), (5, 2)]:
        rep = verify_flat_coordinates(k, m)
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
    from orbitoda.mirror import (classical_R, gaussian_moment_oracle,
                                 verify_a_polynomials, verify_classical_r)
    ok = True
    ok = _line("7 A_n recursion + initial conditions n<=12 "
               "(weight n-1 per the defining PDE; display typo at n>=3)",
               verify_a_polynomials(12).ok) and ok
    ok = _line("7 gaussian-moment oracle n<=5", gaussian_moment_oracle(5).ok) \
        and ok
    # verify_classical_r(3, 2) covers (3, 1); (5, 2) is not one of its cases
    rz = verify_classical_r(3, 2).ok and \
        classical_R(5, 2, 8)[1].terms.get((0,)) == PR.one()
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
        rep = verify_lemma_d_branches(k)
        ok = _line(f"8 lemma-D branches k={k} |alpha|<=3", rep.ok) and ok
    assert ok


def test_criterion_9_toda():
    from orbitoda.toda import (verify_flow_band_shape, verify_reduced_vacuum,
                               verify_solve_recovery, verify_vacuum,
                               verify_zakharov_shabat)
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
    from orbitoda.hqe import verify_toda_hqe_vacuum, verify_trivial_residue
    ok = True
    for rep in verify_toda_hqe_vacuum(2):
        n, l = rep.params["n"], rep.params["l"]
        ok = _line(f"10 hqe vacuum exponential ({n},{l}) bidegree (2,2)",
                   rep.ok) and ok
    ok = _line("10 trivial residue (zero vertex windows)",
               verify_trivial_residue(3, 2).ok) and ok
    assert ok


def test_criterion_10_bilinearity_and_negative_control():
    from orbitoda.hqe import (verify_bilinearity,
                              verify_toda_hqe_negative_control)
    ok = _line("10 bilinearity", verify_bilinearity(3, 2).ok)
    rep = verify_toda_hqe_negative_control()
    located = rep.ok and rep.detail.startswith("perturbation located at {")
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
