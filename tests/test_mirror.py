"""Mirror family: flat coordinates, residue pairing, tangent algebra,
classical limits, stationary-phase polynomials."""

import gc
import random
from fractions import Fraction as F

import pytest

from orbitoda import mirror
from orbitoda.algebra import bernoulli_number, poly_derivative
from orbitoda.cohomology import Cohomology, QuantumRing, SectorIndex
from orbitoda.errors import WindowUnderflow
from orbitoda.mirror import (FlatChart, _gauss_invert, _laurent_support,
                             _pairing_vectors,
                             classical_critical_data, classical_R,
                             flat_coords_binomial, flat_coords_residue,
                             gaussian_moment_oracle, residue_both_ends,
                             residue_pairing_matrix, newton_schedule,
                             solve_chart_change, stationary_phase_A,
                             superpotential, tangent_reduce, tangent_relation,
                             tname, to_y_chart, unit_powers,
                             verify_flat_coordinates, verify_tangent_product)
from orbitoda.rationals import ParamRat as PR
from orbitoda.series import (TruncSeries as TS, VarWindow, down_win,
                             exact_win, series_reversion, up_win)


def test_flat_coordinate_displays():
    taus = flat_coords_residue(3, 2, 4)
    t1 = TS.from_poly(tname(1), {1: 1})
    assert (taus[("k", 1)] - t1.truncated(taus[("k", 1)].wins)).is_zero()
    want0 = TS.from_poly(tname(3), {1: 1}) + \
        TS.from_poly(tname(5), {1: 1}).scale(PR.nu0())
    assert (taus[("k", 0)] - want0.truncated(taus[("k", 0)].wins)).is_zero()


def test_flat_coordinate_k3_correction():
    # tau^{2/3} = t_2 + (3/2) binom(2/3, 2) t_1^2 = t_2 - t_1^2/6
    taus = flat_coords_binomial(3, 2)
    want = TS.from_poly(tname(2), {1: 1}) + \
        (TS.from_poly(tname(1), {1: 1}) ** 2).scale(F(-1, 6))
    assert (taus[("k", 2)] - want).is_zero()


@pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 3), (5, 2)])
def test_flat_routes_agree(k, m):
    assert verify_flat_coordinates(k, m).ok


def _residue_taus(sp, depth, qtop):
    """{('k', i % k): (k/i) [x^0] lam^i} for i = 1..k, lam(x) the reversion
    of the chart change solved at lam-depth ``depth`` and q-top ``qtop``."""
    k = sp.k
    lam = series_reversion(solve_chart_change(sp, depth, qtop), "lam",
                           out_var="x")
    out = {}
    pows = TS.scalar(1, lam.wins)
    for i in range(1, k + 1):
        pows = pows * lam
        out[("k", i % k)] = pows.coeff_of("x", 0).scale(F(k, i))
    return out


@pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 3), (5, 2), (5, 3)])
@pytest.mark.parametrize("degree", [2, 4])
def test_flat_coords_residue_matches_full_window_route(k, m, degree):
    # the reference solves at lam-depth k + m + 3 and reverses all of it
    want = _residue_taus(superpotential(k, m, None, degree), k + m + 3,
                         k + 2 * m + 3)
    got = flat_coords_residue(k, m, degree)
    assert sorted(got) == sorted(want)
    for key, a in got.items():
        b = want[key]
        assert (a.vars, a.wins, a.caps) == (b.vars, b.wins, b.caps), key
        assert a.terms == b.terms, key


@pytest.mark.parametrize("k,m", [(4, 3), (5, 2), (5, 3)])
def test_flat_coords_residue_depth_is_tight(k, m, monkeypatch):
    # the route solves at lam-depth k; one lam-order less leaves lam^-k of
    # log(1 + u) unknown
    solve, depths = mirror.solve_chart_change, []

    def shallower(sp, depth, qtop):
        depths.append(depth)
        return solve(sp, depth - 1, qtop)
    monkeypatch.setattr(mirror, "solve_chart_change", shallower)
    with pytest.raises(WindowUnderflow, match=f"coefficient of lam\\^-{k} "):
        flat_coords_residue(k, m, 4)
    assert depths == [k]


def test_chart_change_leaves_no_cyclic_garbage():
    # each Newton step's powers of 1 + u are freed with the step, not later
    # by the cycle collector
    sp = superpotential(2, 1, None, 2)
    gc.collect()
    gc.disable()
    try:
        solve_chart_change(sp, 6, 6 + sp.m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _chart_change_full_window(sp, depth, qtop):
    """The chart-change Newton loop with every step on the full lam-window,
    the reference for the precision-doubling ``solve_chart_change``."""
    k = sp.k
    lamw = VarWindow(-depth, 0, False, True)
    qwin = up_win(qtop)
    rat = sp.rational

    def lam(e):
        return TS.from_poly("lam", {e: 1})

    def upow_of(u):
        one_u = 1 + u
        inv = one_u.recip()
        return lambda e: one_u ** e if e >= 0 else inv ** (-e)

    def parts(c, key):
        exps = dict(zip(rat.vars, key))
        rest = {n: v for n, v in exps.items() if n != "x"}
        return exps.get("x", 0), rest, {n: rat.wins[n] for n in rest}

    def G(u, upow):
        acc = upow(k) * lam(k) - lam(k) + sp.tN_term
        for key, c in rat.terms.items():
            e, rest, wins = parts(c, key)
            if e == k and not any(rest.values()):
                continue
            acc = acc + TS.monomial(rest, wins, coeff=c) * upow(e) * lam(e)
        return acc + u.log1p().scale(sp.log_x)

    def Gprime(upow):
        acc = TS.scalar(0, {"lam": lamw, "q": qwin})
        for key, c in rat.terms.items():
            e, rest, wins = parts(c, key)
            if e:
                acc = acc + TS.monomial(rest, wins, coeff=c * e) * \
                    upow(e - 1) * lam(e)
        return acc + upow(-1).scale(sp.log_x)

    u = TS.scalar(0, {"lam": lamw, "q": qwin})
    for _ in range(depth + 3):
        upow = upow_of(u)
        g = G(u, upow)
        if g.is_zero():
            return (1 + u) * lam(1)
        u = u - g * Gprime(upow).recip()
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 3), (5, 2)])
def test_chart_change_doubling_matches_full_window(k, m):
    # a degree-4 t-jet at the flat-coordinate window and at the deeper one
    # of the full-window route, and the small slice at the windows of the
    # period checks
    jet = superpotential(k, m, None, 4)
    cases = [(jet, k + 3, k + 2 * m + 3), (jet, k + m + 3, k + 2 * m + 3)]
    small = superpotential(k, m, {i: 0 for i in range(1, k + m)})
    cases += [(small, 18, 18 + m), (small, 25, 25 + m)]
    for sp, depth, qtop in cases:
        got = solve_chart_change(sp, depth, qtop)
        want = _chart_change_full_window(sp, depth, qtop)
        assert (got.vars, got.wins, got.caps) == \
            (want.vars, want.wins, want.caps)
        assert got.terms == want.terms


def test_unit_power_table_matches_powers():
    # 1 + u of a degree-2 (4,3) chart change: lam soft below, q soft above,
    # seven capped t's
    k, m = 4, 3
    one_u = solve_chart_change(superpotential(k, m, None, 2), 7, 7 + m) * \
        TS.from_poly("lam", {-1: 1})
    table = unit_powers(one_u, -m - 1, k)
    assert sorted(table) == list(range(-m - 1, k + 1))
    inv = one_u.recip()
    for e, got in table.items():
        want = one_u ** e if e >= 0 else inv ** (-e)
        assert (got.vars, got.wins, got.caps, got.terms) == \
            (want.vars, want.wins, want.caps, want.terms), e


def test_newton_schedule_halves_down_from_depth():
    assert newton_schedule(1) == [1]
    assert newton_schedule(10) == [1, 2, 3, 5, 10]
    assert newton_schedule(25) == [1, 2, 4, 7, 13, 25]
    for depth in range(1, 40):
        sched = newton_schedule(depth)
        # a step from precision p reaches 2p + 1, so each step is in reach
        assert all(b <= 2 * a + 1 for a, b in zip([0] + sched, sched))


def test_dt_dtau_jet_forms_no_product_past_its_degree(monkeypatch):
    # N has t-degree >= 1, so the Neumann series of J^-1 to t-degree 2
    # needs two products C^-1 N term, each with a nonzero entry
    products = []
    mat_mul = mirror._mat_mul_series

    def spy(a, b):
        products.append(mat_mul(a, b))
        return products[-1]
    monkeypatch.setattr(mirror, "_mat_mul_series", spy)
    jet = FlatChart(4, 3, 2).dt_dtau_jet()
    assert len(products) == 2
    assert all(any(e for row in p for e in row) for p in products)
    assert len(jet) == 7


def subst_value(ser, tvals):
    """ser at the point by one ``subst`` per t-variable, the t-variables
    that ``tvals`` leaves out by 0, then the constant term: the reference
    of ``FlatChart.dt_dtau_at``'s point values."""
    for v in ser.vars:
        i = int(v[1:])
        ser = ser.subst(v, TS.scalar(F(tvals.get(i, 0))))
    return ser.terms.get((), PR.zero())


@pytest.mark.parametrize("k, m, degree", [(2, 1, 2), (4, 3, 2), (5, 2, 3)])
def test_point_inverse_jacobian_matches_substitution(k, m, degree):
    # the Jacobian entries at seeded rational points, one point with t_1
    # left out and one with a zero value, equal their subst values, and so
    # does the inverse
    chart = FlatChart(k, m, degree)
    n = k + m
    rng = random.Random(7)
    points = [{j: F(rng.randint(-9, 9), rng.randint(1, 9))
               for j in range(1, n + 1)} for _ in range(3)]
    points[1].pop(1)
    points[2][2] = F(0)
    for tvals in points:
        jac = [[subst_value(e, tvals) for e in row] for row in chart.jacobian]
        assert chart.dt_dtau_at(tvals) == _gauss_invert(jac)
        assert any(not e.is_rational() for row in jac for e in row)


def test_y_chart_flat_coordinates():
    # mirror-symmetric displays: tau^{1/m} = t_{k+m-1}, tau^{0/m} = t_k + nu1 t_N
    chart = FlatChart(3, 2, 2)
    want1m = TS.from_poly(tname(4), {1: 1})
    assert (chart.tau[("m", 1)] - want1m).is_zero()
    want0m = TS.from_poly(tname(3), {1: 1}) + \
        TS.from_poly(tname(5), {1: 1}).scale(PR.nu1())
    assert (chart.tau[("m", 0)] - want0m).is_zero()


def test_pairing_symbolic_jet2():
    for (k, m) in [(2, 1), (3, 2)]:
        matrix, alphas, rep = residue_pairing_matrix(k, m, None, 2)
        assert rep.ok
        # pinned values: (d_{1/k}, d_{(k-1)/k}) = 1/k and the untwisted 1/(nu0-nu1)
        coh = Cohomology(k, m)
        pos = {a: i for i, a in enumerate(alphas)}
        i00 = pos[("k", 0)]
        assert matrix[i00][0] == TS.scalar(PR.diff().inverse(), matrix[i00][0].wins)


def test_pairing_random_rational_points():
    # three random rational t-points for (4,3)
    pts = [
        {1: F(1, 2), 2: F(-1, 3), 3: F(2, 5), 4: F(1, 7), 5: F(3, 4),
         6: F(-2, 9), 7: F(1, 11)},
        {1: F(-2, 7), 2: F(1, 5), 3: F(0), 4: F(3, 2), 5: F(-1, 6),
         6: F(2, 3), 7: F(5, 8)},
        {1: F(1), 2: F(1, 9), 3: F(-3, 4), 4: F(2, 11), 5: F(1, 3),
         6: F(0), 7: F(-1, 2)},
    ]
    for tv in pts:
        _, _, rep = residue_pairing_matrix(4, 3, tv, 2)
        assert rep.ok, rep.first_discrepancy


def _residue_per_pair(num, den):
    """-(res_0 + res_inf) of (num/den) dx with 1/den expanded for this one
    numerator at each end, and the full products: the reference for
    ``residue_both_ends``."""
    nlo, nhi = _laurent_support(num, "x")
    dlo, dhi = _laurent_support(den, "x")
    qspan = (nhi - nlo) + (dhi - dlo) + 4
    at_inf = TS.scalar(0)
    if nhi - dhi >= -1:
        inv_inf = den.recip_within({"x": down_win(-1 - nhi, hi=dhi),
                                    "q": up_win(qspan)})
        at_inf = (num * inv_inf).coeff_of("x", -1)
    at_zero = TS.scalar(0)
    if nlo - dlo <= -1:
        num_y = to_y_chart(num)
        den_y = to_y_chart(den)
        yhi = _laurent_support(den_y, "y")[1]
        nyhi = _laurent_support(num_y, "y")[1]
        qloy = min(_laurent_support(den_y, "q")[0],
                   _laurent_support(num_y, "q")[0], 0)
        inv_y = den_y.recip_within(
            {"y": down_win(-1 - nyhi - 1, hi=yhi),
             "q": up_win(qspan, lo=2 * qloy - qspan)})
        prefactor = TS.monomial(
            {"q": 1, "y": -2}, {"q": exact_win(1, 1), "y": exact_win(-2, -2)})
        at_zero = (prefactor * num_y * inv_y).coeff_of("y", -1)
    return at_inf - at_zero


def _knows_at_least(a, b):
    """Every coefficient that b knows, a knows: per variable the known
    region of a holds that of b (a missing variable is known everywhere),
    and each cap of a is at least b's."""
    for v in set(a.vars) | set(b.vars):
        wa, wb = a._win(v), b._win(v)
        if wa.known_lo() > wb.known_lo() or wa.known_hi() < wb.known_hi():
            return False
    return all(b.caps.get(g, float("inf")) <= c for g, c in a.caps.items())


@pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 3), (5, 2)])
@pytest.mark.parametrize("point", [False, True])
def test_residue_both_ends_matches_per_pair(k, m, point):
    # one 1/den per end on the deepest window gives every entry of the
    # matrix with the terms of the per-pair route, known at least as far
    tvals = {i: F(i % 3 - 1, i + 1) for i in range(1, k + m + 1)} \
        if point else None
    _, v_alpha, den = _pairing_vectors(k, m, tvals, 2)
    nums = [a * b for i, a in enumerate(v_alpha) for b in v_alpha[i:]]
    got = residue_both_ends(nums, den)
    assert len(got) == len(nums)
    for num, val in zip(nums, got):
        want = _residue_per_pair(num, den)
        assert val.terms == want.terms
        assert val.vars == want.vars
        assert _knows_at_least(val, want)


def test_flat_coordinates_negative_control(monkeypatch):
    # the binomial route with its t1^2 coefficient of tau^{2/3} doubled:
    # the residue route must catch it
    binomial = mirror.flat_coords_binomial

    def perturbed(k, m, degree=None):
        out = binomial(k, m, degree)
        out[("k", 2)] = out[("k", 2)] + \
            TS.from_poly(tname(1), {2: F(-1, 6)})
        return out
    monkeypatch.setattr(mirror, "flat_coords_binomial", perturbed)
    rep = verify_flat_coordinates(3, 2)
    assert rep.status == "fail"
    assert rep.first_discrepancy["at"] == {"tau": "2/3", "at": {"t1": 2}}


@pytest.mark.parametrize("tvals", [None, {1: F(1, 2), 2: F(-1, 3), 3: F(0),
                                          4: F(2, 7), 5: F(1, 5)}])
def test_residue_pairing_negative_control(monkeypatch, tvals):
    # eta with (1_{1/3}, 1_{2/3}) doubled: that entry, and no earlier one,
    # must fail
    pairing = Cohomology.pairing

    def perturbed(self, a, b):
        eta = pairing(self, a, b)
        return eta * 2 if (a, b) == (SectorIndex("k", 1),
                                     SectorIndex("k", 2)) else eta
    monkeypatch.setattr(Cohomology, "pairing", perturbed)
    _, _, rep = residue_pairing_matrix(3, 2, tvals)
    assert rep.status == "fail"
    assert rep.first_discrepancy == {
        "at": {"alpha": "('k', 1)", "beta": "('k', 2)", "at": {}},
        "lhs": "1/3", "rhs": "2/3"}


def test_tangent_product_matches_quantum_ring():
    assert verify_tangent_product(2, 1).ok
    assert verify_tangent_product(3, 2).ok


def test_tangent_product_negative_control(monkeypatch):
    # the ring product 1_{1/3} 1_{2/3} = x^3 gains q x: that product, and
    # no earlier one, must fail
    mul = QuantumRing.mul

    def perturbed(self, a, b):
        out = mul(self, a, b)
        if (a, b) == (TS.from_poly("x", {1: 1}), TS.from_poly("x", {2: 1})):
            out = out + TS.from_poly("q", {1: 1}) * TS.from_poly("x", {1: 1})
        return out
    monkeypatch.setattr(QuantumRing, "mul", perturbed)
    rep = verify_tangent_product(3, 2)
    assert rep.status == "fail"
    assert rep.first_discrepancy == {
        "at": {"a": "1/3", "b": "2/3", "at": {"q": 1, "x": 1}},
        "lhs": "0", "rhs": "1"}


def tangent_product(k, m, rel, phi1, phi2):
    """Product of tangent-algebra classes reduced to normal form."""
    return tangent_reduce(k, m, rel, phi1 * phi2)


def test_tangent_product_examples():
    # x * y-image = q * 1 at the small slice
    k, m = 3, 2
    rel = tangent_relation(k, m, {i: 0 for i in range(1, k + m)})
    x = TS.from_poly("x", {1: 1})
    y = TS.from_poly("q", {1: 1}) * TS.from_poly("x", {-1: 1})
    red = tangent_product(k, m, rel, x, y)
    assert (red - TS.from_poly("q", {1: 1})).is_zero()
    # x^{k-1} * x reduces to the class of x^k
    red2 = tangent_reduce(k, m, rel, TS.from_poly("x", {k: 1}))
    assert (red2 - TS.from_poly("x", {k: 1})).is_zero()


def test_classical_critical_data():
    assert classical_critical_data(3, 2).ok
    assert classical_critical_data(5, 3).ok


def test_classical_critical_negative_control(monkeypatch):
    # a critical value twice nu is not the superpotential's: the x-foot
    # relation x f' = k (x^k - nu) fails at a located monomial
    nu = PR.nu
    monkeypatch.setattr(PR, "nu", staticmethod(lambda k: nu(k) * 2))
    rep = classical_critical_data(3, 2)
    assert rep.status == "fail"
    assert rep.first_discrepancy["at"] == {"foot": 3, "identity": "x f'",
                                           "at": {}}


def test_stationary_A_initial_conditions():
    for n in range(2, 13):
        an = stationary_phase_A(n)
        val = sum((c for e, c in an.items()), F(0))  # A_n(1)
        assert val == bernoulli_number(n) / (n * (n - 1))


def test_stationary_A_recursion():
    # A_2'(s) = s - 1/2; the general step carries the weight n-1, i.e.
    # A_{n+1}'(s) = -(n-1) A_n(s), which is what B_n' = n B_{n-1} forces and
    # what the Gaussian-moment oracle confirms (at n = 2 the weight is 1).
    a2 = stationary_phase_A(2)
    assert poly_derivative(a2) == {1: F(1), 0: F(-1, 2)}
    assert poly_derivative(stationary_phase_A(3)) == \
        {e: -c for e, c in stationary_phase_A(2).items()}
    for n in range(2, 12):
        lhs = poly_derivative(stationary_phase_A(n + 1))
        rhs = {e: -(n - 1) * c for e, c in stationary_phase_A(n).items()}
        assert lhs == rhs


def test_stationary_A2_value():
    assert stationary_phase_A(2) == {2: F(1, 2), 1: F(-1, 2), 0: F(1, 12)}


def test_classical_R_normalization():
    for (k, j) in [(3, 1), (3, 3), (5, 2)]:
        power, R = classical_R(k, j, 8)
        assert power == F(j, k) - F(1, 2)
        # R = 1 + O(z)
        assert R.terms.get((0,)) == PR.one()
    # barred variant
    power, R = classical_R(2, 1, 6, barred=True, m=2)
    assert R.terms.get((0,)) == PR.one()


def test_gaussian_moment_oracle():
    assert gaussian_moment_oracle(5).ok


def test_residue_pairing_single_pair_surface():
    from orbitoda.mirror import residue_pairing_matrix
    from orbitoda.rationals import PR

    def entry(result, alpha, beta):
        # the matrix holds the upper triangle: row a, entries b >= a
        matrix, alphas, _ = result
        a, b = sorted(alphas.index((s.side, s.i)) for s in (alpha, beta))
        return matrix[a][b - a]

    # pinned single-pair values per the pairing table
    symbolic = residue_pairing_matrix(3, 2)
    v = entry(symbolic, SectorIndex("k", 1), SectorIndex("k", 2))
    assert v == TS.scalar(F(1, 3), v.wins)
    v = entry(symbolic, SectorIndex("k", 0), SectorIndex("k", 0))
    assert v == TS.scalar(PR.diff().inverse(), v.wins)
    tv = {1: F(1, 2), 2: F(1, 3), 3: F(0), 4: F(2, 7), 5: F(1, 5)}
    v = entry(residue_pairing_matrix(3, 2, tv), SectorIndex("k", 1),
              SectorIndex("m", 1))
    assert v.is_zero()


def test_tangent_product_generic_t():
    tv = {1: F(1, 2), 2: F(-1, 3), 3: F(1, 7), 4: F(2, 5), 5: F(1, 9)}
    rel = tangent_relation(3, 2, tv)
    x = TS.from_poly("x", {1: 1})
    # unit acts trivially and the reduction is idempotent
    red = tangent_product(3, 2, rel, x, TS.scalar(1))
    assert (red - x).is_zero()
    big = tangent_reduce(3, 2, rel, TS.from_poly("x", {7: 1, -2: F(1, 2)}))
    again = tangent_reduce(3, 2, rel, big)
    assert (big - again).is_zero()
    xs = [key[big.vars.index("x")] for key in big.terms]
    assert min(xs) >= 0 and max(xs) <= 4
