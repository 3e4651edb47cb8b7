"""Symmetric polynomials, Bernoulli polynomials, Pochhammer utilities."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import examples

from orbitoda.algebra import (bernoulli_number, bernoulli_poly,
                              binom_frac, frac_factorial, frac_part_unit,
                              poly_derivative, symmetric_e, symmetric_h)
from orbitoda.rationals import ParamRat as PR


def brute_h(l, xs):
    """Oracle: expand prod 1/(1+t x_i) = prod sum_j (-x_i t)^j to order l."""
    series = [F(1)] + [F(0)] * l
    for x in xs:
        geo = [(-F(x)) ** j for j in range(l + 1)]
        series = [sum(series[i] * geo[j - i] for i in range(j + 1))
                  for j in range(l + 1)]
    return series[l]


def brute_e(l, xs):
    series = [F(1)] + [F(0)] * l
    for x in xs:
        new = list(series)
        for j in range(l, 0, -1):
            new[j] = series[j] + series[j - 1] * F(x)
        series = new
    return series[l]


def test_e_trivial():
    assert symmetric_e(0, [PR.nu0(), PR.nu1()]) == PR.one()
    a, b = PR.nu0(), PR.nu1()
    assert symmetric_e(1, [a, b]) == a + b


def test_h2_brute_force():
    # h_2(a,b) = a^2 + a b + b^2 by direct expansion
    a, b = PR.nu0(), PR.nu1()
    assert symmetric_h(2, [a, b]) == a * a + a * b + b * b
    for xs in [(F(1, 2), F(3)), (F(2), F(5), F(-1, 3))]:
        for l in range(5):
            got = symmetric_h(l, [PR.rational(x) for x in xs])
            assert got == PR.rational(brute_h(l, xs))
            got_e = symmetric_e(l, [PR.rational(x) for x in xs])
            assert got_e == PR.rational(brute_e(l, xs))


def brute_bernoulli(nmax):
    """Oracle: series-divide e^{tx} t / (e^t - 1) with polynomial coefficients.

    Work with coefficients in Q[x]: divide sum_j x^j t^j/j! by
    (e^t - 1)/t = sum_j t^j/(j+1)!.
    """
    num = [{j: F(1, _fact(j))} for j in range(nmax + 1)]  # x^j / j!
    den = [F(1, _fact(j + 1)) for j in range(nmax + 1)]
    out = []
    for n in range(nmax + 1):
        acc = dict(num[n])
        for i in range(n):
            for e, c in out[i].items():
                acc[e] = acc.get(e, F(0)) - c * den[n - i]
        out.append({e: c for e, c in acc.items() if c})
    return [{e: c * _fact(n) for e, c in poly.items()} for n, poly in enumerate(out)]


def _fact(n):
    r = 1
    for i in range(2, n + 1):
        r *= i
    return r


def test_bernoulli_low():
    assert bernoulli_poly(0) == {0: F(1)}
    assert bernoulli_poly(1) == {1: F(1), 0: F(-1, 2)}
    assert bernoulli_poly(2) == {2: F(1), 1: F(-1), 0: F(1, 6)}


def test_bernoulli_against_generating_function():
    oracle = brute_bernoulli(10)
    for n in range(11):
        assert bernoulli_poly(n) == oracle[n]


def test_bernoulli_derivative_identity():
    for n in range(1, 14):
        lhs = poly_derivative(bernoulli_poly(n))
        rhs = {e: c * n for e, c in bernoulli_poly(n - 1).items()}
        assert lhs == rhs


def test_bernoulli_numbers():
    assert bernoulli_number(12) == F(-691, 2730)
    for n in range(3, 13, 2):
        assert bernoulli_number(n) == 0


def test_frac_factorial():
    assert frac_factorial(F(3)) == 6
    # (1/2)! = 1/2; (3/2)! = (1/2)(3/2) = 3/4
    assert frac_factorial(F(1, 2)) == F(1, 2)
    assert frac_factorial(F(3, 2)) == F(3, 4)
    # integer alpha uses {alpha} = 1
    assert frac_factorial(F(4)) == 24


def test_frac_part_unit():
    assert frac_part_unit(F(-2, 3)) == F(1, 3)
    assert frac_part_unit(F(5, 3)) == F(2, 3)
    assert frac_part_unit(F(2)) == F(1)
    assert frac_part_unit(F(0)) == F(1)
    assert frac_part_unit(F(-1)) == F(1)


def test_binom_frac():
    assert binom_frac(F(2, 3), 2) == F(2, 3) * F(-1, 3) / 2
    assert binom_frac(F(5), 2) == 10


def per_degree_e(l, xs):
    """Reference: the row update over every j <= l for each factor."""
    row = [PR.one()] + [PR.zero()] * l
    for x in xs:
        x = x if isinstance(x, PR) else PR.rational(x)
        for j in range(min(l, len(row) - 1), 0, -1):
            row[j] = row[j] + row[j - 1] * x
    return row[l]


def per_degree_h(l, xs):
    """Reference: one ``per_degree_e`` pass per degree, then the inverse of
    the e-series up to t^l."""
    es = [per_degree_e(j, xs) for j in range(l + 1)]
    hs = [PR.one()]
    for j in range(1, l + 1):
        acc = PR.zero()
        for i in range(1, j + 1):
            acc = acc + es[i] * hs[j - i]
        hs.append(-acc)
    return hs[l]


symmetric_arg = st.one_of(
    st.integers(-4, 4),
    st.fractions(-4, 4, max_denominator=5),
    st.sampled_from([PR.nu0(), PR.nu1(), PR.nu(3), PR.nubar(2),
                     PR.nu(2) + F(1, 3), PR.diff()]))


@examples(150)
@given(st.integers(0, 6), st.lists(symmetric_arg, max_size=5))
def test_symmetric_one_row_matches_per_degree_loop(l, xs):
    # covers empty xs, l = 0 and l > len(xs)
    assert symmetric_e(l, xs) == per_degree_e(l, xs)
    assert symmetric_h(l, xs) == per_degree_h(l, xs)


def test_symmetric_edge_cases():
    assert symmetric_e(0, []) == symmetric_h(0, []) == PR.one()
    assert symmetric_e(2, []).is_zero() and symmetric_h(3, []).is_zero()
    a = PR.nu0()
    assert symmetric_e(3, [a, 2]).is_zero()
    assert symmetric_h(3, [a]) == -(a * a * a)
    with pytest.raises(ValueError):
        symmetric_e(-1, [a])
    with pytest.raises(ValueError):
        symmetric_h(-1, [a])
