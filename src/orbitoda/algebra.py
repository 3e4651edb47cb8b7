"""Symmetric polynomials, Bernoulli polynomials, and Pochhammer utilities.

The h-polynomials follow the signed convention

    prod 1/(1 + t x_i) = sum_l t^l h_l(x_1..x_n),

so h_l = (-1)^l * (standard complete homogeneous).  The inversion lemma the
change-of-variables machinery relies on is stated for exactly this h.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from .rationals import ParamRat, PR


def _as_pr(x) -> ParamRat:
    if isinstance(x, ParamRat):
        return x
    return ParamRat.rational(x)


def e_row(l: int, xs: Sequence) -> list:
    """[e_0, ..., e_l] of prod (1 + t x_i); factor i updates only
    row[1..min(i, l)], as the rest is still zero."""
    if l < 0:
        raise ValueError("degree must be nonnegative")
    row = [PR.one()] + [PR.zero()] * l
    for i, x in enumerate(xs, 1):
        x = _as_pr(x)
        for j in range(min(i, l), 0, -1):
            row[j] = row[j] + row[j - 1] * x
    return row


def h_row(l: int, xs: Sequence) -> list:
    """[h_0, ..., h_l] of prod 1/(1 + t x_i)  (signed convention)."""
    # inverse of the e-generating series up to t^l; e_i = 0 for i > len(xs)
    es = e_row(l, xs)
    hs = [PR.one()]
    for j in range(1, l + 1):
        acc = PR.zero()
        for i in range(1, min(j, len(xs)) + 1):
            acc = acc + es[i] * hs[j - i]
        hs.append(-acc)
    return hs


def symmetric_e(l: int, xs: Sequence) -> ParamRat:
    """Coefficient of t^l in prod (1 + t x_i)."""
    return e_row(l, xs)[l]


def symmetric_h(l: int, xs: Sequence) -> ParamRat:
    """Coefficient of t^l in prod 1/(1 + t x_i)  (signed convention)."""
    return h_row(l, xs)[l]


# -- Bernoulli polynomials ---------------------------------------------------

_bernoulli_cache: list[dict[int, Fraction]] = []


def bernoulli_poly(n: int) -> dict[int, Fraction]:
    """B_n(x) as {power: coefficient}, from e^{tx} t/(e^t - 1); memoized."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_bernoulli_cache) <= n:
        _extend_bernoulli()
    return dict(_bernoulli_cache[n])


def _extend_bernoulli():
    """Append the next B_n(x) using B_n(x) = sum_j C(n,j) B_j x^{n-j}."""
    n = len(_bernoulli_cache)
    if n == 0:
        _bernoulli_cache.append({0: Fraction(1)})
        return
    # Bernoulli numbers B_j = B_j(0) are already available for j < n
    # B_n(0) from sum_{j=0}^{n-1} C(n+1, j) B_j = 0 shifted appropriately:
    # use sum_{j=0}^{n} C(n+1, j) B_j(0) = 0 for n >= 1.
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * _bernoulli_cache[j].get(0, Fraction(0))
    b_n0 = -acc / (n + 1)
    poly: dict[int, Fraction] = {}
    for j in range(n + 1):
        bj0 = b_n0 if j == n else _bernoulli_cache[j].get(0, Fraction(0))
        if bj0:
            poly[n - j] = poly.get(n - j, Fraction(0)) + comb(n, j) * bj0
    _bernoulli_cache.append({k: v for k, v in poly.items() if v})


def bernoulli_number(n: int) -> Fraction:
    return bernoulli_poly(n).get(0, Fraction(0))


def poly_derivative(poly: dict[int, Fraction]) -> dict[int, Fraction]:
    return {e - 1: c * e for e, c in poly.items() if e}


def binom_frac(a: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient C(a, n) for rational a."""
    out = Fraction(1)
    for i in range(n):
        out = out * (a - i) / (i + 1)
    return out


def frac_factorial(alpha: Fraction) -> Fraction:
    """alpha! = {alpha}({alpha}+1)...alpha with {alpha} in (0, 1].

    For integer alpha this is the ordinary factorial.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("fractional factorial needs alpha > 0")
    out = Fraction(1)
    b = frac_part_unit(alpha)
    while b <= alpha:
        out *= b
        b += 1
    return out


def frac_part_unit(r: Fraction) -> Fraction:
    """{r} in (0, 1] with r - {r} an integer."""
    r = Fraction(r)
    f = r - (r.numerator // r.denominator)
    if f == 0:
        f = Fraction(1)
    return f
