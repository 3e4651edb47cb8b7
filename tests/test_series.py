"""Truncated-series kernel: windows, arithmetic, reversion, shifts."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitoda.errors import NonUnit, WindowUnderflow
from orbitoda.rationals import ParamRat as PR
from orbitoda.series import (TruncSeries as TS, VarWindow, down_win, exact_win,
                             series_reversion, taylor_shift, up_win)


def test_geometric_inverse():
    u = TS.var("u", up_win(3))
    inv = (1 + u).recip()
    assert inv == TS.from_poly("u", {0: 1, 1: -1, 2: 1, 3: -1}).truncated(
        {"u": up_win(3)})


def test_exp_log_roundtrip():
    u = TS.var("u", up_win(4))
    assert (1 + u).log().exp() == 1 + u


def test_mul_matches_naive_convolution():
    import random
    rng = random.Random(7)
    a = TS.from_poly("u", {i: F(rng.randint(-9, 9)) for i in range(6)})
    b = TS.from_poly("u", {i: F(rng.randint(-9, 9)) for i in range(6)})
    prod = a * b
    acoef = {i: a.terms.get((i,), PR.zero()) for i in range(6)}
    bcoef = {i: b.terms.get((i,), PR.zero()) for i in range(6)}
    for n in range(11):
        want = PR.zero()
        for i in range(max(0, n - 5), min(n, 5) + 1):
            want = want + acoef[i] * bcoef[n - i]
        got = prod.terms.get((n,), PR.zero())
        assert got == want


def test_residue_cases():
    lam = TS.var("lam", down_win(-4, hi=2))
    assert lam.recip().residue("lam") == 1           # residue of 1/lam... via recip(lam)
    assert (lam * lam + 3).residue("lam").is_zero()  # no pole
    c = PR.rational(F(5, 3))
    expansion = (lam - c).recip()
    assert expansion.residue("lam") == 1


def test_residue_window_check():
    lam = TS.var("lam", exact_win(0, 2))
    assert (lam * lam).residue("lam").is_zero()  # hard window: known zero
    truncated = TS.var("lam", VarWindow(0, 2, False, True))
    with pytest.raises(WindowUnderflow):
        truncated.residue("lam")


def test_reversion_identity_and_shift():
    f = TS.var("lam", down_win(-3, hi=1))
    assert series_reversion(f, "lam") == TS.var("lam", down_win(-3, hi=1))
    g = series_reversion(f + F(7, 2), "lam")
    assert g == TS.var("lam", g.wins["lam"]) - F(7, 2)


def test_reversion_composition():
    f = TS.from_poly("lam", {1: 1, -1: 5}).truncated({"lam": down_win(-6, hi=1)})
    g = series_reversion(f, "lam")
    resid = f.subst("lam", g) - TS.var("lam", g.wins["lam"])
    assert resid.is_zero()
    assert resid.wins["lam"].lo <= -3  # verified at least to lam^-3


def test_reversion_about_zero():
    f = TS.from_poly("u", {1: 1, 2: -3}).truncated({"u": up_win(5)})
    g = series_reversion(f, "u")
    assert (f.subst("u", g) - TS.var("u", g.wins["u"])).is_zero()


def test_taylor_shift_examples():
    x = TS.from_poly("x", {1: 1}) + TS.scalar(0, {"eps": up_win(3)})
    assert taylor_shift(x, "x", "eps", 1) == x + TS.var("eps", up_win(3))
    x2 = TS.from_poly("x", {2: 1}) + TS.scalar(0, {"eps": up_win(3)})
    want = TS.from_poly("x", {2: 1}) + \
        TS.from_poly("x", {1: 2}) * TS.var("eps", up_win(3)) + \
        TS.var("eps", up_win(3)) ** 2
    assert taylor_shift(x2, "x", "eps", 1) == want


def test_taylor_shift_matches_substitution_oracle():
    import random
    rng = random.Random(3)
    coeffs = {i: F(rng.randint(-5, 5)) for i in range(4)}
    c = TS.from_poly("x", coeffs) + TS.scalar(0, {"eps": up_win(4)})
    got = taylor_shift(c, "x", "eps", 2)
    # oracle: substitute x -> x + 2 eps directly
    x_plus = TS.from_poly("x", {1: 1}) + TS.from_poly("eps", {1: 2})
    want = TS.scalar(0, {"eps": up_win(4)})
    for e, v in coeffs.items():
        want = want + (x_plus ** e).scale(v)
    assert (got - want.truncated({"eps": up_win(4)})).is_zero()


def test_taylor_shift_additivity():
    c = TS.from_poly("x", {3: 2, 1: -1}) + TS.scalar(0, {"eps": up_win(5)})
    lhs = taylor_shift(taylor_shift(c, "x", "eps", 2), "x", "eps", 3)
    rhs = taylor_shift(c, "x", "eps", 5)
    assert (lhs - rhs).is_zero()


def test_nonunit_inverse_raises():
    u = TS.var("u", up_win(3))
    # u + u^2 = u(1+u) has a dominating monomial and inverts fine
    assert ((u + u * u).recip() * (u + u * u) - 1).is_zero()
    # two incomparable leading monomials cannot be inverted
    v = TS.var("v", up_win(3))
    with pytest.raises(NonUnit):
        (u + v).recip()


def test_group_caps():
    t1 = TS.var("t1", up_win(6)).with_cap(("t1", "t2"), 2)
    t2 = TS.var("t2", up_win(6)).with_cap(("t1", "t2"), 2)
    prod = (1 + t1 + t2) * (1 + t1 + t2)
    assert prod.terms.get((1, 1)) == PR.rational(2)
    assert (2, 1) not in prod.terms  # total degree 3 respects the cap
    assert prod.caps[frozenset(("t1", "t2"))] == 2


small_coeff = st.integers(min_value=-6, max_value=6)


def random_series(name, draw_coeffs):
    terms = {i: c for i, c in enumerate(draw_coeffs)}
    return TS.from_poly(name, terms).truncated({name: up_win(6)})


@settings(max_examples=60, deadline=None)
@given(st.lists(small_coeff, min_size=1, max_size=4),
       st.lists(small_coeff, min_size=1, max_size=4),
       st.lists(small_coeff, min_size=1, max_size=4))
def test_ring_axioms(a, b, c):
    A = random_series("u", a)
    B = random_series("u", b)
    C = random_series("u", c)
    assert ((A * B) * C - A * (B * C)).is_zero()
    assert (A * (B + C) - (A * B + A * C)).is_zero()
    assert ((A + B) * C - (A * C + B * C)).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(small_coeff, min_size=2, max_size=5))
def test_recip_is_right_inverse(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = 1
    f = random_series("u", coeffs)
    inv = f.recip()
    assert (f * inv - 1).is_zero()


def test_fractional_exponent_variable():
    xi = TS.var("xi", VarWindow(-9, 3, False, True, 3))
    d = xi.derivative("xi")
    assert d == TS.scalar(1, {"xi": VarWindow(-12, 0, False, True, 3)})
    r = (xi - 2).recip()
    assert r.terms[(-3,)] == PR.one()
    assert r.terms[(-6,)] == PR.rational(2)


pr_coeff = st.tuples(st.integers(-4, 4), st.integers(0, 2), st.integers(0, 2))


def build_pr(triples):
    out = PR.zero()
    for c, d, s in triples:
        out = out + PR.monomial(c, d, s)
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(pr_coeff, min_size=1, max_size=3),
       st.lists(pr_coeff, min_size=1, max_size=3),
       st.lists(pr_coeff, min_size=1, max_size=3))
def test_coefficient_field_axioms(a, b, c):
    A, B, C = build_pr(a), build_pr(b), build_pr(c)
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    assert A + B == B + A
    assert A * B == B * A


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(1, 3), st.integers(0, 2))
def test_monomial_inverse_roundtrip(c, d, s):
    if c == 0 or s:
        return
    x = PR.monomial(F(c), d, 0)
    assert x * x.inverse() == PR.one()


@settings(max_examples=30, deadline=None)
@given(st.lists(small_coeff, min_size=1, max_size=3),
       st.lists(small_coeff, min_size=1, max_size=3),
       st.integers(-2, 2))
def test_taylor_shift_is_multiplicative(a, b, r):
    A = TS.from_poly("x", {i: c for i, c in enumerate(a)})
    B = TS.from_poly("x", {i: c for i, c in enumerate(b)})
    wins = {"eps": up_win(5)}
    lhs = taylor_shift((A * B).truncated(wins), "x", "eps", r)
    rhs = taylor_shift(A.truncated(wins), "x", "eps", r) * \
        taylor_shift(B.truncated(wins), "x", "eps", r)
    assert (lhs - rhs).is_zero()


NAMES = ("u", "v", "w")


@st.composite
def windowed_series(draw, min_vars):
    """A small series over some of NAMES: up, down or exact windows, random
    terms inside them (or none), and an optional group cap."""
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES),
                                      min_size=min_vars))))
    wins = {}
    for v in names:
        kind = draw(st.sampled_from(["up", "down", "exact"]))
        lo = draw(st.integers(-3, 1))
        wins[v] = VarWindow(lo, lo + draw(st.integers(0, 4)),
                            kind != "down", kind != "up")
    key = st.tuples(*[st.integers(wins[v].lo, wins[v].hi) for v in names])
    coeff = st.integers(-5, 5).filter(bool).map(PR.rational)
    terms = draw(st.dictionaries(key, coeff, min_size=1, max_size=6))
    if draw(st.sampled_from(["terms"] * 5 + ["zero factor"])) == "zero factor":
        terms = {}
    s = TS(names, wins, terms)
    if draw(st.booleans()):
        group = draw(st.sets(st.sampled_from(names), min_size=1))
        s = s.with_cap(group, draw(st.integers(0, 5)))
    return s


@settings(max_examples=300, deadline=None)
@given(windowed_series(2), windowed_series(1),
       st.sampled_from(NAMES * 3 + ("z",)), st.integers(-5, 7),
       st.integers(0, 63))
def test_mul_coeff_matches_full_product(a, b, v, e, pick):
    try:
        prod = a * b
        if pick and v in prod.vars and prod.terms:
            # aim at an exponent the product reaches (else e may miss it)
            keys = sorted(prod.terms)
            e = keys[pick % len(keys)][prod.vars.index(v)]
        want = prod.coeff_of(v, e)
    except (WindowUnderflow, ValueError) as exc:
        with pytest.raises(type(exc)):
            a.mul_coeff(b, v, e)
        return
    got = a.mul_coeff(b, v, e)
    assert got.vars == want.vars
    assert got.terms == want.terms
    assert got.wins == want.wins
    assert got.caps == want.caps


def test_paramrat_hash_agrees_with_equality():
    assert PR.one() == 1 and {PR.one(): 0}.get(1) == 0
    assert {1: "one"}.get(PR.one()) == "one"
    assert hash(PR.zero()) == hash(0) == hash(F(0))
    assert hash(PR.rational(F(3, 4))) == hash(F(3, 4))
    x = PR.nu(3) + PR.nu1()
    assert hash(x) == hash(PR.nu1() + PR.nu(3))
    assert len({PR.rational(2), 2, F(2)}) == 1
