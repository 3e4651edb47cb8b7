"""Truncated-series kernel: windows, arithmetic, reversion, shifts."""

import functools
import gc
import itertools
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import examples

from orbitoda import series
from orbitoda.errors import (NonConvergent, NonUnit, NotInvertible,
                             WindowUnderflow)
from orbitoda.mirror import FlatChart
from orbitoda.rationals import ParamRat as PR
from orbitoda.series import (TruncSeries as TS, VarWindow, down_win, exact_win,
                             series_reversion, sum_series, up_win)
from orbitoda.toda import two_toda_vacuum_tau, x_shift, ybname, yname


def taylor_shift(c, xvar, epsvar, step, eps_win=None):
    """sum_j (step*eps)^j d_x^j c / j!, bounded by the eps window: the
    reference Taylor shift for ``TruncSeries.exp_derivation``.

    Each summand is d_x^j c shifted by eps^j; the result is marked
    eps-truncated only when the next summand lies wholly above the eps
    window.
    """
    if eps_win is None:
        eps_win = c.wins[epsvar]
    hit_window = False

    def terms():
        nonlocal hit_window
        d = c
        for j in itertools.count(1):
            d = d.derivative(xvar)
            if d.is_zero():
                return
            supp_lo = 0         # a nonzero d lacking eps sits at eps^0
            if epsvar in d.wins:
                i = d.vars.index(epsvar)
                supp_lo, _ = series.support_in(d.wins[epsvar],
                                               [key[i] for key in d.terms])
            base = supp_lo if supp_lo != series.NEG_INF else d._win(epsvar).lo
            if base + j > eps_win.hi:
                hit_window = True
                return
            yield d.shift_exponent(epsvar, j).scale(
                F(step ** j, math.factorial(j)))

    out = sum_series(terms(), c)
    if hit_window:
        w = out._win(epsvar)
        out = out.truncated(
            {epsvar: VarWindow(w.lo, eps_win.hi, w.lo_hard, False)})
    return out


def library_shift(c, xvar, epsvar, step, eps_win=None):
    """The library's Taylor shift, exp(step eps d_x) by ``exp_derivation``,
    with the signature of the reference."""
    assert (xvar, epsvar) == ("x", "eps")
    return c.exp_derivation(x_shift(step),
                            {"eps": eps_win or c.wins[epsvar]})


SHIFTS = (taylor_shift, library_shift)


def test_geometric_inverse():
    u = TS.var("u", up_win(3))
    inv = (1 + u).recip()
    assert inv == TS.from_poly("u", {0: 1, 1: -1, 2: 1, 3: -1}).truncated(
        {"u": up_win(3)})


def test_series_are_unhashable():
    # equality on the joint known window is not transitive (a equals both
    # exact polynomials, which differ), so no hash can agree with it
    a = TS.var("x", up_win(2))
    b = TS.from_poly("x", {1: 1, 3: 1})
    c = TS.from_poly("x", {1: 1})
    assert a == b and a == c and b != c
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {a, b}


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
    assert lam.recip().coeff_of("lam", -1) == 1      # residue of 1/lam
    assert (lam * lam + 3).coeff_of("lam", -1).is_zero()  # no pole
    c = PR.rational(F(5, 3))
    expansion = (lam - c).recip()
    assert expansion.coeff_of("lam", -1) == 1


def test_residue_window_check():
    lam = TS.var("lam", exact_win(0, 2))
    assert (lam * lam).coeff_of("lam", -1).is_zero()  # hard window: known zero
    truncated = TS.var("lam", VarWindow(0, 2, False, True))
    with pytest.raises(WindowUnderflow):
        truncated.coeff_of("lam", -1)


def test_coeff_of_above_a_cap_on_its_variable_alone():
    # the cap on {u} knows u^3 no better than a window would
    s = (TS.var("u", up_win(4)) + TS.var("u", up_win(4), power=3)) \
        .with_cap({"u"}, 1)
    assert s.coeff_of("u", 1) == 1
    with pytest.raises(WindowUnderflow,
                       match="^coefficient of u\\^3 above the cap 1 on u$"):
        s.coeff_of("u", 3)


def test_coeff_of_above_a_cap_on_a_group_of_variables():
    # u^3 has degree 3 in {u, w}, above the cap 2: its coefficient 1 + w is
    # unknown, not the 0 that the rest's cap 2 - 3 would claim
    wins = {"u": up_win(4), "w": up_win(4)}
    s = (TS.monomial({"u": 1}, wins) + TS.monomial({"u": 3}, wins)
         + TS.monomial({"u": 3, "w": 1}, wins)).with_cap({"u", "w"}, 2)
    assert s.coeff_of("u", 1) == 1
    assert s.coeff_of("u", 1).caps == {frozenset("w"): 1}
    with pytest.raises(WindowUnderflow,
                       match="^coefficient of u\\^3 above the cap 2 on u, w$"):
        s.coeff_of("u", 3)


def test_shift_exponent_refuses_a_capped_variable():
    # u^2 + u^3 known to degree 2 in u stores u^2; shifted by -1 under the
    # same cap it would claim a known 0 at u^2, where the true value is 1
    s = TS.from_poly("u", {2: 1, 3: 1}).truncated({"u": up_win(4)}) \
        .with_cap({"u"}, 2)
    with pytest.raises(NotInvertible, match="^exponent shift of u"):
        s.shift_exponent("u", -1)


def test_derivative_keeps_a_hard_bottom_at_0():
    # the u^0 term vanishes: the derivative is still a power series in u,
    # so a cap on u still holds
    s = TS.from_poly("u", {0: 1, 1: 2, 3: 1}).truncated({"u": up_win(4)})
    d = s.derivative("u")
    assert d.wins["u"] == up_win(3)
    assert d.with_cap({"u"}, 1) == TS.from_poly("u", {0: 2})
    # the t-jacobian of the flat coordinates, which the chart caps in t
    chart = FlatChart(4, 3, 2)
    for row in chart.jacobian:
        for entry in row:
            for t in chart.tnames:
                w = entry._win(t)
                assert w.lo_hard and w.lo >= 0, (t, w)


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
    x2 = TS.from_poly("x", {2: 1}) + TS.scalar(0, {"eps": up_win(3)})
    want = TS.from_poly("x", {2: 1}) + \
        TS.from_poly("x", {1: 2}) * TS.var("eps", up_win(3)) + \
        TS.var("eps", up_win(3)) ** 2
    for shift in SHIFTS:
        assert shift(x, "x", "eps", 1) == x + TS.var("eps", up_win(3))
        assert shift(x2, "x", "eps", 1) == want


def test_taylor_shift_matches_substitution_oracle():
    import random
    rng = random.Random(3)
    coeffs = {i: F(rng.randint(-5, 5)) for i in range(4)}
    c = TS.from_poly("x", coeffs) + TS.scalar(0, {"eps": up_win(4)})
    # oracle: substitute x -> x + 2 eps directly
    x_plus = TS.from_poly("x", {1: 1}) + TS.from_poly("eps", {1: 2})
    want = TS.scalar(0, {"eps": up_win(4)})
    for e, v in coeffs.items():
        want = want + (x_plus ** e).scale(v)
    for shift in SHIFTS:
        got = shift(c, "x", "eps", 2)
        assert (got - want.truncated({"eps": up_win(4)})).is_zero()


def test_taylor_shift_additivity():
    c = TS.from_poly("x", {3: 2, 1: -1}) + TS.scalar(0, {"eps": up_win(5)})
    for shift in SHIFTS:
        lhs = shift(shift(c, "x", "eps", 2), "x", "eps", 3)
        rhs = shift(c, "x", "eps", 5)
        assert (lhs - rhs).is_zero()


def test_power_sum_guard_names_the_expansion():
    steps = []

    def never_vanishes(p):
        steps.append(p)
        return p
    with pytest.raises(NonConvergent, match="^toy chain did not terminate$"):
        series.power_sum(TS.scalar(1), never_vanishes, limit=5,
                         what="toy chain")
    # five powers are added; the sixth, still nonzero, raises
    assert len(steps) == 6


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


@examples(60)
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


@examples(40)
@given(st.lists(small_coeff, min_size=2, max_size=5))
def test_recip_is_right_inverse(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = 1
    f = random_series("u", coeffs)
    inv = f.recip()
    assert (f * inv - 1).is_zero()


pr_coeff = st.tuples(st.integers(-4, 4), st.integers(0, 2), st.integers(0, 2))


def build_pr(triples):
    out = PR.zero()
    for c, d, s in triples:
        out = out + PR.monomial(c, d, s)
    return out


@examples(80)
@given(st.lists(pr_coeff, min_size=1, max_size=3),
       st.lists(pr_coeff, min_size=1, max_size=3),
       st.lists(pr_coeff, min_size=1, max_size=3))
def test_coefficient_field_axioms(a, b, c):
    A, B, C = build_pr(a), build_pr(b), build_pr(c)
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    assert A + B == B + A
    assert A * B == B * A


@examples(40)
@given(st.integers(-3, 3), st.integers(1, 3), st.integers(0, 2))
def test_monomial_inverse_roundtrip(c, d, s):
    if c == 0 or s:
        return
    x = PR.monomial(F(c), d, 0)
    assert x * x.inverse() == PR.one()


@examples(30)
@given(st.lists(small_coeff, min_size=1, max_size=3),
       st.lists(small_coeff, min_size=1, max_size=3),
       st.integers(-2, 2))
def test_taylor_shift_is_multiplicative(a, b, r):
    A = TS.from_poly("x", {i: c for i, c in enumerate(a)})
    B = TS.from_poly("x", {i: c for i, c in enumerate(b)})
    wins = {"eps": up_win(5)}
    for shift in SHIFTS:
        lhs = shift((A * B).truncated(wins), "x", "eps", r)
        rhs = shift(A.truncated(wins), "x", "eps", r) * \
            shift(B.truncated(wins), "x", "eps", r)
        assert (lhs - rhs).is_zero()


NAMES = ("u", "v", "w")


def any_window(lo_range=(-3, 3), width=(0, 4), kinds=("up", "down", "exact")):
    return st.builds(lambda lo, width, kind: VarWindow(
        lo, lo + width, kind != "down", kind != "up"),
        st.integers(*lo_range), st.integers(*width), st.sampled_from(kinds))


def jet_window(width=(0, 4)):
    """An up or exact window hard below at 0 or 1: a capped variable."""
    return any_window((0, 1), width, ("up", "exact"))


# strategies that depend on no drawn value, built once: a composite
# strategy that builds them anew pays for it at every draw
JET_WINDOW, FREE_WINDOW = jet_window(), any_window((-3, 1))
WIDE_JET_WINDOW = jet_window((2, 5))
WIDE_FREE_WINDOW = any_window((-3, 1), (2, 5))
NONZERO_COEFF = st.integers(-5, 5).filter(bool).map(PR.rational)
SAMPLED_COEFF = st.sampled_from([c for c in range(-5, 6) if c]).map(
    PR.rational)


@st.composite
def windowed_series(draw, min_vars):
    """A small series over some of NAMES: up, down or exact windows, random
    terms inside them (or none), and an optional group cap.  A capped
    variable is hard below at 0 or 1 (the jet rule)."""
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES),
                                      min_size=min_vars))))
    group = draw(st.sets(st.sampled_from(names), min_size=1)) \
        if draw(st.booleans()) else set()
    wins = {v: draw(JET_WINDOW if v in group else FREE_WINDOW)
            for v in names}
    key = st.tuples(*[st.integers(wins[v].lo, wins[v].hi) for v in names])
    terms = draw(st.dictionaries(key, NONZERO_COEFF, min_size=1, max_size=6))
    if draw(st.sampled_from(["terms"] * 5 + ["zero factor"])) == "zero factor":
        terms = {}
    s = TS(names, wins, terms)
    if group:
        s = s.with_cap(group, draw(st.integers(0, 5)))
    return s


@examples(300)
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


@examples(200)
@given(windowed_series(1), st.integers(0, 2), st.integers(-3, 3),
       st.integers(-3, 3))
def test_euler_weight_is_v_times_derivative_plus_scale(s, pick, a, b):
    v = s.vars[pick % len(s.vars)]
    got = s.euler_weight(v, a, b)
    # the reference shifts v, so it runs uncapped and takes s's caps after
    plain = TS(s.vars, s.wins, s.terms)
    want = sum_series([plain.derivative(v).shift_exponent(v, 1).scale(a),
                       plain.scale(b)])
    for g, c in s.caps.items():
        want = want.with_cap(g, c)
    assert (got.vars, got.wins, got.caps) == (want.vars, want.wins, want.caps)
    assert sorted(got.terms.items()) == sorted(want.terms.items())


@st.composite
def truncated_factors(draw):
    """Two factors of 12-20 terms over u (truncated, both up or both down),
    v (exact, hard below at 0) and maybe w (truncated up).  Each factor has
    terms at both ends of its u window, so the product's u window rejects
    about half of the pairs, and w another share; an optional cap on v and
    w."""
    names = ("u", "v", "w") if draw(st.booleans()) else ("u", "v")
    kind = draw(st.sampled_from(["up", "down"]))
    factors = []
    for _ in range(2):
        depth = draw(st.integers(4, 9))
        wins = {"u": up_win(depth) if kind == "up" else down_win(-depth),
                "v": exact_win(0, 4), "w": up_win(draw(st.integers(2, 5)))}
        wins = {v: wins[v] for v in names}
        key = st.tuples(*[st.integers(wins[v].lo, wins[v].hi) for v in names])
        terms = draw(st.dictionaries(key, SAMPLED_COEFF, min_size=12,
                                     max_size=18))
        rest = (0,) * (len(names) - 1)
        for e in (wins["u"].lo, wins["u"].hi):
            terms[(e,) + rest] = draw(SAMPLED_COEFF)
        s = TS(names, wins, terms)
        if draw(st.booleans()):
            s = s.with_cap(set(names) - {"u"}, draw(st.integers(2, 6)))
        factors.append(s)
    return factors


def least_caps(a, b):
    """Per group, the least cap of the two factors: the caps of a * b."""
    caps = {}
    for x in (a, b):
        for g, c in x.caps.items():
            caps[g] = min(caps.get(g, c), c)
    return caps


def every_pair_product(a, b):
    """a * b for factors over the same variables, by the schoolbook loop
    over every pair of terms: the keep test of the window and the caps."""
    wins = a._product_wins(b, a.vars)
    caps = least_caps(a, b)
    terms = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if any(not wins[v].lo <= e <= wins[v].hi
                   for v, e in zip(a.vars, key)):
                continue
            if any(sum(e for v, e in zip(a.vars, key) if v in g) > c
                   for g, c in caps.items()):
                continue
            s = terms.get(key, PR.zero()) + ca * cb
            if s.is_zero():
                del terms[key]
            else:
                terms[key] = s
    return TS(a.vars, wins, terms, caps)


@examples(200)
@given(truncated_factors())
def test_windowed_product_matches_every_pair_loop(factors):
    a, b = factors
    assume(len(a.terms) >= 10 and len(b.terms) >= 10)
    formed = 0
    pair_products = series._pair_products

    def counting(pairs, bounds, where):
        def counted():
            nonlocal formed
            for ka, ca, tb in pairs:
                formed += len(tb)
                yield ka, ca, tb
        return pair_products(counted(), bounds, where)
    series._pair_products = counting
    try:
        got = a * b
    finally:
        series._pair_products = pair_products
    assert formed < len(a.terms) * len(b.terms)   # the window filter ran
    want = every_pair_product(a, b)
    assert got.vars == want.vars
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.wins == want.wins
    assert got.caps == want.caps


@st.composite
def capped_factors(draw):
    """Two factors of 10-16 terms over u, v, w (each up, down or exact), as
    drawn and under one or two group caps, each cap on one factor or on
    both and each on variables hard below at 0 or 1 (the jet rule):
    ``(plain factors, capped factors)``."""
    names = ("u", "v", "w")
    groups = [draw(st.sets(st.sampled_from(names), min_size=1))
              for _ in range(draw(st.integers(1, 2)))]
    capped = set().union(*groups)
    wins = {v: draw(WIDE_JET_WINDOW if v in capped else WIDE_FREE_WINDOW)
            for v in names}
    key = st.tuples(*[st.integers(wins[v].lo, wins[v].hi) for v in names])
    plain = [TS(names, wins, draw(st.dictionaries(key, SAMPLED_COEFF,
                                                  min_size=10, max_size=16)))
             for _ in range(2)]
    factors = plain
    for group in groups:
        cap = draw(st.integers(-2, 6))
        on = draw(st.sampled_from([(0,), (1,), (0, 1)]))
        factors = [f.with_cap(group, cap) if i in on else f
                   for i, f in enumerate(factors)]
    return plain, factors


@examples(200)
@given(capped_factors())
def test_capped_product_matches_under_caps_pair_loop(factors):
    _, (a, b) = factors
    try:
        got = a * b
    except WindowUnderflow:
        return
    lows, highs, capspec = series._key_bounds(got.vars, got.wins, got.caps)
    want = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if not all(lo <= e <= hi for e, lo, hi in zip(key, lows, highs)) \
                    or not series._under_caps(key, capspec):
                continue
            s = want.get(key, PR.zero()) + ca * cb
            if s.is_zero():
                del want[key]
            else:
                want[key] = s
    assert got.caps == least_caps(a, b)
    assert list(got.terms.items()) == list(want.items())


@examples(200)
@given(capped_factors())
def test_capped_product_is_the_uncapped_product_under_its_caps(factors):
    # a capped factor may hold anything above its cap, so where the capped
    # product claims a term it must agree with the product of the factors
    # as drawn
    (pa, pb), (a, b) = factors
    try:
        got = a * b
    except WindowUnderflow as exc:
        # both factors keep the jet rule, so only a window can raise
        assert not str(exc).startswith("group")
        return
    want = pa * pb
    for g, c in got.caps.items():
        want = want.with_cap(g, c)
    assert got.vars == want.vars
    assert (got - want).is_zero()


def pair_loop_product(a, b):
    """a * b by the general pair loop of ``__mul__`` for any factors: keys
    remapped one by one, the support bounds of each variable taken from a
    list of the factor's exponents, every pair formed by ``_window_pairs``
    and ``_pair_products``, which tests the window at every position.  The
    reference of the product's fast exits, of the support bounds a series
    keeps and of the positions it tests."""
    allvars = tuple(sorted(set(a.vars) | set(b.vars)))

    def keyed(s):
        return {tuple(dict(zip(s.vars, key)).get(v, 0) for v in allvars): c
                for key, c in s.terms.items()}

    # a factor with no terms is a known zero only when every window is
    # both-hard; else a both-hard variable keeps its window as its support
    def known_zero(s):
        return not s.terms and all(w.lo_hard and w.hi_hard
                                   for w in s.wins.values())

    def support(s, v):
        if v not in s.wins:
            return (series.POS_INF, series.NEG_INF) if known_zero(s) \
                else (0, 0)
        w = s.wins[v]
        if not s.terms and w.lo_hard and w.hi_hard and not known_zero(s):
            return (w.lo, w.hi)
        i = s.vars.index(v)
        return series.support_in(w, [key[i] for key in s.terms])

    caps = a._product_caps(b)
    wins = {}
    for v in allvars:
        sa, sb = support(a, v), support(b, v)
        if sa[0] > sa[1] or sb[0] > sb[1]:
            wins = {u: series.POINT for u in allvars}
            break
        wins[v] = series.product_win(a._win(v), b._win(v), sa, sb, v)
    bounds = series._key_bounds(allvars, wins, caps)
    right = [(key, c, tuple(sum(key[i] for i in pos) for pos, _ in bounds[2]))
             for key, c in keyed(b).items()]
    terms = series._pair_products(
        series._window_pairs(keyed(a), right, bounds), bounds,
        range(len(allvars)))
    return TS(allvars, wins, terms, caps)


@st.composite
def term_factors(draw):
    """(a, b): a ``windowed_series`` and, in either order, a factor with
    no terms or one term, its coefficient 1 or not, over any of NAMES (or
    none), maybe under a cap of its own."""
    many = draw(windowed_series(1))
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES)))))
    group = draw(st.sets(st.sampled_from(names), min_size=1)) \
        if names and draw(st.booleans()) else set()
    wins = {v: draw(JET_WINDOW if v in group else FREE_WINDOW)
            for v in names}
    terms = {}
    kind = draw(st.sampled_from(["no term", "coefficient 1", "another"]))
    if kind != "no term":
        key = tuple(draw(st.integers(wins[v].lo, wins[v].hi)) for v in names)
        terms[key] = PR.one() if kind == "coefficient 1" else draw(
            st.sampled_from([PR.rational(-1), PR.rational(F(2, 3)), PR.nu(3),
                             PR.diff() + PR.nu1()]))
    small = TS(names, wins, terms)
    if group:
        small = small.with_cap(group, draw(st.integers(0, 5)))
    return (small, many) if draw(st.booleans()) else (many, small)


@examples(300)
@given(term_factors())
def test_products_by_a_factor_of_at_most_one_term_match_the_pair_loop(
        factors):
    a, b = factors
    try:
        want = pair_loop_product(a, b)
    except WindowUnderflow:
        with pytest.raises(WindowUnderflow):
            a * b
        return
    formed = []
    pair_products = series._pair_products

    def counting(pairs, bounds, where):
        formed.append(1)
        return pair_products(pairs, bounds, where)
    series._pair_products = counting
    try:
        got = a * b
    finally:
        series._pair_products = pair_products
    assert_same_series(got, want)
    if not a.terms or not b.terms or \
            (not want.caps and 1 in (len(a.terms), len(b.terms))):
        assert not formed       # a fast exit formed no pair


@examples(300)
@given(windowed_series(1), windowed_series(1))
def test_kept_support_bounds_give_the_pair_loop_product(a, b):
    # the factors' support bounds are computed once and kept, also by a
    # first product that raises
    for _ in range(2):
        pair = raises_like(lambda: pair_loop_product(a, b), lambda: a * b)
        if pair:
            assert_same_series(*pair)


@pytest.mark.parametrize("other, in_a", [(None, False), ("x", True),
                                         ("x", False)],
                         ids=["None", "x", "x-of-b-only"])
def test_a_factor_without_terms_keeps_its_soft_window(other, in_a):
    # a = eps^4 (times x) known only through eps^3 has no terms; its
    # product with b = 1 + eps (times x) is unknown from eps^4, where the
    # true product holds a's unknown eps^4 coefficient.  In x-of-b-only,
    # a = eps^4 and b = (1 + eps) x: x is the point 0 in a, which is no
    # known zero, so the product is exact in x where b is
    eps4, eps = TS.from_poly("eps", {4: 1}), TS.from_poly("eps", {1: 1})
    if in_a:
        eps4, eps = (s * TS.from_poly(other, {1: 1}) for s in (eps4, eps))
    b = 1 + eps
    if other is not None and not in_a:
        b = b * TS.from_poly(other, {1: 1})
    a = eps4.truncated({"eps": VarWindow(3, 3, True, False)})
    b = b.truncated({"eps": up_win(3)})
    assert not a.terms
    prod = a * b
    assert prod.wins["eps"] == VarWindow(3, 3, True, False)
    if other is not None and not in_a:
        assert prod.wins[other] == exact_win(1, 1)


@examples(200)
@given(st.dictionaries(st.sampled_from(NAMES), any_window(), max_size=3),
       st.dictionaries(st.frozensets(st.sampled_from(NAMES), min_size=1),
                       st.integers(-2, 3), max_size=2),
       st.integers(-2, 2))
def test_scalar_keeps_its_term_where_a_prune_would(wins, caps, c):
    # a nonzero c is known at exponent 0, so each window that excludes 0
    # widens to hold it; negative caps drop the term, as does c = 0
    if c:
        wins = {v: VarWindow(min(w.lo, 0), max(w.hi, 0), w.lo_hard,
                             w.hi_hard) for v, w in wins.items()}
    vars = tuple(sorted(wins))
    want = TS(vars, dict(wins), {(0,) * len(vars): PR.rational(c)},
              dict(caps))._pruned()
    assert_same_series(TS.scalar(c, wins, caps), want)


def test_var_window_is_a_value():
    w = VarWindow(-2, 3, True, False)
    assert repr(w) == "VarWindow(lo=-2, hi=3, lo_hard=True, hi_hard=False)"
    assert w == VarWindow(-2, 3, True, False) == up_win(3, lo=-2)
    # the hash of a frozen dataclass of the four fields
    assert hash(w) == hash(up_win(3, lo=-2)) == hash((-2, 3, True, False))
    assert {w: 1}[up_win(3, lo=-2)] == 1
    for other in (VarWindow(-1, 3, True, False), VarWindow(-2, 4, True, False),
                  VarWindow(-2, 3, False, False), VarWindow(-2, 3, True, True),
                  (-2, 3, True, False), None):
        assert w != other and not w == other


def capped_u2():
    """u^2 + u^3, u up, known to degree 2 in {u, w}: it stores u^2."""
    return TS.from_poly("u", {2: 1, 3: 1}).truncated({"u": up_win(4)}) \
        .with_cap({"u", "w"}, 2)


def v_capped_on_u_hard_at_minus_1():
    """v (up to v^2) under the cap 0 on {u}, u hard below at -1 by a later
    truncation, and w up to w^0.  v * v is known only through degree -1 in
    {u}, so it stores nothing there, and a truncated power sum of exp(v)
    that stops at that empty power claims v^2 a known 0 where 1/2 is
    right."""
    return TS.var("v", up_win(2)).with_cap({"u"}, 0).truncated(
        {"u": VarWindow(-1, 1, True, False), "w": up_win(0)})


def crossed_both_ways():
    """u^2 + w^-1, u up and w down: under a cap on {u, w}, w^-1 would carry
    any unknown u^3 back under the cap."""
    wins = {"u": up_win(4), "w": down_win(-4, hi=0)}
    return TS.monomial({"u": 2}, wins) + TS.monomial({"w": -1}, wins)


def moved_down_in_x():
    """u^3 + u x^-2, u up and x exact [-2, 0]: under a cap on {u, x}, each
    power would lower the degree in the group."""
    wins = {"u": up_win(4), "x": exact_win(-2, 0)}
    return TS.monomial({"u": 3}, wins) + TS.monomial({"u": 1, "x": -2}, wins)


def refused(group, op, v, win):
    return (rf"^group \[{group}\]: cap in {op} on variable {v} with window "
            + re.escape(repr(win)) + ", not hard below at >= 0$")


# A cap counts the total degree of jet variables, each hard below at >= 0:
# every entry point that meets a cap outside that rule refuses it
CAP_REFUSALS = {
    "with_cap-soft-below": (
        lambda: crossed_both_ways().with_cap({"u", "w"}, 2), WindowUnderflow,
        refused("'u', 'w'", "with_cap", "w", down_win(-4))),
    "with_cap-exact-below-0": (
        lambda: moved_down_in_x().with_cap({"u", "x"}, 3), WindowUnderflow,
        refused("'u', 'x'", "with_cap", "x", exact_win(-2, 0))),
    # the unknown u^3 of the capped factor would land at u^3 w^-1, degree 2
    "product-negative-degree": (
        lambda: capped_u2() * TS.from_poly("w", {-1: 1}), WindowUnderflow,
        refused("'u', 'w'", "product", "w", exact_win(-1, -1))),
    "mul_coeff-negative-degree": (
        lambda: TS.from_poly("w", {-1: 1}).mul_coeff(capped_u2(), "u", 3),
        WindowUnderflow, refused("'u', 'w'", "product", "w",
                                 exact_win(-1, -1))),
    # v + u known to degree 0 in {u} stores v; its unknown u times the
    # u^-1 v^2 that the truncation to v <= 1 drops would land at v^2
    "product-truncated-factor": (
        lambda: (TS.var("v", exact_win(0, 2)) + TS.var("u", up_win(4)))
        .with_cap({"u"}, 0) * (TS.scalar(1, {"u": exact_win(-1, 0)})
                               + TS.from_poly("u", {-1: 1})
                               * TS.from_poly("v", {2: 1}))
        .truncated({"v": up_win(1)}), WindowUnderflow,
        refused("'u'", "product", "u", exact_win(-1, 0))),
    "exp-hard-below-at-minus-1": (
        lambda: v_capped_on_u_hard_at_minus_1().exp(), WindowUnderflow,
        refused("'u'", "exp", "u", VarWindow(-1, 1, True, False))),
    "log1p-hard-below-at-minus-1": (
        lambda: v_capped_on_u_hard_at_minus_1().log1p(), WindowUnderflow,
        refused("'u'", "log1p", "u", VarWindow(-1, 1, True, False))),
    "recip-hard-below-at-minus-1": (
        lambda: (1 + v_capped_on_u_hard_at_minus_1()).recip(),
        WindowUnderflow,
        refused("'u'", "recip", "u", VarWindow(-1, 1, True, False))),
    # 1/(u + u^3) = u^-1 (1 - u^2 + ...) would shift every degree by -1
    "recip-led-by-a-capped-variable": (
        lambda: TS.from_poly("u", {1: 1, 3: 1}).truncated({"u": up_win(5)})
        .with_cap({"u"}, 3).recip(), NonUnit,
        r"^recip of a series led by \(1,\), of nonzero degree in the "
        r"capped group \['u'\]$"),
}


@pytest.mark.parametrize("case", CAP_REFUSALS)
def test_cap_refusals(case):
    call, error, match = CAP_REFUSALS[case]
    with pytest.raises(error, match=match):
        call()


@st.composite
def unit_series(draw):
    """A ``windowed_series`` plus a dominating leading monomial: the lowest
    exponent of an up window, the highest of a down window, any exponent of
    an exact window (the lowest in a capped group, whose windows start at 0
    or 1).  The tail leaves some exact variables alone."""
    s = draw(windowed_series(1))
    capped = set().union(*s.caps)
    lead, still = [], []
    for i, v in enumerate(s.vars):
        w = s.wins[v]
        if w.lo_hard and w.hi_hard:
            lead.append(w.lo if v in capped else draw(st.integers(w.lo, w.hi)))
            if draw(st.booleans()):
                still.append(i)
        else:
            lead.append(w.lo if w.lo_hard else w.hi)
    terms = {}
    for key, c in s.terms.items():
        key = tuple(lead[i] if i in still else e for i, e in enumerate(key))
        terms[key] = c
    terms[tuple(lead)] = PR.rational(draw(st.integers(-3, 3).filter(bool)))
    return TS(s.vars, s.wins, terms, s.caps)._pruned()


@examples(300)
@given(unit_series())
@example(TS.from_poly("u", {1: 1, 2: 1}).truncated({"u": up_win(5)}))
@example(TS.from_poly("u", {0: 1, 3: 1}).truncated({"u": up_win(5)})
         .with_cap({"u"}, 3))
def test_recip_matches_power_loop(s):
    try:
        want = chain_recip_by_powers(s)
    except (NonUnit, WindowUnderflow) as exc:
        with pytest.raises(type(exc)):
            s.recip()
        return
    got = s.recip()
    assert got.vars == want.vars
    assert got.terms == want.terms
    assert got.wins == want.wins
    assert got.caps == want.caps


def test_subst_leaves_no_cyclic_garbage():
    # the power table of a substitution is freed when subst returns, not
    # later by the cycle collector
    f = TS.from_poly("lam", {1: 1, -1: 5, -2: 3}).truncated(
        {"lam": down_win(-6, hi=1)})
    g = TS.from_poly("lam", {1: 1, 0: 2, -1: 1}).truncated(
        {"lam": down_win(-6, hi=1)})
    gc.collect()
    gc.disable()
    try:
        f.subst("lam", g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subst_keeps_a_truncation_off_exact_variables():
    # q known through q^3, eps exact: under q -> q + 5 eps the unknown q^4
    # term feeds eps q^3 (by 4 * 5) and eps^2 q^2 (by 6 * 25), so no window
    # of the image in q and eps is exact; the substitution must refuse
    eps = exact_win(-24, 24)
    f = TS.from_poly("q", {j: 1 for j in range(7)}).truncated(
        {"q": up_win(3), "eps": eps})
    shift = TS.var("q", up_win(3)) + \
        TS.from_poly("eps", {1: 5}).truncated({"eps": eps})
    with pytest.raises(NotInvertible):
        f.subst("q", shift)


def test_subst_keeps_the_constant_group_under_a_replacement_without_1():
    # each window of q and of q/x leaves out exponent 0, and a 1 on such a
    # window stores no term: repl^0 = 1 needs its windows widened to hold 0
    q = TS.from_poly("q", {1: 1})
    got = TS.from_poly("y", {0: 1, 1: 1}).subst("y", q)
    assert_same_series(got, TS.from_poly("q", {0: 1, 1: 1}))
    q_over_x = q * TS.from_poly("x", {-1: 1})
    got = TS.from_poly("y", {0: 1, 1: 1}).subst("y", q_over_x)
    want = TS(("q", "x"), {"q": exact_win(0, 1), "x": exact_win(-1, 0)},
              {(0, 0): PR.one(), (1, -1): PR.one()})
    assert_same_series(got, want)


def test_recip_empty_window_names_variable():
    # the leading term u^3 lies above the u window [0, 2]
    s = TS(("u", "w"), {"u": up_win(2), "w": exact_win(0, 0)},
           {(3, 0): PR.one(), (4, 0): PR.one()})
    with pytest.raises(WindowUnderflow, match="variable u: empty window "
                       "in recip .*leading exponent 3"):
        s.recip()


def test_paramrat_hash_agrees_with_equality():
    assert PR.one() == 1 and {PR.one(): 0}.get(1) == 0
    assert {1: "one"}.get(PR.one()) == "one"
    assert hash(PR.zero()) == hash(0) == hash(F(0))
    assert hash(PR.rational(F(3, 4))) == hash(F(3, 4))
    x = PR.nu(3) + PR.nu1()
    assert hash(x) == hash(PR.nu1() + PR.nu(3))
    assert len({PR.rational(2), 2, F(2)}) == 1
    # equal elements built by different routes hash equal
    a, b, c = PR.nubar(5) + F(2, 7), PR.nu(3) * PR.nu1(), x / 6
    for lhs, rhs in (((a * b) * c, a * (b * c)),
                     (x / 3, x * PR.rational(F(1, 3))),
                     (x.swap_nu().swap_nu(), x),
                     ((a * c).swap_nu().swap_nu(), a * c)):
        assert lhs == rhs and hash(lhs) == hash(rhs)


@examples(60)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3),
                                 st.integers(0, 2)),
                       small_coeff.filter(bool), min_size=1, max_size=6),
       st.integers(-3, 3), st.integers(0, 5), st.booleans(), st.booleans())
def test_exp_derivation_is_taylor_shift(terms, step, top, exact, capped):
    # exp(step eps d/dx) c = c(x + step eps) by Taylor's theorem: c(x, y,
    # eps) exact in x and a jet in y (capped or not), on an up eps window
    # that the powers may escape, or an exact one holding them all
    w = exact_win(0, 8) if exact else up_win(top)
    wins = {"x": exact_win(0, 4), "y": up_win(3), "eps": w}
    c = sum_series(TS.monomial({"x": a, "y": b, "eps": e}, wins, coeff)
                   for (a, b, e), coeff in terms.items())
    if capped:
        c = c.with_cap({"y"}, 2)
    got = c.exp_derivation(x_shift(step), {"eps": w})
    want = taylor_shift(c, "x", "eps", step, w)
    assert got.terms == want.terms
    assert got.caps == want.caps
    for v in want.vars:
        assert (got.wins[v].known_lo(), got.wins[v].known_hi()) == \
            (want.wins[v].known_lo(), want.wins[v].known_hi())


def test_exp_derivation_truncates_an_escaped_tail_in_its_window_alone():
    # exp(eps lam^-1 d/dy) f to lam^-1: the second power lies below lam^-1
    # in full, unknown y-orders included, so it narrows only lam; the sum
    # knows y to degree 3, as its first power does, not 2
    f = TS.from_poly("y", {0: 1, 1: 2, 3: -1, 4: 5}).truncated(
        {"y": up_win(4)})
    part = TS.from_poly("eps", {1: 1}) * TS.from_poly("lam", {-1: 1})
    got = f.exp_derivation([("y", part)], {"lam": down_win(-1)})
    want = (f + f.derivative("y") * part).truncated({"lam": down_win(-1)})
    assert got.terms == want.terms
    assert got.wins["y"] == up_win(3)
    assert got.wins["lam"].known_lo() == -1


def test_exp_derivation_escape_needs_a_tail_that_stays_out():
    # a hard lam-window below -1 leaves down_win(-1) for good only if no
    # move of D raises lam: a drift of 0 keeps it there, +1 may not
    below = exact_win(-4, -2)
    assert series._leaves(below, 1, [-1, 0], down_win(-1))
    assert not series._leaves(below, 1, [-1, 1], down_win(-1))
    # j moves of D take a series hard at lam^0 below lam^-j
    assert not series._leaves(exact_win(0, 0), 1, [-1, -2], down_win(-1))
    assert series._leaves(exact_win(0, 0), 2, [-1, -2], down_win(-1))
    # an exact window is known everywhere: nothing lies outside it
    assert not series._leaves(exact_win(0, 0), 5, [1], exact_win(-2, 2))


def test_exp_derivation_without_end_raises():
    # d/dy never empties y^-1, and no window bounds the powers
    f = TS.from_poly("y", {-1: 1})
    with pytest.raises(NonConvergent, match="exp of a derivation"):
        f.exp_derivation([("y", TS.from_poly("eps", {1: 1}))], {})


def test_exp_derivation_of_commuting_parts_is_substitution():
    # exp(eps (2 d/dy - 3 d/dw)) f(y, w) = f(y + 2 eps, w - 3 eps)
    f = TS.from_poly("y", {0: 1, 1: -2, 3: F(1, 2)}) * \
        TS.from_poly("w", {0: 3, 2: 1}) + TS.from_poly("w", {1: 5})
    parts = [("y", TS.from_poly("eps", {1: 2})),
             ("w", TS.from_poly("eps", {1: -3}))]
    got = f.exp_derivation(parts, {})
    want = f.subst("y", TS.from_poly("y", {1: 1}) + TS.from_poly("eps", {1: 2})) \
        .subst("w", TS.from_poly("w", {1: 1}) + TS.from_poly("eps", {1: -3}))
    assert got.terms == want.terms
    assert got == want


def test_rename_round_trips():
    s = (TS.var("a", up_win(4)) * TS.var("b", down_win(-3, hi=1))
         + TS.var("c", exact_win(0, 2), power=2)).with_cap({"a", "c"}, 3)
    r = s.rename({"a": "z", "c": "d"})
    assert r.vars == ("b", "d", "z")
    assert r.wins["z"] == s.wins["a"] and r.caps == {frozenset("dz"): 3}
    back = r.rename({"z": "a", "d": "c"})
    assert back.vars == s.vars
    assert back.wins == s.wins
    assert back.caps == s.caps
    assert list(back.terms.items()) == list(s.terms.items())


def test_swap_nu_twice_is_identity():
    assert PR.nu0().swap_nu() == PR.nu1()
    assert PR.diff().swap_nu() == -PR.diff()
    s = TS.from_poly("x", {0: PR.nu0(), 1: PR.nu1() * PR.diff().inverse(),
                           3: PR.nu(3) + PR.nu1() ** 2})
    once = s.map_coeffs(PR.swap_nu)
    assert once != s
    twice = once.map_coeffs(PR.swap_nu)
    assert (twice.vars, twice.wins, twice.caps) == (s.vars, s.wins, s.caps)
    assert twice.terms == s.terms


# -- sums by a chain of binary additions: the references of the accumulator


def chain_add(a, b):
    """a + b as one binary addition: remap both, merge every window, add
    b's terms into a copy of a's, prune."""
    if a.vars == b.vars:
        allvars, ta, tb = a.vars, a.terms, b.terms
    else:
        allvars = tuple(sorted(set(a.vars) | set(b.vars)))
        ta = series._remap(a.terms, a.vars, allvars)
        tb = series._remap(b.terms, b.vars, allvars)
    wins = {}
    for v in allvars:
        wa, wb = a._win(v), b._win(v)
        klo = max(wa.known_lo(), wb.known_lo())
        khi = min(wa.known_hi(), wb.known_hi())
        lo = min(wa.lo, wb.lo) if klo == series.NEG_INF \
            else max(min(wa.lo, wb.lo), int(klo))
        hi = max(wa.hi, wb.hi) if khi == series.POS_INF \
            else min(max(wa.hi, wb.hi), int(khi))
        if lo > hi:
            raise WindowUnderflow(f"variable {v}: empty window in addition")
        wins[v] = VarWindow(lo, hi, klo == series.NEG_INF,
                            khi == series.POS_INF)
    out = dict(ta)
    for key, c in tb.items():
        s = out[key] + c if key in out else c
        if s.is_zero():
            del out[key]
        else:
            out[key] = s
    return TS(allvars, wins, out, series._cap_merge(a.caps, b.caps))._pruned()


def chain_truncated(s, wins):
    """One ``chain_add`` of a zero series per entry of ``wins``."""
    for v, w in wins.items():
        s = chain_add(s, TS.scalar(0, {v: w}))
    return s


def chain_power_sum(power, step, coeff=None, total=None, limit=100000):
    """``series.power_sum`` with ``total = chain_add(total, term)``."""
    total = power if total is None else total
    for j in range(1, limit + 2):
        power = step(power)
        if power.is_zero():
            return total
        if j > limit:
            raise NonConvergent("power sum did not terminate")
        total = chain_add(total, power if coeff is None
                          else power.scale(coeff(j)))


def chain_subst(s, v, repl):
    """``s.subst(v, repl)`` summing each group * repl^e with ``chain_add``
    and truncating its image with ``chain_truncated``."""
    if v not in s.wins:
        return s
    w = s.wins[v]
    if any(v in g for g in s.caps):
        raise NotInvertible("substitution on a cap-grouped variable")
    lv = None if w.lo_hard and w.hi_hard else series._leading_var(repl)
    if lv is None and not (w.lo_hard and w.hi_hard):
        raise NotInvertible("no leading truncated variable")
    i = s.vars.index(v)
    groups = {}
    for key, c in s.terms.items():
        groups.setdefault(key[i], {})[key[:i] + key[i + 1:]] = c
    nvars = s.vars[:i] + s.vars[i + 1:]
    nwins = {u: wv for u, wv in s.wins.items() if u != v}
    # repl^0 = 1 on repl's windows, each widened to hold 0
    pows = {0: TS.scalar(1, {u: VarWindow(min(wu.lo, 0), max(wu.hi, 0),
                                          wu.lo_hard, wu.hi_hard)
                             for u, wu in repl.wins.items()})}
    for e in range(1, max(groups, default=0) + 1):
        pows[e] = pows[e - 1] * repl
    if min(groups, default=0) < 0:
        inv = repl.recip()
        for e in range(-1, min(groups) - 1, -1):
            pows[e] = pows[e + 1] * inv
    out = chain_add(TS(nvars, nwins, {}, s.caps), TS.scalar(0, repl.wins))
    for e, sub in sorted(groups.items()):
        out = chain_add(out, TS(nvars, nwins, sub, s.caps) * pows[e])
    if lv is None:
        return out
    wu = out._win(lv)
    lo, lo_hard, hi, hi_hard = wu.lo, wu.lo_hard, wu.hi, wu.hi_hard
    if not w.hi_hard:
        hi, hi_hard = min(hi, w.hi), False
    if not w.lo_hard:
        lo, lo_hard = max(lo, w.lo), False
    if lo > hi:
        raise WindowUnderflow(f"empty window after substitution in {v}")
    return chain_truncated(out, {lv: VarWindow(lo, hi, lo_hard, hi_hard)})


def assert_same_series(got, want):
    """Same vars, windows and caps, and the same terms in the same order."""
    assert got.vars == want.vars
    assert got.wins == want.wins
    assert got.caps == want.caps
    assert list(got.terms.items()) == list(want.terms.items())


def raises_like(want_call, got_call):
    """Run the reference; if it raises, the new code must raise the same
    type.  Returns the pair of results otherwise."""
    try:
        want = want_call()
    except (WindowUnderflow, NonUnit, NotInvertible, NonConvergent) as exc:
        with pytest.raises(type(exc)):
            got_call()
        return None
    return got_call(), want


@examples(300)
@given(windowed_series(1),
       st.dictionaries(st.sampled_from(NAMES + ("z",)), any_window(),
                       max_size=4))
def test_truncated_matches_chain_of_additions(s, wins):
    # multi-key windows, absent variables (z, and names s lacks), lo-hard
    # windows that exclude 0, and capped series
    pair = raises_like(lambda: chain_truncated(s, wins),
                       lambda: s.truncated(wins))
    if pair:
        assert_same_series(*pair)


def test_truncated_keeps_the_point_merge_of_each_key():
    # every variable meets the point window 0 of the other key's summand
    s = TS(("a",), {"a": up_win(6, lo=3)}, {(3,): PR.one()})
    got = s.truncated({"a": up_win(5, lo=2), "b": up_win(3)})
    assert got.wins == {"a": up_win(5, lo=0), "b": up_win(3)}
    assert s.truncated({"a": up_win(5, lo=2)}).wins == {"a": up_win(5, lo=2)}


@st.composite
def summand_lists(draw):
    """2-5 windowed series; some repeat or negate an earlier one, so a key
    cancels and is later added again."""
    out = [draw(windowed_series(1))]
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(["new", "new", "negate", "repeat"]))
        if how == "new":
            out.append(draw(windowed_series(1)))
        else:
            s = draw(st.sampled_from(out))
            out.append(-s if how == "negate" else s)
    return out


@examples(300)
@given(summand_lists())
def test_fold_matches_chain_of_additions(summands):
    def want():
        return functools.reduce(chain_add, summands)

    for got in (lambda: series._fold(summands[0], summands[1:], "addition"),
                lambda: sum_series(summands),
                lambda: sum_series(iter(summands[1:]), summands[0])):
        pair = raises_like(want, got)
        if pair:
            assert_same_series(*pair)


@examples(300)
@given(summand_lists())
def test_fold_skips_only_prunes_that_drop_nothing(summands):
    try:
        got = series._fold(summands[0], summands[1:], "addition")
    except WindowUnderflow:
        return
    assert_same_series(got, got._pruned())


def test_fold_prunes_when_a_window_narrows_or_a_cap_applies(monkeypatch):
    pruned = []
    prune = TS._pruned

    def counting(s):
        pruned.append(1)
        return prune(s)

    def fold(*summands):
        pruned.clear()
        monkeypatch.setattr(TS, "_pruned", counting)
        try:
            return series._fold(summands[0], summands[1:], "addition"), \
                len(pruned)
        finally:
            monkeypatch.setattr(TS, "_pruned", prune)
    u = TS.var("u", up_win(4))
    # every term inside the merged windows: no prune
    assert fold(u, u * u)[1] == 0
    # u^2 leaves the merged window [0, 1]
    got, prunes = fold(u * u, TS.scalar(1, {"u": up_win(1)}))
    assert prunes == 1 and list(got.terms) == [(0,)]
    # degree 3 under the cap 3: no prune; the cap 1 of -u drops u^2, u^3
    jet = (1 + u + u * u).with_cap({"u"}, 3)
    assert fold(jet, u * u * u)[1] == 0
    got, prunes = fold(jet, (-u).with_cap({"u"}, 1), u * u * u)
    assert prunes == 1 and list(got.terms) == [(0,)]


def test_sum_series_edge_cases():
    u = TS.var("u", up_win(4))
    start = TS.scalar(0, {"u": up_win(2)})
    # empty: zero, or the start itself
    assert_same_series(sum_series([]), TS.zero())
    assert_same_series(sum_series(iter(()), start), start)
    # one summand is returned as it is, as by reduce
    assert sum_series([u]) is u
    # an explicit start takes part in the window merge
    got = sum_series([u, u * u, u * u * u], start)
    assert_same_series(got, functools.reduce(chain_add, [start, u, u * u,
                                                         u * u * u]))
    assert got.wins == {"u": up_win(2)}
    # a generator is consumed once, one summand at a time
    built = []

    def powers():
        p = u
        for _ in range(3):
            built.append(p)
            yield p
            p = p * u
    got = sum_series(powers())
    assert len(built) == 3
    assert_same_series(got, functools.reduce(chain_add, built))


def test_fold_takes_the_least_cap_and_readds_a_cancelled_key():
    u = TS.var("u", up_win(4))
    a = (1 + u + u * u).with_cap({"u"}, 3)
    b = (-u).with_cap({"u"}, 1)
    got = series._fold(a, [b, u * u * u, u], "addition")
    assert_same_series(got, functools.reduce(chain_add, [a, b, u * u * u, u]))
    assert got.caps == {frozenset({"u"}): 1}
    assert list(got.terms) == [(0,), (1,)]


@st.composite
def small_series(draw):
    """A ``windowed_series`` keeping only the terms that move every soft
    variable forward (toward its truncation) and some strictly."""
    s = draw(windowed_series(1))
    soft = {v: 1 if w.lo_hard else -1 for v, w in s.wins.items()
            if not (w.lo_hard and w.hi_hard)}

    def small(key):
        o = [soft[v] * e for v, e in zip(s.vars, key) if v in soft]
        return all(x >= 0 for x in o) and any(x > 0 for x in o)
    return TS(s.vars, s.wins, {k: c for k, c in s.terms.items() if small(k)},
              s.caps)


def chain_exp(s):
    gwins = s._offset_window((0,) * len(s.vars), "exp")
    return chain_power_sum(TS.scalar(1, gwins, s.caps),
                           lambda p: chain_truncated(p * s, gwins),
                           lambda j: F(1, math.factorial(j)))


def chain_log1p(s):
    gwins = s._offset_window((0,) * len(s.vars), "log1p")
    return chain_power_sum(TS.scalar(1, gwins, s.caps),
                           lambda p: chain_truncated(p * s, gwins),
                           lambda j: F((-1) ** (j + 1), j),
                           TS.scalar(0, gwins, s.caps))


def chain_recip_by_powers(s):
    """1/s by the truncated geometric sum of h, h = s / (c0 x^lead) - 1,
    with s's caps on every power."""
    lead = s._leading_key()
    if any(sum(e for v, e in zip(s.vars, lead) if v in g) for g in s.caps):
        raise NonUnit("leading term of nonzero degree in a capped group")
    minv, tail, gwins = s._recip_parts()
    hwins = {v: VarWindow(s.wins[v].lo - lead[i], s.wins[v].hi - lead[i],
                          s.wins[v].lo_hard, s.wins[v].hi_hard)
             for i, v in enumerate(s.vars)}
    h = TS(s.vars, hwins, tail, s.caps)
    total = chain_power_sum(TS.scalar(1, gwins, s.caps),
                            lambda p: chain_truncated(p * (-1 * h), gwins))
    return total * minv


@examples(200)
@given(small_series())
def test_exp_and_log1p_match_chain_of_additions(s):
    # the grade solve keeps an exact window to the hull of 0 and the stored
    # support; the power sum's may overstate it by a power that was cut
    for got, want in ((s.exp, lambda: chain_exp(s)),
                      (s.log1p, lambda: chain_log1p(s))):
        pair = raises_like(want, got)
        if not pair:
            continue
        got, want = pair
        assert got.vars == want.vars
        assert got.caps == want.caps
        assert got.terms == want.terms
        for i, v in enumerate(got.vars):
            gw, ww = got.wins[v], want.wins[v]
            if not (ww.lo_hard and ww.hi_hard):
                assert gw == ww
                continue
            exps = [0] + [key[i] for key in got.terms]
            assert gw == exact_win(min(exps), max(exps))
            assert ww.lo <= gw.lo and gw.hi <= ww.hi


def per_layer_grade_solve(s, gwins, gcaps, seed, tail, weight, what):
    """``series._grade_solve`` weighting the whole tail at every grade
    layer g by ``weight(g, r)``: the reference of the solve that weights
    each term once."""
    series._check_jet_caps(s, gcaps, what)
    dirs = [0 if gwins[v].lo_hard and gwins[v].hi_hard else s._direction(v)
            for v in s.vars]
    lows, highs, capspec = series._key_bounds(s.vars, gwins, gcaps)
    lows = tuple(lo if d else series.NEG_INF for lo, d in zip(lows, dirs))
    highs = tuple(hi if d else series.POS_INF for hi, d in zip(highs, dirs))
    push = []
    for t, c, sums in series._with_cap_sums(tail, capspec):
        o = [d * e for d, e in zip(dirs, t) if d]
        if min(o, default=0) < 0 or not any(o):
            raise NonUnit(f"{what} argument has non-nilpotent term {t}")
        push.append((t, c, sum(o), sums))
    grades = [{} for _ in range(1 + sum(
        gwins[v].hi if d > 0 else -gwins[v].lo
        for v, d in zip(s.vars, dirs) if d))]
    for key, c in seed.items():
        if all(lo <= e <= hi for e, lo, hi in zip(key, lows, highs)) and \
                series._under_caps(key, capspec):
            grades[sum(d * e for d, e in zip(dirs, key))][key] = c
    terms = {}
    for g, layer in enumerate(grades):
        layer_push = [(t, c * weight(g, r), r, sums) for t, c, r, sums in push
                      if weight(g, r)]
        for key, c in layer.items():
            if c.is_zero():
                continue
            terms[key] = c
            room = series._cap_room(key, capspec) if capspec else ()
            for t, ct, step, sums in layer_push:
                if room and any(x > y for x, y in zip(sums, room)):
                    continue
                nk = tuple(a + b for a, b in zip(key, t))
                if all(lo <= e <= hi for e, lo, hi in zip(nk, lows, highs)):
                    nxt = grades[g + step]
                    nxt[nk] = nxt.get(nk, PR.zero()) + c * ct
    wins = dict(gwins)
    for i, (v, d) in enumerate(zip(s.vars, dirs)):
        if not d:
            col = [0] + [key[i] for key in terms]
            wins[v] = exact_win(min(col), max(col))
    return TS(s.vars, wins, terms, gcaps)


@examples(200)
@given(small_series())
def test_grade_solve_weighting_each_term_once_is_the_per_layer_loop(s):
    # exp weights each tail term by r and log1p each pushed term by -g,
    # once, and divides each finished grade: the per-layer weights
    # r/(g+r) and -g/(g+r) give the same terms in the same order
    zero = (0,) * len(s.vars)
    for what, weight, seed in (("exp", lambda g, r: F(r, g + r),
                                {zero: PR.one()}),
                               ("log1p", lambda g, r: F(-g, g + r), s.terms)):
        try:
            gwins = s._offset_window(zero, what)
        except (NonUnit, WindowUnderflow):
            continue
        pair = raises_like(
            lambda: per_layer_grade_solve(s, gwins, s.caps, seed, s.terms,
                                          weight, what),
            getattr(s, what))
        if pair:
            assert_same_series(*pair)


@pytest.mark.parametrize("op", ["exp", "log1p"])
@pytest.mark.parametrize("win", [VarWindow(-1, -1, True, False),
                                 VarWindow(1, 4, False, True)])
def test_exp_and_log1p_empty_window_names_variable(op, win):
    # the sum's window is [0, -1] (up) or [1, 0] (down): no vacuous 0
    s = TS.scalar(0, {"u": win})
    with pytest.raises(WindowUnderflow, match=rf"^variable u: empty window "
                       rf"in {op} .*{re.escape(repr(win))}"):
        getattr(s, op)()


def test_vacuum_tau_identities():
    # tau = exp(arg) moves the exact Q and eps: checked by products only
    tau = two_toda_vacuum_tau(2, 3)
    inv = tau.series.recip()
    assert len(inv.terms) > 1 and inv * tau.series == 1
    yw = up_win(6)
    wins = {"Q": exact_win(-24, 24), "eps": exact_win(-24, 24)}
    arg = sum_series(TS.monomial(
        {yname(n): 1, ybname(n): 1, "Q": n, "eps": -2},
        {**wins, yname(n): yw, ybname(n): yw}, coeff=n) for n in (1, 2))
    arg = arg.with_cap([yname(1), yname(2)], 3) \
        .with_cap([ybname(1), ybname(2)], 3)
    assert arg.exp() * (-arg).exp() == 1


def test_exp_of_log1p_is_one_plus_h():
    # u up, w down, v exact and moving, under a joint cap on u and v
    wins = {"u": up_win(5), "w": down_win(-4, hi=1), "v": exact_win(0, 2)}
    h = sum_series(TS.monomial(exps, wins, coeff=c) for exps, c in (
        ({"u": 1}, 2), ({"u": 1, "v": 1}, F(1, 3)), ({"w": -1}, -1),
        ({"u": 2, "w": -1, "v": 2}, 5), ({"w": -2, "v": 1}, F(-3, 4))))
    h = h.with_cap({"u", "v"}, 4)
    log = h.log1p()
    assert len(log.terms) > len(h.terms)
    assert log.exp() == 1 + h


@st.composite
def substitutions(draw):
    """(s, v, repl): an exact v takes any series; a truncated v takes a
    replacement x + (terms further along x's truncation)."""
    s = draw(windowed_series(1))
    v = draw(st.sampled_from(s.vars))
    w = s.wins[v]
    if w.lo_hard and w.hi_hard and draw(st.booleans()):
        return s, v, draw(windowed_series(1))
    x = draw(st.sampled_from(NAMES + ("z",)))
    depth = draw(st.integers(2, 4))
    up = draw(st.booleans())
    exps = st.integers(2, depth) if up else st.integers(-depth, 0)
    tail = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                                max_size=3))
    win = up_win(depth) if up else down_win(-depth, hi=1)
    return s, v, TS.from_poly(x, {1: 1, **tail}).truncated({x: win})


@examples(300)
@given(substitutions())
# a zero repl for a negative power whose window in u cannot merge with
# self's: the reference fails in recip before it merges any window
@example((TS(("u", "w"), {"u": VarWindow(0, 0, True, False),
                          "w": exact_win(-1, -1)}, {(0, -1): PR.rational(1)}),
          "w", TS(("u",), {"u": VarWindow(1, 1, False, True)}, {})))
def test_subst_matches_chain_of_additions(case):
    s, v, repl = case
    pair = raises_like(lambda: chain_subst(s, v, repl),
                       lambda: s.subst(v, repl))
    if pair:
        assert_same_series(*pair)


def test_window_underflow_names_variable_windows_and_operation():
    s = TS(("v",), {"v": VarWindow(2, 5, False, True)}, {})
    both = (r"of VarWindow\(lo=2, hi=5, lo_hard=False, hi_hard=True\) and "
            r"VarWindow\(lo=0, hi=1, lo_hard=True, hi_hard=False\)")
    with pytest.raises(WindowUnderflow,
                       match="^variable v: empty window in truncation " + both):
        s.truncated({"v": up_win(1)})
    with pytest.raises(WindowUnderflow,
                       match="^variable v: empty window in addition " + both):
        s + TS.scalar(0, {"v": up_win(1)})
    f = s + TS.scalar(0, {"y": exact_win(0, 2)})
    with pytest.raises(WindowUnderflow,
                       match="^variable v: empty window in substitution"):
        f.subst("y", TS.var("v", up_win(1)))
