"""Property tests for the coefficient ring ``ParamRat``.

The reference is the earlier layout of the same ring: a dict of
``Fraction`` coefficients, added and multiplied term by term with no gcd.
Every operation of the integer layout (integer numerators over one
denominator) must give the element the reference gives, in canonical form.
"""

from fractions import Fraction as F
from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

from conftest import examples

from orbitoda.errors import NonUnit
from orbitoda.rationals import PR


class FracRat:
    """Q[nu1][(nu0-nu1)^{+-1}] as {(d, s): Fraction} for D^d S^s."""

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, val in other.terms.items():
            acc = out.get(key, F(0)) + val
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return FracRat(out)

    def __neg__(self):
        return FracRat({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = FracRat({})
        for (ad, as_), av in self.terms.items():
            out = out + FracRat({(ad + bd, as_ + bs): av * bv
                                 for (bd, bs), bv in other.terms.items()})
        return out

    def inverse(self):
        if len(self.terms) != 1:
            raise NonUnit("non-monomial")
        ((d, s), v), = self.terms.items()
        if s != 0:
            raise NonUnit("nonzero nu1-degree")
        return FracRat({(-d, 0): 1 / v})

    def __truediv__(self, c):
        return FracRat({k: v / c for k, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = FracRat({(0, 0): F(1)})
        for _ in range(n):
            out = out * self
        return out

    def swap_nu(self):
        out = FracRat({})
        nu0 = FracRat({(1, 0): F(1), (0, 1): F(1)})
        for (a, b), v in self.terms.items():
            out = out + FracRat({(a, 0): v * (-1) ** (a % 2)}) * nu0 ** b
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        shift = max(-min(d for (d, _s) in self.terms), 0)
        num = FracRat({})
        for (d, s), v in self.terms.items():
            e = d + shift
            num = num + FracRat({(e - j, s + j): v * (-1) ** j * comb(e, j)
                                 for j in range(e + 1)})
        parts = []
        for (e0, e1) in sorted(num.terms, reverse=True):
            v = num.terms[(e0, e1)]
            mono = []
            if e0:
                mono.append("nu0" + (f"^{e0}" if e0 != 1 else ""))
            if e1:
                mono.append("nu1" + (f"^{e1}" if e1 != 1 else ""))
            body = "*".join(mono)
            if v == 1 and body:
                parts.append(body)
            elif v == -1 and body:
                parts.append(f"-{body}")
            else:
                parts.append(f"{v}*{body}" if body else f"{v}")
        s = " + ".join(parts).replace("+ -", "- ")
        if shift:
            s = f"({s})/(nu0-nu1)" + (f"^{shift}" if shift > 1 else "")
        return s


def as_ref(x):
    """The reference element of a ParamRat, after checking its form: a
    monomial in the slots, zero and two or more terms in the dict."""
    assert type(x.den) is int and x.den > 0
    if x.terms is None:
        assert all(type(e) is int for e in (x.d, x.s, x.v)) and x.s >= 0
        assert x.num == {(x.d, x.s): x.v}
    else:
        assert len(x.terms) != 1 and (x.d, x.s, x.v) == (None,) * 3
        assert x.num is x.terms
    assert all(type(v) is int and v for v in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1  # so den == 1 for zero
    return FracRat({k: F(v, x.den) for k, v in x.num.items()})


def agree(x, ref):
    assert as_ref(x).terms == ref.terms


KEYS = st.tuples(st.integers(-3, 3), st.integers(0, 3))
BIG = 2 ** 600
COEFFS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)))


@st.composite
def elements(draw, max_terms=4):
    """(ParamRat, reference), the ParamRat built by ``from_ints`` from
    numerators over a denominator that shares a factor and may be
    negative, so the constructor has to reduce and fix the sign."""
    size = draw(st.sampled_from((1, max_terms)))
    terms = draw(st.dictionaries(KEYS, COEFFS, max_size=size))
    terms = {k: v for k, v in terms.items() if v}
    den = 1
    for v in terms.values():
        den = den * v.denominator // gcd(den, v.denominator)
    den *= draw(st.sampled_from((1, -1, 6, -35)))
    num = {k: int(v * den) for k, v in terms.items()}
    return PR.from_ints(num, den), FracRat(terms)


@examples(150)
@given(elements(), elements())
def test_ring_operations_match_the_fraction_reference(a, b):
    (x, rx), (y, ry) = a, b
    agree(x, rx)
    agree(x + y, rx + ry)
    agree(x - y, rx - ry)
    agree(-x, -rx)
    agree(x * y, rx * ry)
    agree(y * x, rx * ry)
    assert str(x) == str(rx) and str(x * y) == str(rx * ry)


@st.composite
def monomials(draw):
    """(ParamRat, reference) of one term, on three keys, so that two of
    them often share their key."""
    key = draw(st.sampled_from([(0, 0), (1, 0), (-1, 2)]))
    c = draw(COEFFS.filter(bool))
    return PR.monomial(c, *key), FracRat({key: c})


MIXED = st.one_of(monomials(), elements())
INTS = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))


def old_hash(x):
    """The hash of the dict layout, for every element."""
    if x.is_rational():
        return hash(F(x.num.get((0, 0), 0), x.den))
    return hash((x.den, frozenset(x.num.items())))


@examples(200)
@given(MIXED, MIXED, INTS)
def test_both_layouts_and_int_operands_match_the_reference(a, b, n):
    # monomial and polynomial operands in either order, a Python int on
    # either side, in canonical form and layout; == and hash agree with
    # the reference and with the dict layout's hash
    (x, rx), (y, ry) = a, b
    rn = FracRat({(0, 0): F(n)} if n else {})
    for got, want in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                      (y * x, rx * ry), (x * n, rx * rn), (n * x, rx * rn),
                      (x + n, rx + rn), (n + x, rx + rn), (x - n, rx - rn)):
        agree(got, want)
        assert hash(got) == old_hash(got)
        rebuilt = PR.from_ints(dict(got.num), got.den)
        assert rebuilt == got and hash(rebuilt) == hash(got)
        for other, rother in ((x, rx), (y, ry)):
            assert (got == other) == (want.terms == rother.terms)
    assert (x == n) == (rx.terms == rn.terms)
    if rx.terms == rn.terms:
        assert hash(x) == hash(n)


@examples(100)
@given(elements(), elements())
def test_sums_that_cancel(a, c):
    (x, _), (z, rz) = a, c
    y = z - x  # x + y cancels every term of x that z lacks
    agree(x + y, rz)
    agree(y + x, rz)
    zero = x + (-x)
    assert zero.is_zero() and zero.den == 1 and zero == 0
    assert (x - x) == PR.zero() and hash(x - x) == hash(0)


@examples(100)
@given(elements(max_terms=2), st.integers(-4, 4))
def test_inverse_and_powers(a, n):
    x, rx = a
    try:
        want = rx.inverse()
    except NonUnit:
        with pytest.raises(NonUnit):
            x.inverse()
    else:
        agree(x.inverse(), want)
        agree(x * x.inverse(), FracRat({(0, 0): F(1)}))
    try:
        want = rx ** n
    except NonUnit:
        with pytest.raises(NonUnit):
            x ** n
    else:
        agree(x ** n, want)


@examples(100)
@given(elements(), st.one_of(st.integers(-BIG, BIG), COEFFS).filter(bool))
def test_division_by_a_rational(a, c):
    x, rx = a
    agree(x / c, rx / F(c))
    assert x / c == x * PR.rational(1 / F(c))
    with pytest.raises(ZeroDivisionError):
        x / 0


@examples(100)
@given(elements())
def test_swap_nu(a):
    x, rx = a
    agree(x.swap_nu(), rx.swap_nu())
    agree(x.swap_nu().swap_nu(), rx)


@examples(150)
@given(elements(), elements(), elements())
def test_equality_and_hash_follow_the_element(a, b, c):
    (x, rx), (y, ry), (z, _) = a, b, c
    assert (x == y) == (rx.terms == ry.terms)
    for lhs, rhs in (((x * y) * z, x * (y * z)), ((x + y) - y, x),
                     (x * (y + z), x * y + x * z)):
        assert lhs == rhs and hash(lhs) == hash(rhs)
    if x.is_rational():
        value = rx.terms.get((0, 0), F(0))
        assert x == value and hash(x) == hash(value)
        assert {value: 1}.get(x) == 1


# the element 1, built four ways
ONES = (PR.one(), PR.rational(1), PR.monomial(1, 0, 0),
        PR.from_ints({(0, 0): 7}, 7))


@examples(100)
@given(elements(), st.sampled_from(ONES))
def test_products_by_one_are_the_general_product(a, one):
    x, rx = a
    assert one.is_one()
    assert x.is_one() == (rx.terms == {(0, 0): F(1)})
    want = rx * FracRat({(0, 0): F(1)})
    for got in (x * one, one * x):
        agree(got, want)
        assert (got.num, got.den) == (x.num, x.den)


@examples(60)
@given(st.integers(-BIG, BIG), st.integers(-3, 3), st.integers(0, 3))
def test_monomial_of_an_int_is_the_monomial_of_its_fraction(n, d, s):
    got, want = PR.monomial(n, d, s), PR.monomial(F(n), d, s)
    assert (got.num, got.den) == (want.num, want.den)
    assert type(got.den) is int
    agree(got, FracRat({(d, s): F(n)} if n else {}))
