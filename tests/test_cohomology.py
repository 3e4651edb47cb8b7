"""Pairing table, dual bases, and the small quantum product."""

from fractions import Fraction as F

import pytest

from orbitoda.cohomology import Cohomology, QuantumRing, SectorIndex
from orbitoda.errors import BadIndex
from orbitoda.rationals import ParamRat as PR
from orbitoda.series import TruncSeries as TS, sum_series

K0, M0 = SectorIndex("k", 0), SectorIndex("m", 0)
ONE = TS.scalar(1)


def test_a_sector_index_is_the_value_of_its_tuple():
    # repr, order and hash are those of (side, i): dict and set order, and
    # every str((L, alpha)) in a report, rest on them
    K2 = SectorIndex("k", 2)
    assert repr(K0) == "SectorIndex(side='k', i=0)"
    assert str((1, K2)) == "(1, SectorIndex(side='k', i=2))"
    assert sorted([M0, K2, K0]) == [K0, K2, M0]
    assert hash(K0) == hash(("k", 0))
    with pytest.raises(BadIndex):
        SectorIndex("x", 0)


def x(a):
    return TS.from_poly("x", {a: 1})


def y(b):
    return TS.from_poly("y", {b: 1})


def monomials(elem):
    """{(q, x, y) exponents: coefficient} of a ring element."""
    return {tuple(dict(zip(elem.vars, key)).get(v, 0) for v in "qxy"): c
            for key, c in elem.terms.items()}


def test_pairing_table():
    coh = Cohomology(3, 2)
    assert coh.pairing(K0, K0) == PR.diff().inverse()
    assert coh.pairing(M0, M0) == (-PR.diff()).inverse()
    assert coh.pairing(SectorIndex("k", 1), SectorIndex("k", 2)) == PR.rational(F(1, 3))
    assert coh.pairing(SectorIndex("m", 1), SectorIndex("m", 1)) == PR.rational(F(1, 2))
    # twisted sectors from different feet are orthogonal
    assert coh.pairing(SectorIndex("k", 1), SectorIndex("m", 1)).is_zero()
    assert coh.pairing(K0, M0).is_zero()
    assert coh.pairing(SectorIndex("k", 1), SectorIndex("k", 1)).is_zero()


def test_pairing_symmetric_and_dual_involutive():
    for (k, m) in [(2, 1), (3, 2), (4, 3)]:
        coh = Cohomology(k, m)
        secs = coh.sectors()
        for a in secs:
            for b in secs:
                assert coh.pairing(a, b) == coh.pairing(b, a)
        for a in secs:
            dual, g = coh.dual(a)
            # (1^a, 1_b) = delta
            for b in secs:
                val = g * coh.pairing(dual, b)
                assert val == (PR.one() if a == b else PR.zero())
        # the dual basis of the dual basis is the original basis:
        # 1_a is the unique class pairing to delta against {1^b}
        for a in secs:
            for b in secs:
                dual, g = coh.dual(b)
                val = coh.pairing(a, dual) * g
                assert val == (PR.one() if a == b else PR.zero())


def test_unit_and_p_class():
    # plain coordinates on (1_{0/k}, 1_{0/m}): the unit is (1, 1) and the
    # equivariant hyperplane class p is (nu0, nu1)
    unit = {K0: PR.one(), M0: PR.one()}
    p = {K0: PR.nu0(), M0: PR.nu1()}
    # p inverts the defining relations: p - nu1 = (nu0-nu1) 1_{0/k} and
    # p - nu0 = (nu1-nu0) 1_{0/m}
    p_less_nu1 = {a: p[a] - PR.nu1() * unit[a] for a in p}
    assert p_less_nu1 == {K0: PR.diff(), M0: PR.zero()}
    p_less_nu0 = {a: p[a] - PR.nu0() * unit[a] for a in p}
    assert p_less_nu0 == {K0: PR.zero(), M0: -PR.diff()}
    # and so in the quantum ring, where the unit class is 1
    ring = QuantumRing(3, 2)

    def image(cls):
        return sum_series((ring.from_sector(a).scale(c) for a, c in cls.items()),
                          TS.scalar(0))
    assert image(unit) == ONE
    assert image(p_less_nu1) == ring.from_sector(K0).scale(PR.diff())
    assert image(p_less_nu0) == ring.from_sector(M0).scale(-PR.diff())


def test_dual_example():
    coh = Cohomology(3, 2)
    assert coh.dual(SectorIndex("k", 1)) == (SectorIndex("k", 2), PR.rational(3))


def p_elem(ring):
    """p = k x^k - nu0."""
    return TS.from_poly("x", {ring.k: ring.k, 0: -PR.nu0()})


def homogeneous_degree(c):
    """Total degree of a ParamRat in (nu0, nu1) if homogeneous, else None;
    both D and S carry degree 1, matching deg nu0 = deg nu1 = 1."""
    degs = {a + b for (a, b) in c.num}
    if not degs:
        return 0
    return degs.pop() if len(degs) == 1 else None


def is_homogeneous(ring, elem):
    """Total degree of a ring element if homogeneous (deg x = 1/k,
    deg y = 1/m, deg q = 1/k + 1/m), else None."""
    qdeg = F(1, ring.k) + F(1, ring.m)
    degs = set()
    for (e, a, b), coeff in monomials(elem).items():
        nu_deg = homogeneous_degree(coeff)
        if nu_deg is None:
            return None
        degs.add(F(a, ring.k) + F(b, ring.m) + e * qdeg + nu_deg)
    if not degs:
        return F(0)
    return degs.pop() if len(degs) == 1 else None


def test_quantum_relations():
    ring = QuantumRing(3, 2)
    # x*y = q * 1
    assert monomials(ring.mul(x(1), y(1))) == {(1, 0, 0): PR.one()}
    # x^{k-1} * x = p/k + nu0/k, whose normal form is x^k
    lhs = ring.mul(x(2), x(1))
    assert lhs == p_elem(ring).scale(F(1, 3)) + PR.nu0() / 3
    assert list(monomials(lhs)) == [(0, 3, 0)]
    # y^{m-1} * y = p/m + nu1/m
    lhs_y = ring.mul(y(1), y(1))
    assert lhs_y == p_elem(ring).scale(F(1, 2)) + PR.nu1() / 2


def test_quantum_commutative_associative_exhaustive():
    for (k, m) in [(2, 1), (3, 2), (4, 3), (5, 2), (2, 2), (6, 3)]:
        if k + m > 9:
            continue
        ring = QuantumRing(k, m)
        basis = [ONE] + [x(a) for a in range(1, k + 1)] \
            + [y(b) for b in range(1, m)]
        for ea in basis:
            for eb in basis:
                assert ring.mul(ea, eb) == ring.mul(eb, ea)
        for ea in basis:
            for eb in basis:
                for ec in basis:
                    lhs = ring.mul(ring.mul(ea, eb), ec)
                    rhs = ring.mul(ea, ring.mul(eb, ec))
                    assert lhs == rhs


def test_quantum_grading():
    ring = QuantumRing(3, 2)
    basis = [ONE, x(1), x(2), x(3), y(1)]
    for ea in basis:
        for eb in basis:
            da, db = is_homogeneous(ring, ea), is_homogeneous(ring, eb)
            prod = ring.mul(ea, eb)
            if prod:
                assert is_homogeneous(ring, prod) == da + db


def test_classical_limit():
    ring = QuantumRing(3, 2)
    # at q=0 twisted sectors from different feet multiply to zero
    assert ring.mul(x(1), y(1)).coeff_of("q", 0).is_zero()
    xx = ring.mul(x(1), x(2)).coeff_of("q", 0)
    assert list(monomials(xx)) == [(0, 3, 0)]


def test_k_equals_m_allowed():
    ring = QuantumRing(2, 2)
    assert list(monomials(ring.mul(x(1), x(1)))) == [(0, 2, 0)]
    prod = ring.mul(y(1), y(1))  # y^2 eliminated
    assert prod and all(b < 2 for _, _, b in monomials(prod))
