"""Pairing table, dual bases, and the small quantum product."""

from fractions import Fraction as F

from orbitoda.cohomology import ONE, CohClass, Cohomology, QuantumRing, SectorIndex
from orbitoda.rationals import ParamRat as PR


def test_pairing_table():
    coh = Cohomology(3, 2)
    k0 = SectorIndex("k", 0)
    m0 = SectorIndex("m", 0)
    assert coh.pairing(k0, k0) == PR.diff().inverse()
    assert coh.pairing(m0, m0) == (-PR.diff()).inverse()
    assert coh.pairing(SectorIndex("k", 1), SectorIndex("k", 2)) == PR.rational(F(1, 3))
    assert coh.pairing(SectorIndex("m", 1), SectorIndex("m", 1)) == PR.rational(F(1, 2))
    # twisted sectors from different feet are orthogonal
    assert coh.pairing(SectorIndex("k", 1), SectorIndex("m", 1)).is_zero()
    assert coh.pairing(k0, m0).is_zero()
    assert coh.pairing(SectorIndex("k", 1), SectorIndex("k", 1)).is_zero()


def test_pairing_symmetric_and_dual_involutive():
    for (k, m) in [(2, 1), (3, 2), (4, 3)]:
        coh = Cohomology(k, m)
        secs = coh.sectors()
        for a in secs:
            for b in secs:
                assert coh.pairing(a, b) == coh.pairing(b, a)
        for a in secs:
            dual = coh.dual(a)
            # (1^a, 1_b) = delta
            for b in secs:
                val = coh.pair_classes(dual, CohClass({b: PR.one()}))
                assert val == (PR.one() if a == b else PR.zero())
        # the dual basis of the dual basis is the original basis:
        # 1_a is the unique class pairing to delta against {1^b}
        for a in secs:
            for b in secs:
                val = coh.pair_classes(CohClass({a: PR.one()}), coh.dual(b))
                assert val == (PR.one() if a == b else PR.zero())


def test_unit_and_p_class():
    coh = Cohomology(3, 2)
    unit = coh.unit()
    assert unit.coords == {SectorIndex("k", 0): PR.one(), SectorIndex("m", 0): PR.one()}
    # p = nu0 1_{0/k} + nu1 1_{0/m} inverts the defining relations
    p = coh.p_class()
    # 1_{0/k} = (p - nu1)/(nu0 - nu1): check p - nu1*unit = (nu0-nu1) 1_{0/k}
    lhs = p - unit.scale(PR.nu1())
    assert lhs == CohClass({SectorIndex("k", 0): PR.diff()})
    lhs2 = p - unit.scale(PR.nu0())
    assert lhs2 == CohClass({SectorIndex("m", 0): -PR.diff()})


def test_dual_example():
    coh = Cohomology(3, 2)
    d = coh.dual(SectorIndex("k", 1))
    assert d.coords == {SectorIndex("k", 2): PR.rational(3)}


def p_elem(ring):
    """p = k x^k - nu0."""
    return ring.add(ring.scale(ring.x_pow(ring.k), PR.rational(ring.k)),
                    ring.scale(ring.one_elem(), -PR.nu0()))


def ring_eq(ring, a, b):
    return not ring.add(a, ring.scale(b, -1))


def at_q0(elem):
    """The q^0 part of a ring element."""
    out = {}
    for key, c in elem.items():
        v = c.coeff_of("q", 0)
        if not v.is_zero():
            out[key] = v
    return out


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
    for key, c in elem.items():
        base = 0 if key == ONE else F(key[1], ring.k if key[0] == "x"
                                      else ring.m)
        for (e,), coeff in c.terms.items():
            nu_deg = homogeneous_degree(coeff)
            if nu_deg is None:
                return None
            degs.add(base + e * qdeg + nu_deg)
    if not degs:
        return F(0)
    return degs.pop() if len(degs) == 1 else None


def test_quantum_relations():
    ring = QuantumRing(3, 2)
    x = ring.x_pow(1)
    y = ring.y_pow(1)
    xy = ring.mul(x, y)
    # x*y = q * 1
    assert list(xy) == [ONE]
    assert xy[ONE].terms == {(1,): PR.one()}
    # x^{k-1} * x = p/k + nu0/k, whose normal form is x^k
    lhs = ring.mul(ring.x_pow(2), x)
    want = ring.add(ring.scale(p_elem(ring), F(1, 3)),
                    ring.scale(ring.one_elem(), PR.nu0() / 3))
    assert ring_eq(ring, lhs, want)
    assert list(lhs) == [("x", 3)]
    # y^{m-1} * y = p/m + nu1/m
    lhs_y = ring.mul(ring.y_pow(1), y)
    want_y = ring.add(ring.scale(p_elem(ring), F(1, 2)),
                      ring.scale(ring.one_elem(), PR.nu1() / 2))
    assert ring_eq(ring, lhs_y, want_y)


def test_quantum_commutative_associative_exhaustive():
    for (k, m) in [(2, 1), (3, 2), (4, 3), (5, 2), (2, 2), (6, 3)]:
        if k + m > 9:
            continue
        ring = QuantumRing(k, m)
        basis = [ring.one_elem()] + [ring.x_pow(a) for a in range(1, k + 1)] \
            + [ring.y_pow(b) for b in range(1, m)]
        for ea in basis:
            for eb in basis:
                assert ring_eq(ring, ring.mul(ea, eb), ring.mul(eb, ea))
        for ea in basis:
            for eb in basis:
                for ec in basis:
                    lhs = ring.mul(ring.mul(ea, eb), ec)
                    rhs = ring.mul(ea, ring.mul(eb, ec))
                    assert ring_eq(ring, lhs, rhs)


def test_quantum_grading():
    ring = QuantumRing(3, 2)
    basis = [ring.one_elem(), ring.x_pow(1), ring.x_pow(2), ring.x_pow(3),
             ring.y_pow(1)]
    for ea in basis:
        for eb in basis:
            da, db = is_homogeneous(ring, ea), is_homogeneous(ring, eb)
            prod = ring.mul(ea, eb)
            if prod:
                assert is_homogeneous(ring, prod) == da + db


def test_classical_limit():
    ring = QuantumRing(3, 2)
    # at q=0 twisted sectors from different feet multiply to zero
    xy = ring.mul(ring.x_pow(1), ring.y_pow(1))
    assert at_q0(xy) == {}
    xx = ring.mul(ring.x_pow(1), ring.x_pow(2))
    assert list(at_q0(xx)) == [("x", 3)]


def test_k_equals_m_allowed():
    ring = QuantumRing(2, 2)
    lhs = ring.mul(ring.x_pow(1), ring.x_pow(1))
    assert list(lhs) == [("x", 2)]
    prod = ring.mul(ring.y_pow(1), ring.y_pow(1))  # y^2 eliminated
    assert ("y", 2) not in prod
