#!/usr/bin/env python3
"""Micro-benchmarks for the exact kernel: coefficient field and series ops.

The coefficient field is a sparse Laurent ring in (nu0 - nu1) over Q[nu1],
chosen after sympy's generic fraction field benchmarked ~1000x slower on
the bounded-degree shapes these verifications produce.
"""

import random
import time
from fractions import Fraction

from orbitoda.hqe import (HQE_EPS, toda_hqe_eval, verify_bilinearity,
                          verify_lemma_inv)
from orbitoda.jfunction import (build_dj, build_j, inv_poch, operator_ladder,
                                poch)
from orbitoda.mirror import (flat_coords_residue, solve_chart_change,
                             superpotential)
from orbitoda.periods import _d_inverse_monomial, d_x_operator
from orbitoda.rationals import PR
from orbitoda.series import TruncSeries as TS, down_win, up_win
from orbitoda.toda import two_toda_vacuum_tau


def bench(label, fn, n=2000):
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    dt = (time.perf_counter() - t0) / n
    print(f"{label:40s} {dt * 1e6:9.2f} us/op")


def capped_unit(seed=5):
    """1 + 60 terms shaped like the chart-change Newton steps of
    mirror-pairing: lam down to lam^-10, q up to q^13, and seven jet times
    t1..t7 under a joint degree cap of 2."""
    times = [f"t{i}" for i in range(1, 8)]
    wins = {"lam": down_win(-10), "q": up_win(13)}
    wins.update({t: up_win(2) for t in times})
    rng = random.Random(seed)
    s = TS.scalar(1, wins)
    for _ in range(60):
        exps = {"lam": -rng.randint(1, 10), "q": rng.randint(0, 3)}
        for t in rng.sample(times, rng.randint(0, 2)):
            exps[t] = 1
        s = s + TS.monomial(exps, wins, Fraction(rng.randint(1, 9),
                                                 rng.randint(1, 9)))
    return s.with_cap(times, 2)


def calls_of(name, run):
    """The (series, *args) of every call of TruncSeries.<name> that run()
    makes, in order."""
    seen = []
    method = getattr(TS, name)

    def spy(self, *args):
        seen.append((self, *args))
        return method(self, *args)
    setattr(TS, name, spy)
    try:
        run()
    finally:
        setattr(TS, name, method)
    return seen


def main():
    # the two coefficient shapes the workloads multiply and add: monomials
    # with small fractions (geometry) and with ~600-bit numerators (ladder)
    shapes = {"small": (Fraction(-2, 15), Fraction(9, 4)),
              "600-bit": (Fraction(7 ** 213 + 1, 3 ** 150),
                          Fraction(-(5 ** 258) - 2, 7 * 2 ** 400))}
    for label, (p, q) in shapes.items():
        a, b = PR.monomial(p, 3, 1), PR.monomial(q, -2, 0)
        bench(f"ParamRat monomial multiply, {label}", lambda: a * b, n=20000)
        b = PR.monomial(q, 3, 1)
        bench(f"ParamRat monomial add, {label}", lambda: a + b, n=20000)
    bench("ParamRat monomial inverse", lambda: PR.diff().inverse(), n=20000)

    z = TS.var("z", down_win(-12, hi=2))
    poly = TS.from_poly("z", {0: PR.nu(3), 1: Fraction(2, 3), 2: 1})
    bench("series reciprocal (window 14)",
          lambda: poly.recip_within({"z": down_win(-12, hi=2)}), n=200)
    nu, x, zwin = PR.nu(5), Fraction(37, 5), down_win(-14, hi=2)
    bench("1/poch by product and recip (n=8, 23 terms)",
          lambda: poch(nu, x).recip_within({"z": zwin}), n=50)
    bench(f"1/poch in closed form (inv_poch, "
          f"{len(inv_poch(nu, x, zwin).terms)} terms)",
          lambda: inv_poch(nu, x, zwin), n=50)
    # the J of `jfunc --k 5 --m 3`: q-degree 45, z-window [-14, 10]; its dJ
    # from the check bottom -6
    j, op = build_j(5, 3, 45, down_win(-14, hi=10)), \
        operator_ladder(5, 3).deltas[-1]
    bench("delta application, (5,3) J", lambda: op.apply(5, 3, j), n=20)
    bench("build_dj(5, 3, 'm', 3), (5,3) check bottom",
          lambda: build_dj(5, 3, "m", 3, 45, down_win(-6, hi=10)), n=5)
    bench("capped 9-variable reciprocal", capped_unit().recip, n=10)
    a = capped_unit()
    b = capped_unit(6).truncated({"lam": down_win(-6)})
    bench("capped 9-variable product, lam window 6", lambda: a * b, n=50)
    c = capped_unit(7)
    bench("capped product at the chart-change window", lambda: a * c, n=20)
    D, zwin = d_x_operator(4, 3), down_win(-6, hi=0)
    bench("D^-1 lam^-4 (4,3), lemma-d-branches window",
          lambda: _d_inverse_monomial(D, -4, down_win(-16, hi=0), zwin, {}),
          n=20)
    sp = superpotential(4, 3, None, 4)
    bench("chart change (4,3), degree 4, depth 10",
          lambda: solve_chart_change(sp, 10, 13), n=3)
    bench("flat_coords_residue(4, 3, 4)",
          lambda: flat_coords_residue(4, 3, 4), n=3)
    # x = lam (1 + u)
    u = solve_chart_change(sp, 10, 13).shift_exponent("lam", -1) - 1
    bench(f"log1p of the (4,3) chart-change u ({len(u.terms)} terms)",
          u.log1p, n=20)
    bench("verify_lemma_inv(5, 8)", lambda: verify_lemma_inv(5, 8), n=3)
    u = TS.var("u", up_win(10))
    bench("series exp (order 10)", lambda: (u + u * u).exp(), n=200)

    # the hqe workload's shapes, taken from the calls the checks make
    sums = calls_of("__add__", lambda: verify_bilinearity(3, 2))
    wide = max((a + b for a, b in sums), key=lambda s: len(s.vars))
    bench(f"truncated to own window ({len(wide.vars)} variables, "
          f"{len(wide.terms)} terms)", lambda: wide.truncated(wide.wins), n=20)
    arg = max((s for s, in calls_of("exp", lambda: verify_bilinearity(3, 2))
               if s.caps), key=lambda s: len(s.vars))
    bench(f"apply_vertex exp ({len(arg.vars)} variables, cap "
          f"{min(arg.caps.values())})", arg.exp, n=5)
    vacuum = two_toda_vacuum_tau(2, 3).series
    bench(f"recip of the vacuum tau ({len(vacuum.terms)} terms)",
          vacuum.recip, n=20)
    tau = two_toda_vacuum_tau(2, 3, exact_jet=True)
    bench("toda_hqe_eval at depth 2, (n, l) = (0, 0)",
          lambda: toda_hqe_eval(tau, 0, 0, 2, HQE_EPS), n=3)


if __name__ == "__main__":
    main()
