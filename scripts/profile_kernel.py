#!/usr/bin/env python3
"""Micro-benchmarks for the exact kernel: coefficient field and series ops.

    python scripts/profile_kernel.py [--repeat N] [--spawns N]

The coefficient field is a sparse Laurent ring in (nu0 - nu1) over Q[nu1],
chosen after sympy's generic fraction field benchmarked ~1000x slower on
the bounded-degree shapes these verifications produce.

Each row prints microseconds per operation.  With --repeat N every row
runs N times, the rows interleaved (row 1, row 2, ..., row 1, ...), and
each prints the median and the interquartile range of its N timings, so a
drift of the host's speed spreads over all rows alike.  The speed probe of
``perfbench/run.py`` runs before each round, and the first line prints its
seconds per round: a round on a slow or shifting host shows there.

The start-up layer has its own rows: the median wall time and peak RSS
(``VmHWM`` of /proc, so Linux only) of --spawns fresh interpreters that
run ``pass``, of as many that import orbitoda and its CLI, and of as many
that import every orbitoda module, the command modules that the CLI
imports lazily too, so that their class definitions are timed; the three
kinds alternate.  Compile the tree first (``python -m compileall src``)
where PYTHONDONTWRITEBYTECODE is set: otherwise every spawn compiles the
package, and the CLI row times the compiler.
"""

import argparse
import os
import pkgutil
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import orbitoda
from orbitoda.hqe import (HQE_EPS, toda_hqe_eval, verify_bilinearity,
                          verify_lemma_inv)
from orbitoda.jfunction import build_dj, build_j, inv_poch, operator_ladder
from orbitoda.cohomology import Cohomology, QuantumRing, SectorIndex
from orbitoda.mirror import (flat_coords_residue, residue_pairing_matrix,
                             solve_chart_change, superpotential,
                             verify_tangent_product)
from orbitoda.periods import (_phi_mode_seed, bi_infinite_sum, d_apply,
                              d_inverse, d_x_operator,
                              verify_lemma_d_branches)
from orbitoda.rationals import PR
from orbitoda.series import (TruncSeries as TS, VarWindow, down_win,
                             exact_win, sum_series, up_win)
from orbitoda.toda import (ShiftOp, _generic_l, two_toda_vacuum_tau,
                           verify_flow_band_shape, verify_reduced_vacuum,
                           verify_solve_recovery)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.dont_write_bytecode = True      # nothing written into perfbench/
from run import speed_probe  # noqa: E402


# the start-up layer: an interpreter alone, one that loads the CLI, and one
# that loads every module (named here: pkgutil would load inspect there)
COLD = {"pass": "pass",
        "import orbitoda and its CLI":
        "import orbitoda; from orbitoda.cli import main",
        "import every orbitoda module":
        "import " + ", ".join(f"orbitoda.{info.name}" for info
                              in pkgutil.iter_modules(orbitoda.__path__))}
# printed by each spawn last: its own peak RSS in kB.  ru_maxrss of a child
# also counts the high-water mark of the process that spawned it, and this
# script has loaded the kernel, so that would read the same for every row.
PEAK_RSS = ("\nprint(next(line.split()[1] for line in "
            "open('/proc/self/status') if line.startswith('VmHWM')))")


def cold_starts(spawns):
    """{label: [median wall s, median peak RSS MB]} of ``spawns`` fresh
    interpreters per COLD code, the codes alternating."""
    env = dict(os.environ, PYTHONPATH=str(
        Path(orbitoda.__file__).resolve().parents[1]))
    runs = {label: [] for label in COLD}
    for _ in range(spawns):
        for label, code in COLD.items():
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", code + PEAK_RSS],
                                 env=env, capture_output=True, text=True,
                                 check=True).stdout
            runs[label].append((time.perf_counter() - t0,
                                int(out) / 1024))
    return {label: [statistics.median(x) for x in zip(*r)]
            for label, r in runs.items()}


def bench(fn, n):
    """Microseconds per call of fn over n calls."""
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n * 1e6


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


def rows():
    """(label, fn, calls per timing) of every row, in print order.  Each fn
    binds its own operands: the rows run after all of them are built."""
    # the two coefficient shapes the workloads multiply and add: monomials
    # with small fractions (geometry) and with ~600-bit numerators (ladder)
    shapes = {"small": (Fraction(-2, 15), Fraction(9, 4), 6),
              "600-bit": (Fraction(7 ** 213 + 1, 3 ** 150),
                          Fraction(-(5 ** 258) - 2, 7 * 2 ** 400), 3 ** 120)}
    for label, (p, q, n) in shapes.items():
        a, b, c = PR.monomial(p, 3, 1), PR.monomial(q, -2, 0), \
            PR.monomial(q, 3, 1)
        yield (f"ParamRat monomial multiply, {label}",
               lambda a=a, b=b: a * b, 20000)
        yield (f"ParamRat monomial times int, {label}",
               lambda a=a, n=n: a * n, 20000)
        yield (f"ParamRat monomial add, same key, {label}",
               lambda a=a, c=c: a + c, 20000)
        yield (f"ParamRat monomial add, distinct keys, {label}",
               lambda a=a, b=b: a + b, 20000)
    yield ("ParamRat monomial inverse", lambda: PR.diff().inverse(), 20000)
    yield ("VarWindow build", lambda: VarWindow(-3, 5, True, False), 20000)

    # the small products and sums that the geometry workload forms by the
    # thousand: a factor with no terms or one term, a sum of three series
    lam_q = {"lam": down_win(-10), "q": up_win(12)}
    rng = random.Random(3)
    big = TS(("lam", "q"), lam_q,
             {(-(i % 11), i // 11): PR.rational(rng.randint(1, 9))
              for i in range(99)})
    mono = TS.monomial({"lam": -1}, {"lam": exact_win(-1, -1)},
                       Fraction(2, 3))
    nothing = TS.scalar(0, lam_q)
    yield ("product by a factor of no terms", lambda: big * nothing, 2000)
    yield (f"product {len(big.terms)} terms x one term",
           lambda: big * mono, 500)
    keys = [(-a, b) for a in range(11) for b in range(13)]
    parts = [TS(("lam", "q"), lam_q, {key: PR.rational(rng.randint(1, 9))
                                      for key in rng.sample(keys, 8)})
             for _ in range(3)]
    yield ("sum of three 8-term series", lambda: sum_series(parts), 2000)

    poly = TS.from_poly("z", {0: PR.nu(3), 1: Fraction(2, 3), 2: 1})
    yield ("series reciprocal (window 14)",
           lambda: poly.recip_within({"z": down_win(-12, hi=2)}), 200)
    # the eight factors nu + b z, b = 2/5, 7/5, ..., 37/5, of inv_poch's
    # product
    nu, x, poch_win = PR.nu(5), Fraction(37, 5), down_win(-14, hi=2)
    factors = [TS.from_poly("z", {0: nu, 1: x - i})
               for i in range(7, -1, -1)]
    yield ("1/poch by product and recip (n=8, 23 terms)",
           lambda: reduce(mul, factors).recip_within({"z": poch_win}), 50)
    yield (f"1/poch in closed form (inv_poch, "
           f"{len(inv_poch(nu, x, poch_win).terms)} terms)",
           lambda: inv_poch(nu, x, poch_win), 50)
    # the J of `jfunc --k 5 --m 3`: q-degree 45, z-window [-14, 10]; its dJ
    # from the check bottom -6
    j, op = build_j(5, 3, 45, down_win(-14, hi=10)), \
        operator_ladder(5, 3).deltas[-1]
    yield ("delta application, (5,3) J", lambda: op.apply(5, 3, j), 20)
    yield ("build_dj(5, 3, 'm', 3), (5,3) check bottom",
           lambda: build_dj(5, 3, "m", 3, 45, down_win(-6, hi=10)), 5)
    yield ("capped 9-variable reciprocal", capped_unit().recip, 10)
    unit = capped_unit()
    narrow = capped_unit(6).truncated({"lam": down_win(-6)})
    yield ("capped 9-variable product, lam window 6",
           lambda: unit * narrow, 50)
    wide_unit = capped_unit(7)
    yield ("capped product at the chart-change window",
           lambda: unit * wide_unit, 20)
    # the period layer at (4,3): D^-1 and D on the window of
    # lemma-d-branches at alpha = -1, and the bi-infinite sum of
    # bi-infinite-fixed-point at alpha = 1/4
    D, zwin = d_x_operator(4, 3), down_win(-6, hi=0)
    seed = TS.from_poly("lam", {-4: 1}).truncated(
        {"lam": down_win(-20, hi=-4)})
    yield ("D^-1 lam^-4 (4,3), lemma-d-branches window",
           lambda: d_inverse(D, seed, zwin), 20)
    inverse = d_inverse(D, seed, zwin)
    yield ("D D^-1 lam^-4 (4,3), lemma-d-branches window",
           lambda: d_apply(D, inverse), 20)
    mode_seed = _phi_mode_seed(4, 3, SectorIndex("k", 1))
    yield ("bi-infinite sum (4,3), fixed-point windows",
           lambda: bi_infinite_sum(D, mode_seed, down_win(-10, hi=8),
                                   down_win(-5, hi=12)), 5)
    yield ("verify_lemma_d_branches(5)", lambda: verify_lemma_d_branches(5),
           3)
    sp = superpotential(4, 3, None, 4)
    yield ("chart change (4,3), degree 4, depth 10",
           lambda: solve_chart_change(sp, 10, 13), 3)
    yield ("flat_coords_residue(4, 3, 4)",
           lambda: flat_coords_residue(4, 3, 4), 3)
    # x = lam (1 + u)
    u = solve_chart_change(sp, 10, 13).shift_exponent("lam", -1) - 1
    yield (f"log1p of the (4,3) chart-change u ({len(u.terms)} terms)",
           u.log1p, 20)
    yield ("residue_pairing_matrix(5, 2)",
           lambda: residue_pairing_matrix(5, 2), 3)
    # the quantum ring of the tangent-product check
    ring = QuantumRing(4, 3)
    elems = [ring.from_sector(a) for a in Cohomology(4, 3).sectors()]
    yield (f"QuantumRing.mul, all {len(elems) ** 2} sector products (4,3)",
           lambda: [ring.mul(a, b) for a in elems for b in elems], 20)
    yield ("verify_tangent_product(4, 3)",
           lambda: verify_tangent_product(4, 3), 20)
    yield ("verify_lemma_inv(5, 8)", lambda: verify_lemma_inv(5, 8), 3)
    w = TS.var("w", up_win(10))
    yield ("series exp (order 10)", lambda: (w + w * w).exp(), 200)
    # toda band products: every Lambda^i commutation is a Taylor shift
    # through exp_derivation
    yield ("verify_reduced_vacuum(2, 1)", lambda: verify_reduced_vacuum(2, 1),
           3)
    yield ("verify_solve_recovery(3)", lambda: verify_solve_recovery(3), 3)
    yield ("verify_flow_band_shape(3, 2)",
           lambda: verify_flow_band_shape(3, 2), 3)
    # a product of the zakharov-shabat powers of L: on a fresh L each band
    # is Taylor-shifted anew, on a kept L its shifted bands are reused
    eps_win = up_win(3)
    L = _generic_l(eps_win)
    L2 = L.mul(L, eps_win)
    yield ("ShiftOp.mul L^2 * L, fresh L",
           lambda: L2.mul(ShiftOp(L.bands, L.lo, L.lo_hard), eps_win), 20)
    yield ("ShiftOp.mul L^2 * L, shifts kept",
           lambda: L2.mul(L, eps_win), 20)

    # the hqe workload's shapes, taken from the calls the checks make
    sums = calls_of("__add__", lambda: verify_bilinearity(3, 2))
    wide = max((a + b for a, b in sums), key=lambda s: len(s.vars))
    yield (f"truncated to own window ({len(wide.vars)} variables, "
           f"{len(wide.terms)} terms)", lambda: wide.truncated(wide.wins), 20)
    arg = max((s for s, in calls_of("exp", lambda: verify_bilinearity(3, 2))
               if s.caps), key=lambda s: len(s.vars))
    yield (f"apply_vertex exp ({len(arg.vars)} variables, cap "
           f"{min(arg.caps.values())})", arg.exp, 5)
    vacuum = two_toda_vacuum_tau(2, 3).series
    yield (f"recip of the vacuum tau ({len(vacuum.terms)} terms)",
           vacuum.recip, 20)
    tau = two_toda_vacuum_tau(2, 3, exact_jet=True)
    yield ("toda_hqe_eval at depth 2, (n, l) = (0, 0)",
           lambda: toda_hqe_eval(tau, 0, 0, 2, HQE_EPS), 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="interleaved timings per row (default 1)")
    parser.add_argument("--spawns", type=int, default=10, metavar="N",
                        help="fresh interpreters per cold-start row "
                        "(default 10)")
    args = parser.parse_args()
    repeat = args.repeat
    if repeat < 1 or args.spawns < 1:
        parser.error("--repeat and --spawns must be at least 1")
    cold = cold_starts(args.spawns)
    table = list(rows())
    times = [[] for _ in table]
    probes = []
    for _ in range(repeat):
        probes.append(speed_probe())
        for (_, fn, n), row_times in zip(table, times):
            row_times.append(bench(fn, n))
    print("speed probe before each round (s): " +
          " ".join(f"{p:.3f}" for p in probes))
    for label, (wall, rss) in cold.items():
        print(f"{'cold start, ' + label:45s} {wall * 1e3:10.2f} ms"
              f"  peak RSS {rss:.2f} MB")
    for (label, _, _), row_times in zip(table, times):
        line = f"{label:45s} {statistics.median(row_times):10.2f} us/op"
        if repeat > 1:
            q1, _, q3 = statistics.quantiles(row_times, n=4)
            line += f"  IQR {q1:.2f}-{q3:.2f}"
        print(line)


if __name__ == "__main__":
    main()
