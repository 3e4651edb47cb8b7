"""Command-line driver: every verification as a reproducible JSON-line check.

Each subcommand streams one JSON object per completed check and exits 0 iff
all of them pass (2 on bad flags).  Truncation parameters are explicit flags
with defaults and are echoed into the reports, so a "pass" always names its
window.  Checks run one after another, and every report carries a stable
check id.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import gcd

import click

from .cohomology import SectorIndex
from .reports import CheckReport, Stopwatch
from .series import TruncSeries, exact_win, up_win


def _emit(report: CheckReport, out):
    click.echo(report.to_json(), file=out)
    return report.ok


def _check_pair(k, m, param_hint=None):
    """Exit 2 unless k and m are positive, distinct and coprime."""
    if k < 1 or m < 1 or k == m or gcd(k, m) != 1:
        raise click.BadParameter(
            f"k={k}, m={m} must be positive, distinct and coprime",
            param_hint=param_hint)


POSITIVE = click.IntRange(min=1)
NONNEGATIVE = click.IntRange(min=0)
KM_HINT = "'--k'/'--m'"


def _matrix(ctx, param, value):
    """Parse a ``k,m;k,m;...`` matrix of valid (k, m) pairs."""
    out = []
    for chunk in value.split(";"):
        try:
            k, m = (int(x) for x in chunk.split(","))
        except ValueError:
            raise click.BadParameter(
                f"{chunk!r} is not of the form k,m") from None
        _check_pair(k, m)
        out.append((k, m))
    return out


def _zwindow(ctx, param, value):
    """Parse a ``lo:hi`` z-window with lo <= hi."""
    try:
        zlo, zhi = (int(x) for x in value.split(":"))
    except ValueError:
        raise click.BadParameter(
            f"{value!r} is not of the form lo:hi") from None
    if zlo > zhi:
        raise click.BadParameter(f"empty window {value!r}: lo > hi")
    return zlo, zhi


def _run_all(jobs, out):
    ok = True
    for job in jobs:
        for rep in _as_list(job()):
            ok = _emit(rep, out) and ok
    return ok


def _as_list(result):
    return result if isinstance(result, list) else [result]


@click.group()
def main():
    """Exact symbolic verification of the orbifold J-function calculus and
    the bi-graded 2-Toda reduction."""


OUT_OPT = click.option("--out", type=click.File("w"), default="-",
                       help="Report stream destination (default stdout).")


def jfunc_jobs(k, m, qdeg, zlo, zhi, negate):
    from .jfunction import verify_ladder_identities, verify_qde
    return [
        lambda: verify_ladder_identities(k, m, qdeg, zlo, zhi, negate=negate),
        lambda: verify_qde(k, m, qdeg, zlo, zhi, negate=negate),
    ]


@main.command()
@click.option("--k", required=True, type=POSITIVE)
@click.option("--m", required=True, type=POSITIVE)
@click.option("--qdeg", type=NONNEGATIVE, default=None,
              help="q-degree to verify through (default 2km).")
@click.option("--zdeg", type=str, default="-6:2", callback=_zwindow,
              help="z-window lo:hi.")
@click.option("--negate", is_flag=True,
              help="Perturb one operator as a negative control.")
@OUT_OPT
def jfunc(k, m, qdeg, zdeg, negate, out):
    """The derivative-operator ladder identities and the quantum
    differential equation."""
    _check_pair(k, m, KM_HINT)
    qdeg = qdeg if qdeg is not None else 2 * k * m
    zlo, zhi = zdeg
    ok = _run_all(jfunc_jobs(k, m, qdeg, zlo, zhi, negate), out)
    sys.exit(0 if ok else 1)


def mirror_jobs(k, m, degree, seed, points):
    from .mirror import (classical_critical_data, residue_pairing_matrix,
                         verify_flat_coordinates, verify_tangent_product)

    def run_pairing_sym():
        _, _, rep = residue_pairing_matrix(k, m, None, degree)
        return rep

    def run_points():
        rng = random.Random(seed)
        reps = []
        for i in range(points):
            tv = {j: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for j in range(1, k + m + 1)}
            _, _, rep = residue_pairing_matrix(k, m, tv, degree)
            rep.name = f"mirror-pairing-point-{i}"
            rep.params["seed"] = seed
            reps.append(rep)
        return reps

    return [run_pairing_sym, run_points,
            lambda: verify_flat_coordinates(k, m, 4),
            lambda: verify_tangent_product(k, m),
            lambda: classical_critical_data(k, m)]


@main.command("mirror-pairing")
@click.option("--k", required=True, type=POSITIVE)
@click.option("--m", required=True, type=POSITIVE)
@click.option("--degree", type=NONNEGATIVE, default=2,
              help="Symbolic jet degree.")
@click.option("--seed", type=int, default=0)
@click.option("--points", type=NONNEGATIVE, default=3,
              help="Random rational parameter points to test.")
@OUT_OPT
def mirror_pairing(k, m, degree, seed, points, out):
    """Residue pairing vs the Poincare pairing; flat-coordinate routes."""
    _check_pair(k, m, KM_HINT)
    ok = _run_all(mirror_jobs(k, m, degree, seed, points), out)
    sys.exit(0 if ok else 1)


def asymptotics_jobs(k, m, n):
    from .algebra import bernoulli_number, poly_derivative
    from .mirror import (classical_R, gaussian_moment_oracle,
                         stationary_phase_A)
    from .rationals import PR

    def run_a_polys():
        with Stopwatch() as sw:
            rep = CheckReport(name="a-polynomials", params={"n": n})
            a2 = stationary_phase_A(2)
            if poly_derivative(a2) != {1: Fraction(1), 0: Fraction(-1, 2)}:
                rep.fail({"n": 2}, str(a2), "A_2' = s - 1/2")
            for j in range(2, n + 1):
                an = stationary_phase_A(j)
                if sum(an.values(), Fraction(0)) != \
                        bernoulli_number(j) / (j * (j - 1)):
                    rep.fail({"n": j}, "A_n(1)", "B_n/(n(n-1))")
                    break
                if j < n:
                    lhs = poly_derivative(stationary_phase_A(j + 1))
                    rhs = {e: -(j - 1) * c for e, c in an.items()}
                    if lhs != rhs:
                        rep.fail({"n": j}, "A_{n+1}'", "-(n-1) A_n")
                        break
        rep.elapsed_ms = sw.ms
        return rep

    def run_classical_r():
        with Stopwatch() as sw:
            rep = CheckReport(name="classical-r", params={"k": k, "m": m})
            for (foot, j, barred) in [(k, 1, False), (k, k, False),
                                      (m, 1, True)]:
                power, series = classical_R(foot, j, 8, barred=barred, m=m)
                if series.terms.get((0,)) != PR.one():
                    rep.fail({"foot": foot, "j": j}, str(series), "1 + O(z)")
                    break
        rep.elapsed_ms = sw.ms
        return rep

    return [run_a_polys, lambda: gaussian_moment_oracle(min(n, 5)),
            run_classical_r]


@main.command()
@click.option("--k", type=POSITIVE, default=3)
@click.option("--m", type=POSITIVE, default=2)
@click.option("--n", type=click.IntRange(min=2), default=12,
              help="Highest A_n checked.")
@OUT_OPT
def asymptotics(k, m, n, out):
    """Stationary-phase polynomials and the Gaussian-moment oracle."""
    _check_pair(k, m, KM_HINT)
    ok = _run_all(asymptotics_jobs(k, m, n), out)
    sys.exit(0 if ok else 1)


def periods_jobs(k, m):
    from .periods import (phase_primitive_check, verify_c_constant,
                          verify_fixed_point, verify_lemma_d_branches,
                          verify_mode_recursion, verify_s_action_replay,
                          verify_transformation_law, verify_w_derivative)
    return [
        lambda: verify_lemma_d_branches(k),
        lambda: verify_fixed_point(k, m, SectorIndex("k", min(1, k - 1))),
        lambda: verify_transformation_law(k, m),
        lambda: verify_s_action_replay(k, m),
        lambda: verify_mode_recursion(k, m),
        lambda: phase_primitive_check(k, m),
        lambda: verify_w_derivative(k, m),
        lambda: verify_c_constant(k, m),
    ]


@main.command()
@click.option("--k", required=True, type=POSITIVE)
@click.option("--m", required=True, type=POSITIVE)
@OUT_OPT
def periods(k, m, out):
    """Lemma-D branches, bi-infinite sums, the transformation law, and the
    phase-form primitives."""
    _check_pair(k, m, KM_HINT)
    ok = _run_all(periods_jobs(k, m), out)
    sys.exit(0 if ok else 1)


def toda_jobs(k, m, eps_order, times):
    from .toda import (check_wave_equations, gauge_qpower_check,
                       two_toda_vacuum_tau, verify_flow_band_shape,
                       verify_reduced_vacuum, verify_solve_recovery,
                       verify_vacuum, verify_zakharov_shabat)
    ew = up_win(eps_order)
    return [
        lambda: verify_vacuum(ew),
        lambda: verify_zakharov_shabat(min(times, 3), eps_order),
        lambda: check_wave_equations(two_toda_vacuum_tau(times, 3), times,
                                     ew, flows=min(times, 2)),
        lambda: verify_reduced_vacuum(k, m, eps_order),
        lambda: verify_solve_recovery(k, eps_order),
        lambda: verify_flow_band_shape(k, m),
        lambda: gauge_qpower_check(),
    ]


@main.command()
@click.option("--k", type=POSITIVE, default=2)
@click.option("--m", type=POSITIVE, default=1)
@click.option("--eps-order", type=click.IntRange(min=3), default=3,
              help="eps-truncation order of the jets.")
@click.option("--times", type=POSITIVE, default=3,
              help="Flow times carried by tau jets.")
@OUT_OPT
def toda(k, m, eps_order, times, out):
    """Shift-operator flows, wave equations, and the bi-graded reduction."""
    _check_pair(k, m, KM_HINT)
    ok = _run_all(toda_jobs(k, m, eps_order, times), out)
    sys.exit(0 if ok else 1)


def vertex_jobs(k, m, modes, negate):
    from .hqe import (verify_change_matrix, verify_lemma_inv,
                      verify_theorem2_transform)
    return [
        lambda: verify_theorem2_transform(k, m, modes, negate=negate),
        lambda: verify_lemma_inv(k, 8),
        lambda: verify_change_matrix(k, 4, 8),
    ]


@main.command()
@click.option("--k", required=True, type=POSITIVE)
@click.option("--m", required=True, type=POSITIVE)
@click.option("--modes", type=POSITIVE, default=12)
@click.option("--negate", is_flag=True)
@OUT_OPT
def vertex(k, m, modes, negate, out):
    """The flow-variable change of the vertex operators and its inversion."""
    _check_pair(k, m, KM_HINT)
    ok = _run_all(vertex_jobs(k, m, modes, negate), out)
    sys.exit(0 if ok else 1)


def hqe_jobs(k, m, times, negate):
    from .hqe import fock_one, fock_var, hqe_residue_eval, toda_hqe_report
    from .toda import TauJet, two_toda_vacuum_tau
    ew = exact_win(-24, 24)

    def run_trivial():
        with Stopwatch() as sw:
            rep = CheckReport(name="hqe-trivial-residue",
                              params={"k": k, "m": m})
            one = fock_one(ew)
            for (n, l) in [(0, 0), (1, 0), (0, 1)]:
                if not hqe_residue_eval(k, m, one, one, n, l, 0, ew).is_zero():
                    rep.fail({"n": n, "l": l}, "nonzero", "0")
                    break
        rep.elapsed_ms = sw.ms
        return rep

    def run_bilinear():
        with Stopwatch() as sw:
            rep = CheckReport(name="hqe-bilinearity", params={"k": k, "m": m})
            da = fock_one(ew) + TruncSeries.var(
                fock_var("a", 0, SectorIndex("k", 0)), up_win(3)) \
                .truncated({"eps": ew})
            db = fock_one(ew)
            lhs = hqe_residue_eval(k, m, da.scale(2), db, 1, 0, 4, ew)
            resid = hqe_residue_eval(k, m, da, db, 1, 0, 4, ew)
            if resid.is_zero():
                # scaling a zero residue proves nothing
                rep.fail({}, "0", "a nonzero residue",
                         detail="the residue being scaled vanishes identically")
            elif not (lhs - resid.scale(2)).is_zero():
                rep.fail({}, "scaling", "bilinear")
        rep.elapsed_ms = sw.ms
        return rep

    def run_vacuum():
        tau = two_toda_vacuum_tau(times, 3, exact_jet=True)
        return [toda_hqe_report(tau, n, l, times, ew, dcap=2)
                for (n, l) in [(0, 0), (0, 1), (1, 0), (1, 1)]]

    def run_negative():
        with Stopwatch() as sw:
            rep = CheckReport(name="toda-hqe-negative-control", params={})
            yw = up_win(8)
            arg = TruncSeries.monomial(
                {"y1": 1, "yb1": 1, "Q": 1, "eps": -2},
                {"y1": yw, "yb1": yw, "Q": exact_win(-16, 16), "eps": ew},
                coeff=2)
            arg = arg.with_cap(["y1"], 4).with_cap(["yb1"], 4)
            bad = TauJet(arg.exp().as_exact(), 1, 1)
            inner = toda_hqe_report(bad, 1, 0, 1, ew, dcap=2)
            if inner.ok:
                rep.fail({}, "undetected perturbation",
                         "a located discrepancy")
            else:
                rep.detail = "perturbation located at " + \
                    str(inner.first_discrepancy)
        rep.elapsed_ms = sw.ms
        return rep

    jobs = [run_trivial, run_bilinear, run_vacuum]
    if negate:
        jobs.append(run_negative)
    return jobs


@main.command()
@click.option("--k", type=POSITIVE, default=3)
@click.option("--m", type=POSITIVE, default=2)
@click.option("--times", type=POSITIVE, default=2,
              help="Flow depth of the bilinear residue checks.")
@click.option("--negate", is_flag=True,
              help="Also run the perturbed-tau negative control.")
@OUT_OPT
def hqe(k, m, times, negate, out):
    """Bilinear residue checks on truncated Fock elements and tau jets."""
    _check_pair(k, m, KM_HINT)
    ok = _run_all(hqe_jobs(k, m, times, negate), out)
    sys.exit(0 if ok else 1)


@main.command("all")
@click.option("--matrix", default="2,1;3,2", callback=_matrix,
              help="Semicolon-separated k,m pairs.")
@click.option("--qdeg", type=NONNEGATIVE, default=None)
@click.option("--modes", type=POSITIVE, default=12)
@click.option("--seed", type=int, default=0)
@OUT_OPT
def run_everything(matrix, qdeg, modes, seed, out):
    """Aggregate verification over a (k, m) matrix."""
    jobs = []
    for (k, m) in matrix:
        jobs += jfunc_jobs(k, m, qdeg if qdeg is not None else 2 * k * m,
                           -6, 2, False)
        jobs += mirror_jobs(k, m, 2, seed, 1)
        jobs += periods_jobs(k, m)
        jobs += vertex_jobs(k, m, modes, False)
    jobs += asymptotics_jobs(3, 2, 12)
    jobs += toda_jobs(2, 1, 3, 2)
    jobs += hqe_jobs(3, 2, 2, True)
    ok = _run_all(jobs, out)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
