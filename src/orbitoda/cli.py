"""Command-line driver: every verification as a reproducible JSON-line check.

Each subcommand is a table of rows (row id, params, call): one call to a
library check, with the subcommand's arguments as params.  It streams one
JSON object per report and exits 0 iff all of them pass, 1 if any fails, 2
on bad flags and 3 if any row raised.  A row that raises becomes a report
with status "error", named by the row id and carrying the row's params,
and the next row runs.  Truncation parameters are explicit flags with
defaults and are echoed into the reports, so a "pass" always names its
window.  Checks run one after another, and every report carries a stable
check id.
"""

from __future__ import annotations

import sys
from math import gcd

import click

from .cohomology import SectorIndex
from .reports import CheckReport
from .series import up_win


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
    """Parse a ``lo:hi`` z-window with lo <= hi and lo <= 1."""
    try:
        zlo, zhi = (int(x) for x in value.split(":"))
    except ValueError:
        raise click.BadParameter(
            f"{value!r} is not of the form lo:hi") from None
    if zlo > zhi:
        raise click.BadParameter(f"empty window {value!r}: lo > hi")
    if zlo >= 2:
        raise click.BadParameter(
            f"window {value!r} lies above z^1, where J and every z dJ have "
            f"no term: every check would compare zeros; need lo <= 1")
    return zlo, zhi


def _rows(params, *pairs):
    """(row id, params, call) rows that share the subcommand's ``params``."""
    return [(row_id, params, call) for row_id, call in pairs]


def _run(rows, out):
    """Run the rows in order, stream their reports and exit."""
    statuses = set()
    for row_id, params, call in rows:
        with CheckReport(name=row_id, params=params) as error:
            try:
                reps = call()
            except Exception as exc:
                error.status = "error"
                error.detail = f"{type(exc).__name__}: {exc}"
                reps = error
        for rep in reps if isinstance(reps, list) else [reps]:
            click.echo(rep.to_json(), file=out)
            statuses.add(rep.status)
    sys.exit(3 if "error" in statuses else 0 if statuses <= {"pass"} else 1)


@click.group()
def main():
    """Exact symbolic verification of the orbifold J-function calculus and
    the bi-graded 2-Toda reduction."""


OUT_OPT = click.option("--out", type=click.File("w"), default="-",
                       help="Report stream destination (default stdout).")


def jfunc_jobs(k, m, qdeg, zlo, zhi, negate):
    from .jfunction import verify_jfunc
    return _rows(
        {"k": k, "m": m, "qdeg": qdeg, "zwin": [zlo, zhi], "negate": negate},
        ("jfunc", lambda: verify_jfunc(k, m, qdeg, zlo, zhi, negate)))


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
    _run(jfunc_jobs(k, m, 2 * k * m if qdeg is None else qdeg, *zdeg,
                    negate), out)


def mirror_jobs(k, m, degree, seed, points):
    from .mirror import (classical_critical_data, verify_flat_coordinates,
                         verify_residue_pairing, verify_tangent_product)
    return _rows(
        {"k": k, "m": m, "degree": degree, "seed": seed, "points": points},
        ("mirror-pairing",
         lambda: verify_residue_pairing(k, m, degree, seed, points)),
        ("flat-coordinates", lambda: verify_flat_coordinates(k, m, 4)),
        ("tangent-product", lambda: verify_tangent_product(k, m)),
        ("classical-critical", lambda: classical_critical_data(k, m)))


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
    _run(mirror_jobs(k, m, degree, seed, points), out)


def asymptotics_jobs(k, m, n):
    from .mirror import (gaussian_moment_oracle, verify_a_polynomials,
                         verify_classical_r)
    return _rows(
        {"k": k, "m": m, "n": n},
        ("a-polynomials", lambda: verify_a_polynomials(n)),
        ("gaussian-moment-oracle", lambda: gaussian_moment_oracle(min(n, 5))),
        ("classical-r", lambda: verify_classical_r(k, m)))


@main.command()
@click.option("--k", type=POSITIVE, default=3)
@click.option("--m", type=POSITIVE, default=2)
@click.option("--n", type=click.IntRange(min=2), default=12,
              help="Highest A_n checked.")
@OUT_OPT
def asymptotics(k, m, n, out):
    """Stationary-phase polynomials and the Gaussian-moment oracle."""
    _check_pair(k, m, KM_HINT)
    _run(asymptotics_jobs(k, m, n), out)


def periods_jobs(k, m):
    from .periods import (phase_primitive_check, verify_c_constant,
                          verify_fixed_point, verify_lemma_d_branches,
                          verify_mode_recursion, verify_s_action_replay,
                          verify_transformation_law, verify_w_derivative)
    return _rows(
        {"k": k, "m": m},
        ("lemma-d-branches", lambda: verify_lemma_d_branches(k)),
        ("bi-infinite-fixed-point", lambda: verify_fixed_point(
            k, m, SectorIndex("k", min(1, k - 1)))),
        ("transformation", lambda: verify_transformation_law(k, m)),
        ("s-action-replay", lambda: verify_s_action_replay(k, m)),
        ("mode-chain", lambda: verify_mode_recursion(k, m)),
        ("phase-primitives", lambda: phase_primitive_check(k, m)),
        ("w-derivative", lambda: verify_w_derivative(k, m)),
        ("c-constant", lambda: verify_c_constant(k, m)))


@main.command()
@click.option("--k", required=True, type=POSITIVE)
@click.option("--m", required=True, type=POSITIVE)
@OUT_OPT
def periods(k, m, out):
    """Lemma-D branches, bi-infinite sums, the transformation law, and the
    phase-form primitives."""
    _check_pair(k, m, KM_HINT)
    _run(periods_jobs(k, m), out)


def toda_jobs(k, m, eps_order, times):
    from .toda import (check_wave_equations, gauge_qpower_check,
                       two_toda_vacuum_tau, verify_flow_band_shape,
                       verify_reduced_vacuum, verify_solve_recovery,
                       verify_vacuum, verify_zakharov_shabat)
    return _rows(
        {"k": k, "m": m, "eps_order": eps_order, "times": times},
        ("toda-vacuum", lambda: verify_vacuum(up_win(eps_order))),
        ("zakharov-shabat",
         lambda: verify_zakharov_shabat(min(times, 3), eps_order)),
        ("wave-equations", lambda: check_wave_equations(
            two_toda_vacuum_tau(times, 3), times, up_win(eps_order),
            flows=min(times, 2))),
        ("reduced-vacuum", lambda: verify_reduced_vacuum(k, m, eps_order)),
        ("reduced-solve-recovery",
         lambda: verify_solve_recovery(k, eps_order)),
        ("reduced-flow-band", lambda: verify_flow_band_shape(k, m)),
        ("gauge-qpower", gauge_qpower_check))


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
    _run(toda_jobs(k, m, eps_order, times), out)


def vertex_jobs(k, m, modes, negate):
    from .hqe import (verify_change_matrix, verify_lemma_inv,
                      verify_theorem2_transform)
    return _rows(
        {"k": k, "m": m, "modes": modes, "negate": negate},
        ("theorem2",
         lambda: verify_theorem2_transform(k, m, modes, negate=negate)),
        ("lemma-inv", lambda: verify_lemma_inv(k, 8)),
        ("change-matrix", lambda: verify_change_matrix(k, 4, 8)))


@main.command()
@click.option("--k", required=True, type=POSITIVE)
@click.option("--m", required=True, type=POSITIVE)
@click.option("--modes", type=POSITIVE, default=12)
@click.option("--negate", is_flag=True)
@OUT_OPT
def vertex(k, m, modes, negate, out):
    """The flow-variable change of the vertex operators and its inversion."""
    _check_pair(k, m, KM_HINT)
    _run(vertex_jobs(k, m, modes, negate), out)


def hqe_jobs(k, m, times, negate):
    from .hqe import (verify_bilinearity, verify_toda_hqe_negative_control,
                      verify_toda_hqe_vacuum, verify_trivial_residue)
    return _rows(
        {"k": k, "m": m, "times": times, "negate": negate},
        ("hqe-trivial-residue", lambda: verify_trivial_residue(k, m)),
        ("hqe-bilinearity", lambda: verify_bilinearity(k, m)),
        ("toda-hqe-vacuum", lambda: verify_toda_hqe_vacuum(times)),
        *([("toda-hqe-negative-control", verify_toda_hqe_negative_control)]
          if negate else []))


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
    _run(hqe_jobs(k, m, times, negate), out)


def all_jobs(matrix, qdeg, modes, seed):
    return [row for (k, m) in matrix for row in
            jfunc_jobs(k, m, 2 * k * m if qdeg is None else qdeg, -6, 2,
                       False) +
            mirror_jobs(k, m, 2, seed, 1) +
            periods_jobs(k, m) +
            vertex_jobs(k, m, modes, False)] + \
        asymptotics_jobs(3, 2, 12) + toda_jobs(2, 1, 3, 2) + \
        hqe_jobs(3, 2, 2, True)


@main.command("all")
@click.option("--matrix", default="2,1;3,2", callback=_matrix,
              help="Semicolon-separated k,m pairs.")
@click.option("--qdeg", type=NONNEGATIVE, default=None)
@click.option("--modes", type=POSITIVE, default=12)
@click.option("--seed", type=int, default=0)
@OUT_OPT
def run_everything(matrix, qdeg, modes, seed, out):
    """Aggregate verification over a (k, m) matrix."""
    _run(all_jobs(matrix, qdeg, modes, seed), out)


if __name__ == "__main__":
    main()
