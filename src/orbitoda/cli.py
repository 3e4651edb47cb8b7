"""Command-line driver: every verification as a reproducible JSON-line check.

Each subcommand is a table of rows (row id, params, call): one call to a
library check, with the subcommand's arguments as params.  It streams one
JSON object per report and exits 0 iff all of them pass, 1 if any fails, 2
on bad flags and 3 if any row raised.  A row that raises becomes a report
with status "error", named by the row id and carrying the row's params,
and the next row runs.  Truncation parameters are explicit flags with
defaults and are echoed into the reports, so a "pass" always names its
window.  Checks run one after another, and every report carries a stable
check id.  The subcommands are one table, ``COMMANDS``, parsed with the
standard library's ``argparse``.
"""

import sys
from argparse import ArgumentParser, ArgumentTypeError
from contextlib import nullcontext
from math import gcd

from .cohomology import SectorIndex
from .reports import CheckReport
from .series import up_win


def _check_pair(k, m):
    """Raise unless k and m are positive, distinct and coprime."""
    if k < 1 or m < 1 or k == m or gcd(k, m) != 1:
        raise ArgumentTypeError(
            f"k={k}, m={m} must be positive, distinct and coprime")


def _at_least(lo):
    """The converter of an integer flag whose value must be >= lo."""
    def integer(text):
        value = int(text)
        if value < lo:
            raise ArgumentTypeError(f"{value} is not in the range x>={lo}")
        return value
    return integer


POSITIVE, NONNEGATIVE = _at_least(1), _at_least(0)


def _matrix(value):
    """Parse a ``k,m;k,m;...`` matrix of valid (k, m) pairs."""
    out = []
    for chunk in value.split(";"):
        try:
            k, m = (int(x) for x in chunk.split(","))
        except ValueError:
            raise ArgumentTypeError(
                f"{chunk!r} is not of the form k,m") from None
        _check_pair(k, m)
        out.append((k, m))
    return out


def _zwindow(value):
    """Parse a ``lo:hi`` z-window with lo <= hi and lo <= 1."""
    try:
        zlo, zhi = (int(x) for x in value.split(":"))
    except ValueError:
        raise ArgumentTypeError(
            f"{value!r} is not of the form lo:hi") from None
    if zlo > zhi:
        raise ArgumentTypeError(f"empty window {value!r}: lo > hi")
    if zlo >= 2:
        raise ArgumentTypeError(
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
            print(rep.to_json(), file=out, flush=True)
            statuses.add(rep.status)
    sys.exit(3 if "error" in statuses else 0 if statuses <= {"pass"} else 1)


def jfunc_jobs(k, m, qdeg, zlo, zhi, negate):
    from .jfunction import verify_jfunc
    return _rows(
        {"k": k, "m": m, "qdeg": qdeg, "zwin": [zlo, zhi], "negate": negate},
        ("jfunc", lambda: verify_jfunc(k, m, qdeg, zlo, zhi, negate)))


def mirror_jobs(k, m, degree, seed, points):
    from .mirror import (classical_critical_data, verify_flat_coordinates,
                         verify_residue_pairing, verify_tangent_product)
    return _rows(
        {"k": k, "m": m, "degree": degree, "seed": seed, "points": points},
        ("mirror-pairing",
         lambda: verify_residue_pairing(k, m, degree, seed, points)),
        ("flat-coordinates", lambda: verify_flat_coordinates(k, m)),
        ("tangent-product", lambda: verify_tangent_product(k, m)),
        ("classical-critical", lambda: classical_critical_data(k, m)))


def asymptotics_jobs(k, m, n):
    from .mirror import (gaussian_moment_oracle, verify_a_polynomials,
                         verify_classical_r)
    return _rows(
        {"k": k, "m": m, "n": n},
        ("a-polynomials", lambda: verify_a_polynomials(n)),
        ("gaussian-moment-oracle", lambda: gaussian_moment_oracle(min(n, 5))),
        ("classical-r", lambda: verify_classical_r(k, m)))


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


def vertex_jobs(k, m, modes, negate):
    from .hqe import (verify_change_matrix, verify_lemma_inv,
                      verify_theorem2_transform)
    return _rows(
        {"k": k, "m": m, "modes": modes, "negate": negate},
        ("theorem2",
         lambda: verify_theorem2_transform(k, m, modes, negate=negate)),
        ("lemma-inv", lambda: verify_lemma_inv(k, 8)),
        ("change-matrix", lambda: verify_change_matrix(k, 4, 8)))


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


def all_jobs(matrix, qdeg, modes, seed):
    return [row for (k, m) in matrix for row in
            jfunc_jobs(k, m, 2 * k * m if qdeg is None else qdeg, -6, 2,
                       False) +
            mirror_jobs(k, m, 2, seed, 1) +
            periods_jobs(k, m) +
            vertex_jobs(k, m, modes, False)] + \
        asymptotics_jobs(3, 2, 12) + toda_jobs(2, 1, 3, 2) + \
        hqe_jobs(3, 2, 2, True)


# A flag is (flag, converter, default, help); the converter bool makes a
# switch, the default REQUIRED a flag that must be given.
REQUIRED = ...
K, M = ("--k", POSITIVE, REQUIRED, None), ("--m", POSITIVE, REQUIRED, None)
OUT = ("--out", str, "-", "Report stream destination (default stdout).")

# name -> (help, flags, rows builder called with the flags by name)
COMMANDS = {
    "jfunc": (
        "The derivative-operator ladder identities and the quantum "
        "differential equation.",
        [K, M,
         ("--qdeg", NONNEGATIVE, None,
          "q-degree to verify through (default 2km)."),
         ("--zdeg", _zwindow, "-6:2", "z-window lo:hi."),
         ("--negate", bool, False,
          "Perturb one operator as a negative control.")],
        lambda k, m, qdeg, zdeg, negate: jfunc_jobs(
            k, m, 2 * k * m if qdeg is None else qdeg, *zdeg, negate)),
    "mirror-pairing": (
        "Residue pairing vs the Poincare pairing; flat-coordinate routes.",
        [K, M, ("--degree", NONNEGATIVE, 2, "Symbolic jet degree."),
         ("--seed", int, 0, None),
         ("--points", NONNEGATIVE, 3,
          "Random rational parameter points to test.")],
        mirror_jobs),
    "asymptotics": (
        "Stationary-phase polynomials and the Gaussian-moment oracle.",
        [("--k", POSITIVE, 3, None), ("--m", POSITIVE, 2, None),
         ("--n", _at_least(2), 12, "Highest A_n checked.")],
        asymptotics_jobs),
    "periods": (
        "Lemma-D branches, bi-infinite sums, the transformation law, and "
        "the phase-form primitives.",
        [K, M], periods_jobs),
    "toda": (
        "Shift-operator flows, wave equations, and the bi-graded reduction.",
        [("--k", POSITIVE, 2, None), ("--m", POSITIVE, 1, None),
         ("--eps-order", _at_least(3), 3, "eps-truncation order of the jets."),
         ("--times", POSITIVE, 3, "Flow times carried by tau jets.")],
        toda_jobs),
    "vertex": (
        "The flow-variable change of the vertex operators and its inversion.",
        [K, M, ("--modes", POSITIVE, 12, None),
         ("--negate", bool, False, None)],
        vertex_jobs),
    "hqe": (
        "Bilinear residue checks on truncated Fock elements and tau jets.",
        [("--k", POSITIVE, 3, None), ("--m", POSITIVE, 2, None),
         ("--times", POSITIVE, 2,
          "Flow depth of the bilinear residue checks."),
         ("--negate", bool, False,
          "Also run the perturbed-tau negative control.")],
        hqe_jobs),
    "all": (
        "Aggregate verification over a (k, m) matrix.",
        [("--matrix", _matrix, "2,1;3,2", "Semicolon-separated k,m pairs."),
         ("--qdeg", NONNEGATIVE, None, None),
         ("--modes", POSITIVE, 12, None), ("--seed", int, 0, None)],
        all_jobs),
}


def _no_command(prog, args):
    """Exit with the command list: 0 on --help, 2 on a missing or unknown
    command."""
    group = ArgumentParser(prog=prog, description=main.__doc__)
    commands = group.add_subparsers(title="commands", metavar="COMMAND",
                                    required=True)
    for name, (doc, _, _) in COMMANDS.items():
        commands.add_parser(name, help=doc)
    group.parse_args(args[:1])


def main(args=None, prog_name=None):
    """Exact symbolic verification of the orbifold J-function calculus and
    the bi-graded 2-Toda reduction."""
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or "orbitoda"
    if not args or args[0] not in COMMANDS:
        _no_command(prog, args)
    doc, flags, jobs = COMMANDS[args[0]]
    parser = ArgumentParser(prog=f"{prog} {args[0]}", description=doc,
                            allow_abbrev=False)
    valued = set()
    for flag, convert, default, text in flags + [OUT]:
        if convert is bool:
            parser.add_argument(flag, action="store_true", help=text)
        else:
            parser.add_argument(flag, type=convert, default=default,
                                required=default is REQUIRED, help=text)
            valued.add(flag)
    # a flag with a value takes the next token, even one such as "-8:2"
    # that argparse would read as a flag: join the two as --flag=value
    tokens = iter(args[1:])
    tokens = [f"{t}={next(tokens, '')}" if t in valued else t for t in tokens]
    params, extra = parser.parse_known_args(tokens)
    if extra:
        parser.error(f"No such option: {extra[0]}" if extra[0][:1] == "-"
                     else f"unexpected extra argument ({extra[0]})")
    out = vars(params).pop("out")
    try:
        if hasattr(params, "k"):
            _check_pair(params.k, params.m)
        stream = nullcontext(sys.stdout) if out == "-" else open(out, "w")
    except (ArgumentTypeError, OSError) as exc:
        parser.error(str(exc))
    with stream as out:
        _run(jobs(**vars(params)), out)


if __name__ == "__main__":
    main()
