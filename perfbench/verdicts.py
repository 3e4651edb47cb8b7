"""The workloads' CLI invocations, their expected verdicts, and the gate.

Every invocation has an expected exit code and an expected verdict for
each report it emits: (check id, status, located). `located` means the
report names where a discrepancy sits: a `first_discrepancy`, or for a
negative control that passes, a `detail` that says where the planted
perturbation was found. A negative control that passes without a location
is a vacuous pass and counts wrong.
"""

from collections import Counter

PASS = ("pass", False)
FAIL_LOCATED = ("fail", True)
PASS_LOCATED = ("pass", True)


def _jfunc(k, m, negate=False):
    argv = ["jfunc", "--k", str(k), "--m", str(m)]
    reports = [(f"ladder-alpha-{i}", *PASS) for i in range(1, k + m + 1)]
    reports.append(("qde", *PASS))
    if not negate:
        return argv, 0, reports
    reports[0] = ("ladder-alpha-1", *FAIL_LOCATED)
    reports[-1] = ("qde", *FAIL_LOCATED)
    return argv + ["--negate"], 1, reports


def _mirror(k, m, seed):
    checks = ["mirror-pairing", "mirror-pairing-point-0",
              "mirror-pairing-point-1", "mirror-pairing-point-2",
              "flat-coordinates", "tangent-product", "classical-critical"]
    return (["mirror-pairing", "--k", str(k), "--m", str(m),
             "--seed", str(seed)], 0, [(c, *PASS) for c in checks])


def _periods(k, m):
    checks = ["lemma-d-branches", "bi-infinite-fixed-point",
              "transformation-shift-classical",
              "transformation-shift-mirror-x",
              "transformation-shift+tail-classical",
              "transformation-shift+tail-mirror-x", "s-action-replay",
              "mode-chain", "phase-primitives", "w-derivative", "c-constant"]
    return (["periods", "--k", str(k), "--m", str(m)], 0,
            [(c, *PASS) for c in checks])


def _vertex(k, m, negate=False):
    theorem2 = FAIL_LOCATED if negate else PASS
    reports = [("theorem2-unbarred", *theorem2),
               ("theorem2-barred", *theorem2),
               ("lemma-inv", *PASS), ("change-matrix", *PASS)]
    argv = ["vertex", "--k", str(k), "--m", str(m)]
    return (argv + ["--negate"], 1, reports) if negate else (argv, 0, reports)


def invocations(workload, seed):
    """[(argv, expected exit code, [(check, status, located), ...]), ...].

    The seed reaches the program only as `mirror-pairing --seed`."""
    if workload == "ladder":
        return [_jfunc(k, m) for k, m in
                [(2, 1), (3, 2), (4, 3), (5, 2), (5, 3)]] + \
            [_jfunc(3, 2, negate=True)]
    if workload == "geometry":
        return [
            _mirror(4, 3, seed), _mirror(5, 2, seed),
            _periods(4, 3), _periods(5, 2),
            _vertex(5, 2), _vertex(3, 2, negate=True),
            (["toda"], 0, [(c, *PASS) for c in [
                "toda-vacuum", "zakharov-shabat", "wave-equations",
                "reduced-vacuum-split", "reduced-vacuum-solve",
                "reduced-solve-recovery", "reduced-flow-band",
                "gauge-qpower"]]),
            (["asymptotics"], 0, [(c, *PASS) for c in [
                "a-polynomials", "gaussian-moment-oracle", "classical-r"]]),
        ]
    if workload == "hqe":
        return [(["hqe", "--times", "1", "--negate"], 0,
                 [(c, *PASS) for c in [
                     "hqe-trivial-residue", "hqe-bilinearity", "toda-hqe-0-0",
                     "toda-hqe-0-1", "toda-hqe-1-0", "toda-hqe-1-1"]] +
                 [("toda-hqe-negative-control", *PASS_LOCATED)])]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ladder", "geometry", "hqe")


def verdict(report):
    """(check id, status, located) of one parsed report."""
    located = bool(report.get("first_discrepancy")) or \
        "located at" in report.get("detail", "")
    return report.get("check"), report.get("status"), located


def gate(expected, observed):
    """Count (checks_total, checks_wrong) of one sample.

    `expected` is `invocations(...)`; `observed` is one (exit code,
    [verdict, ...]) per invocation, in order, or None for an invocation
    that produced nothing. Every expected report and every exit code is a
    check. A report is wrong when it is missing, its status or location
    differs, or it is not expected at all (an extra or repeated id).
    """
    total = wrong = 0
    for i, (_, code, reports) in enumerate(expected):
        got_code, got = observed[i] if i < len(observed) and observed[i] \
            else (None, [])
        total += len(reports) + 1
        wrong += got_code != code
        want = {check: (status, located) for check, status, located in reports}
        seen = Counter(check for check, _, _ in got)
        for check, status, located in got:
            if want.get(check) != (status, located) or seen[check] > 1:
                wrong += 1
        wrong += sum(1 for check in want if check not in seen)
    return total, wrong


def self_test():
    """Faults the gate must count; returns a list of the ones it missed."""
    expected = invocations("ladder", 0)
    clean = [(code, list(reports)) for _, code, reports in expected]
    total, wrong = gate(expected, clean)
    problems = []
    if wrong or total != 41 + len(expected):
        problems.append(f"clean stream: total {total}, wrong {wrong}")

    def faulted(fault):
        stream = [(code, list(reports)) for code, reports in clean]
        fault(stream)
        return gate(expected, stream)[1]

    def flip(stream):
        code, reports = stream[0]
        reports[1] = (reports[1][0], "fail", False)

    def drop(stream):
        stream[1][1].pop(2)

    def vacuous(stream):
        # the negated run's perturbed check passes without a location
        code, reports = stream[-1]
        reports[0] = (reports[0][0], *PASS)

    def error(stream):
        code, reports = stream[2]
        reports[0] = (reports[0][0], "error", False)

    def exit_code(stream):
        stream[-1] = (0, stream[-1][1])

    def extra(stream):
        stream[0][1].append(stream[0][1][0])

    def lost(stream):
        stream[3] = None

    cases = {"flipped status": (flip, 1), "missing report": (drop, 1),
             "vacuous negative control": (vacuous, 1),
             "error status": (error, 1), "wrong exit code": (exit_code, 1),
             "repeated report": (extra, 2),
             "lost invocation": (lost, len(clean[3][1]) + 1)}
    for name, (fault, want) in cases.items():
        got = faulted(fault)
        if got != want:
            problems.append(f"{name}: counted {got} wrong, want {want}")

    def all_three(stream):
        flip(stream)
        drop(stream)
        vacuous(stream)
    got = faulted(all_three)
    if got != 3:
        problems.append(f"flipped+missing+vacuous: counted {got}, want 3")
    return problems
