#!/usr/bin/env python3
"""Compare the report streams of two checkouts of orbitoda.

Usage:
    python scripts/stream_diff.py OLD_TREE NEW_TREE

Runs, under each tree's ``src``, ``orbitoda all``, the default ``hqe`` and
``toda``, every invocation of the benchmark workloads
(``perfbench.verdicts.invocations(workload, 1)`` of this checkout), and
six more beyond that list (``EXTRA``): three that form capped jets,
``toda --k 2 --m 3 --eps-order 4 --times 3``, the one run with m > k,
whose raising inverse runs at m = 3 on a wider eps-window, ``toda --times
1``, the smallest Q depth, where Lbar is known only through band 0, and
the sweep of ``all`` over every coprime pair with k, m <= 6 (``SWEEP``).
Each runs in a fresh interpreter.  ``elapsed_ms`` is removed from every report; the
reports and the exit codes must then be identical.  Then ``--help`` of the
group and of every subcommand either tree has must print the same text
with the same exit code.  Every invocation and help text is run; each
differing report is printed with its invocation, check id and every
differing field as old -> new, then the count of differing reports and
of those among them that pass on either tree (0 when only failing reports
moved), and the script exits 1.  An identical run exits 0.
"""

import json
import os
import subprocess
import sys
from itertools import zip_longest
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True

from verdicts import WORKLOADS, invocations  # noqa: E402

# every row at the 22 coprime pairs (k, m) with k, m <= 6
SWEEP = ";".join(f"{k},{m}" for k in range(1, 7) for m in range(1, 7)
                 if k != m and gcd(k, m) == 1)

# capped jets the benchmark's invocations do not form: the t-jet of a
# degree-3 chart, and HQE and 2-Toda checks at flow depth 2; then the
# raising inverse at m = 3 > k on eps-order 4, the smallest Q depth, and
# the sweep
EXTRA = [["mirror-pairing", "--k", "4", "--m", "3", "--degree", "3"],
         ["hqe", "--k", "5", "--m", "2", "--times", "2", "--negate"],
         ["toda", "--k", "3", "--m", "2", "--times", "2"],
         ["toda", "--k", "2", "--m", "3", "--eps-order", "4", "--times", "3"],
         ["toda", "--times", "1"],
         ["all", "--matrix", SWEEP]]

RUN = "import sys; from orbitoda.cli import main; " \
    "main(args=sys.argv[1:], prog_name='orbitoda')"


def start(tree: Path, argv: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, "-c", RUN, *argv], cwd=tree,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def commands(tree: Path) -> set:
    """The subcommand names of the tree's CLI: the keys of its command
    table, or the commands of its click group in a tree from before the
    table."""
    code = ("from orbitoda import cli; "
            "print(*getattr(cli, 'COMMANDS', None) or cli.main.commands)")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def finish(proc: subprocess.Popen):
    """(exit code, reports without elapsed_ms, stderr)."""
    out, err = proc.communicate()
    reports = []
    for line in out.splitlines():
        rep = json.loads(line)
        rep.pop("elapsed_ms", None)
        reports.append(rep)
    return proc.returncode, reports, err


def report_diffs(old_reps: list, new_reps: list) -> list:
    """(check id, {field: (old, new)}, whether it passes on either tree)
    for each report that differs; a report missing on one side reads as
    {}."""
    out = []
    for a, b in zip_longest(old_reps, new_reps, fillvalue={}):
        if a != b:
            fields = {f: (a.get(f), b.get(f))
                      for f in sorted(a.keys() | b.keys())
                      if a.get(f) != b.get(f)}
            out.append((a.get("check", b.get("check")), fields,
                        "pass" in (a.get("status"), b.get("status"))))
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old_tree, new_tree = (Path(p).resolve() for p in sys.argv[1:])
    runs = [["all"], ["hqe"], ["toda"]] + [
        argv for w in WORKLOADS for argv, _, _ in invocations(w, 1)] + EXTRA
    total = differing = passing = mismatches = 0
    for argv in runs:
        cmd = "orbitoda " + " ".join(argv)
        procs = start(old_tree, argv), start(new_tree, argv)
        (old_code, old_reps, old_err), (new_code, new_reps, new_err) = \
            (finish(p) for p in procs)
        diffs = report_diffs(old_reps, new_reps)
        for check, fields, passes in diffs:
            print(f"DIFFERENT on {cmd}: {check}")
            for f, (a, b) in fields.items():
                print(f"  {f}: {json.dumps(a)} -> {json.dumps(b)}")
        if old_code != new_code:
            mismatches += 1
            print(f"DIFFERENT on {cmd}: exit code {old_code} -> {new_code}"
                  f"\n  old stderr: {old_err[-500:]}"
                  f"\n  new stderr: {new_err[-500:]}")
        elif not diffs:
            print(f"same: {cmd} ({len(old_reps)} reports, exit {old_code})")
        total += len(old_reps)
        differing += len(diffs)
        passing += sum(passes for _, _, passes in diffs)
    helps = [["--help"]] + [[name, "--help"] for name in
                            sorted(commands(old_tree) | commands(new_tree))]
    for argv in helps:
        cmd = "orbitoda " + " ".join(argv)
        old, new = ((*p.communicate(), p.returncode) for p in
                    (start(old_tree, argv), start(new_tree, argv)))
        if old != new:
            mismatches += 1
            print(f"DIFFERENT on {cmd}:\n  old {old!r}\n  new {new!r}")
        else:
            print(f"same: {cmd} (exit {old[2]})")
    if differing or mismatches:
        print(f"different: {differing} of {total} reports ({passing} pass on "
              f"either tree), {mismatches} exit codes or help texts")
        sys.exit(1)
    print(f"identical: {len(runs)} invocations, {total} reports, "
          f"{len(helps)} help texts")


if __name__ == "__main__":
    main()
