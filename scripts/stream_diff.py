#!/usr/bin/env python3
"""Compare the report streams of two checkouts of orbitoda.

Usage:
    python scripts/stream_diff.py OLD_TREE NEW_TREE

Runs, under each tree's ``src``, ``orbitoda all``, the default ``hqe`` and
``toda``, and every invocation of the benchmark workloads
(``perfbench.verdicts.invocations(workload, 1)`` of this checkout), each in
a fresh interpreter.  ``elapsed_ms`` is removed from every report; the
reports and the exit codes must then be identical.  Then ``--help`` of the
group and of every subcommand either tree has must print the same text
with the same exit code.  Prints the first difference and exits 1 on any,
else exits 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True

from verdicts import WORKLOADS, invocations  # noqa: E402

RUN = "import sys; from orbitoda.cli import main; " \
    "main(args=sys.argv[1:], prog_name='orbitoda')"


def start(tree: Path, argv: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, "-c", RUN, *argv], cwd=tree,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def commands(tree: Path) -> set:
    """The subcommand names of the tree's CLI group."""
    code = "from orbitoda.cli import main; print(*main.commands)"
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


def first_difference(old, new) -> str | None:
    (old_code, old_reps, old_err), (new_code, new_reps, new_err) = old, new
    for i, (a, b) in enumerate(zip(old_reps, new_reps)):
        if a != b:
            return (f"report {i} ({a.get('check')}):\n  old {json.dumps(a)}"
                    f"\n  new {json.dumps(b)}")
    if len(old_reps) != len(new_reps):
        return f"{len(old_reps)} reports vs {len(new_reps)}"
    if old_code != new_code:
        return (f"exit code {old_code} vs {new_code}\n  old stderr: "
                f"{old_err[-500:]}\n  new stderr: {new_err[-500:]}")
    return None


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old_tree, new_tree = (Path(p).resolve() for p in sys.argv[1:])
    runs = [["all"], ["hqe"], ["toda"]] + [
        argv for w in WORKLOADS for argv, _, _ in invocations(w, 1)]
    total = 0
    for argv in runs:
        procs = start(old_tree, argv), start(new_tree, argv)
        old, new = (finish(p) for p in procs)
        diff = first_difference(old, new)
        if diff is not None:
            print(f"DIFFERENT on orbitoda {' '.join(argv)}: {diff}")
            sys.exit(1)
        total += len(old[1])
        print(f"same: orbitoda {' '.join(argv)} "
              f"({len(old[1])} reports, exit {old[0]})")
    helps = [["--help"]] + [[name, "--help"] for name in
                            sorted(commands(old_tree) | commands(new_tree))]
    for argv in helps:
        old, new = ((*p.communicate(), p.returncode) for p in
                    (start(old_tree, argv), start(new_tree, argv)))
        if old != new:
            print(f"DIFFERENT on orbitoda {' '.join(argv)}:\n  old "
                  f"{old!r}\n  new {new!r}")
            sys.exit(1)
        print(f"same: orbitoda {' '.join(argv)} (exit {old[2]})")
    print(f"identical: {len(runs)} invocations, {total} reports, "
          f"{len(helps)} help texts")


if __name__ == "__main__":
    main()
