"""orbitoda benchmark: time, CPU and memory to a verdict, per workload.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the repository root. Each sample is one fresh interpreter
(perfbench/child.py, PYTHONPATH=src) that runs the workload's fixed list of
`orbitoda` CLI invocations. Samples run one at a time, a closed loop with
one client, until --seconds have passed and at least two samples ran;
every sample's reports go through the verdict gate. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, medians over the samples:
  wall_s       spawn to exit of a sample process
  cpu_s        user + system CPU of the sample and its descendants (wait4)
  setup_s      spawn until the first invocation starts (interpreter,
               imports, click); also timed on set-up-only spawns
  peak_rss_mb  peak RSS of the sample process
`attempted` and `failed` are checks_total and checks_wrong summed over the
samples: one check per expected report and one per exit code.

--trace 1 runs one untraced sample, then two traced samples under
PYTHONHASHSEED 1 and 2, whose call counts must agree, and reports the
per-layer metrics of the first.

The line before the result is a header: Python, nproc, git rev, seed, load
average and steal jiffies at start and end, and a speed probe before each
sample, so a noisy set shows.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import verdicts

# Set-up-only spawns before each sample, so that setup_s samples the
# host's speed over the whole run, not one moment of it.
SETUP_SPAWNS = 5
MIN_SAMPLES = 2
CHILD = os.path.join("perfbench", "child.py")


def proc_snapshot():
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    with open("/proc/stat") as f:
        cpu = f.readline().split()
    return {"loadavg": load, "steal_jiffies": int(cpu[8])}


def speed_probe():
    """Seconds for a fixed Fraction loop: the host's speed at this moment.

    Steal time misses contention that slows a vCPU while it runs; this
    probe shows it, so a set measured on a slow or shifting host shows."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(1, i * i)
    return time.perf_counter() - t0


def git_rev():
    if not os.path.isdir(".git"):
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, check=False)
    return res.stdout.strip() or None


def child_env(hash_seed):
    env = dict(os.environ)
    env.pop("ORBITODA_THREADS", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def spawn(argvs, trace=False, hash_seed=0):
    """Run one sample process; returns its timings, usage and events."""
    cmd = [sys.executable, CHILD] + (["--trace"] if trace else []) + \
        [json.dumps(argvs)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            env=child_env(hash_seed))
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    events = []
    for line in out.decode().splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            print(line, file=sys.stderr)
    ready = next((e for e in events if "ready" in e), None)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "setup_s": ready["ready"] - t0 if ready else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "module": ready["module"] if ready else None,
        "runs": [e for e in events if "argv" in e],
        "trace": next((e["trace"] for e in events if "trace" in e), None),
        "exit": proc.returncode,
    }


def observed(sample):
    """The sample's (exit code, verdicts) per invocation, for the gate."""
    out = []
    for run in sample["runs"]:
        reports = []
        for line in run["out"].splitlines():
            try:
                reports.append(verdicts.verdict(json.loads(line)))
            except (json.JSONDecodeError, AttributeError):
                reports.append((None, "unparsed", False))
        if "error" in run:
            print(f"{run['argv']}: {run['error']}", file=sys.stderr)
        out.append((run["code"], reports))
    return out


def sample_ok(sample):
    """Ran to the end, with orbitoda imported from this checkout."""
    src = os.path.abspath("src") + os.sep
    return sample["exit"] == 0 and sample["setup_s"] is not None and \
        str(sample["module"]).startswith(src)


def layer_metrics(trace, traced_wall, untraced_wall):
    metrics = {}
    layer_self = {}
    for key, n in trace["calls"].items():
        metrics[f"{key}.calls"] = (n, "count")
        metrics[f"{key}.self_s"] = (trace["self_s"][key], "s")
        layer = key.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + trace["self_s"][key]
    for layer, s in layer_self.items():
        metrics[f"{layer}.self_s"] = (s, "s")
    pairs = trace["series.mul.pairs"]
    terms = trace["series.mul.terms_out"]
    metrics["series.mul.pairs"] = (pairs, "count")
    metrics["series.mul.terms_out"] = (terms, "count")
    metrics["series.mul.keep_ratio"] = (terms / pairs if pairs else 0.0,
                                        "ratio")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unattributed_s"] = (traced_wall - trace["root_s"], "s")
    return metrics, sum(layer_self.values())


def trace_counts(trace):
    return (trace["calls"], trace["series.mul.pairs"],
            trace["series.mul.terms_out"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=verdicts.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "orbitoda", "cli.py")):
        sys.exit("perfbench: run from the repository root; src/orbitoda "
                 "is missing")
    problems = verdicts.self_test()
    if problems:
        sys.exit("perfbench: verdict gate self-test failed: " +
                 "; ".join(problems))

    start = proc_snapshot()
    expected = verdicts.invocations(args.workload, args.seed)
    argvs = [argv for argv, _, _ in expected]
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   check=True, stdout=subprocess.DEVNULL)

    correct = True
    attempted = failed = 0
    setups = []

    def sample(argvs, **kwargs):
        nonlocal correct, attempted, failed
        s = spawn(argvs, **kwargs)
        correct &= sample_ok(s)
        setups.append(s["setup_s"] or 0.0)
        if argvs:
            total, wrong = verdicts.gate(expected, observed(s))
            attempted += total
            failed += wrong
        return s

    # A traced run needs one untraced sample, for trace.overhead_s.
    min_samples, seconds = (1, 0) if args.trace else \
        (MIN_SAMPLES, args.seconds)
    samples = []
    probes = []
    t_start = time.monotonic()
    while len(samples) < min_samples or \
            time.monotonic() - t_start < seconds:
        probes.append(speed_probe())
        for _ in range(SETUP_SPAWNS):
            sample([])
        samples.append(sample(argvs))

    def median(key):
        return statistics.median(s[key] for s in samples)

    metrics = {"wall_s": (median("wall_s"), "s"),
               "cpu_s": (median("cpu_s"), "s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (median("peak_rss_mb"), "MB")}
    notes = {}
    if args.trace:
        traced = [sample(argvs, trace=True, hash_seed=h) for h in (1, 2)]
        first, second = (s["trace"] for s in traced)
        if first and second:
            metrics, self_sum = layer_metrics(first, traced[0]["wall_s"],
                                              metrics["wall_s"][0])
            notes = {
                "counts_match": trace_counts(first) == trace_counts(second),
                "traced_wall_s": traced[0]["wall_s"],
                "self_plus_unattributed_s":
                    self_sum + metrics["trace.unattributed_s"][0],
            }
            # Self times partition the cli.main spans.
            correct &= notes["counts_match"] and \
                abs(self_sum - first["root_s"]) < 1e-3
        else:
            correct, metrics = False, {}

    header = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_rev": git_rev(), "start": start, "end": proc_snapshot(),
        "samples": [{k: s[k] for k in
                     ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
                    for s in samples],
        "setup_s_values": setups,
        "speed_probe_s": probes,
        **notes,
    }
    print(json.dumps(header))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
