#!/usr/bin/env python3
"""Sweep the derivative-identity suite over coprime (k, m) pairs.

Usage:
    python scripts/sweep_matrix.py --max-k 6 --qfactor 2

Runs the full operator-ladder engine and the differential equation for every
coprime pair with k > m, reporting timings; useful for probing how far the
exact kernel scales beyond the acceptance matrix.  Exits 1, naming the
failing pairs, if any pair fails.
"""

import argparse
import sys
import time
from math import gcd

from orbitoda.jfunction import verify_jfunc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-k", type=int, default=6)
    ap.add_argument("--qfactor", type=int, default=2,
                    help="verify through q-degree qfactor*k*m")
    args = ap.parse_args()
    failed = []
    for k in range(2, args.max_k + 1):
        for m in range(1, k):
            if gcd(k, m) != 1:
                continue
            qdeg = args.qfactor * k * m
            t0 = time.monotonic()
            reps = verify_jfunc(k, m, qdeg)
            dt = time.monotonic() - t0
            status = "pass" if all(r.ok for r in reps) else "FAIL"
            print(f"(k,m)=({k},{m})  qdeg={qdeg:3d}  {status}  {dt:6.1f}s")
            if status == "FAIL":
                failed.append(f"({k},{m})")
    if failed:
        sys.exit(f"FAIL: {' '.join(failed)}")


if __name__ == "__main__":
    main()
