"""Run the benchmark over several workloads and seeds and keep each result.

    python3 benchmarks/collect.py --out runs/parent --seeds 1-10
    python3 benchmarks/collect.py --out runs/parent --workloads sweep --seeds 1-5 --trace 1

Each run's metric lines are printed, and its last output line, the JSON
result, goes to OUT/<workload>.<seed>.json (traced runs to
OUT/<workload>.<seed>.trace.json).  Workloads alternate within each seed,
so slow drift of the machine spreads over all of them.  Feed two OUT
directories to compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--seconds", type=int, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    suffix = ".trace.json" if args.trace else ".json"
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = declared["command"][1:] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run([sys.executable] + cmd, cwd=ROOT,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            *lines, last = proc.stdout.strip().splitlines()
            path = os.path.join(args.out, f"{workload}.{seed}{suffix}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(last + "\n")
            result = json.loads(last)
            print("\n".join(lines), flush=True)
            print(f"-> {path}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
