"""Benchmark entry point: one workload, one seed, a closed loop of fresh processes.

    python3 benchmarks/run.py --workload sweep --seed 0 --seconds 30 --trace 0

With --trace 0 it runs passes of the workload, each in a fresh
single-threaded Python process started after the previous one ended, until
the next pass would overrun --seconds (at least MIN_PASSES), plus set-up-only
processes in between.  It checks every output and prints the end-to-end
metrics of BENCHMARK.json.  With --trace 1 it runs one untraced pass, one
traced pass and the layer probes, and prints the per-layer metrics.  The last
line of standard output is the JSON result; the lines before it give every
metric with its unit and sample count.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 150
MIN_PASSES = 3
SETUPS_PER_PASS = 3
MIN_SETUPS = 15


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _preflight():
    for rel in ("BENCHMARK.json", "src/azunorm/cli.py", "tests/order_oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"missing {rel}: run from a full checkout of the repository")


def run_child(spec, mode, trace=False, spans_path=None):
    """One fresh process; returns its report plus the parent-side set-up time."""
    payload = dict(spec, mode=mode, trace=trace, spans_path=spans_path)
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD], input=json.dumps(payload),
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process ran over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if "t_ready" in out:
        out["setup_s"] = out["t_ready"] - t_spawn
    if "t_end" in out:
        out["wall_s"] = out["t_end"] - out["t_ready"]
    return out


class Tally:
    """Failures and mismatches over every checked pass of a run."""

    def __init__(self, workload, seed, expect):
        self.workload, self.seed, self.expect = workload, seed, expect
        self.attempted = 0
        self.failed = 0
        self.problems = []            # (operation, what) that make correct false
        self.crashes = {}             # exception type -> count
        self.routes = {}
        self.digests = set()

    def check(self, res):
        for e, out in zip(self.expect, res["ops"]):
            self.attempted += 1
            what = checks.check_op(e, out)
            if what is None:
                if e["kind"] == "np-witness":
                    route = json.loads(out["records"][0])["witness"]
                    key = "direct" if route["route"] == "direct" else (
                        "factored_random" if "seed" in route else "factored_anchored")
                    self.routes[key] = self.routes.get(key, 0) + 1
                continue
            self.failed += 1
            if out["error"] is not None:
                kind = out["error"].split(":", 1)[0]
                self.crashes[kind] = self.crashes.get(kind, 0) + 1
            if not checks.is_known_crash(e, out):
                self.problems.append((e.get("task", e["kind"]), what))
        self.digests.add(checks.report_digest(self.expect, res["ops"]))

    @property
    def correct(self):
        return not self.problems and self.digest_problem() is None

    def digest_problem(self):
        if len(self.digests) != 1:
            return f"passes wrote different reports ({len(self.digests)} digests)"
        want = checks.committed_sha(self.workload, self.seed)
        got = next(iter(self.digests))
        if want is not None and got != want:
            return f"report SHA-256 {got} differs from the committed {want}"
        return None

    def describe(self):
        lines = [f"operations: {self.attempted} attempted, {self.failed} failed, "
                 f"fail_ratio {self.failed / self.attempted:.4f}"]
        for kind, n in sorted(self.crashes.items()):
            lines.append(f"  uncaught {kind}: {n}")
        for task, what in self.problems[:10]:
            lines.append(f"  WRONG {task}: {what}")
        if self.digest_problem():
            lines.append(f"  WRONG {self.digest_problem()}")
        lines.append(f"report sha256 {', '.join(sorted(self.digests))}")
        return lines


def _quantile(values, q):
    """Inclusive quantile; stays within the sample's range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def measure(workload, seed, seconds, spec, expect, say):
    tally = Tally(workload, seed, expect)
    setups, passes = [], []
    t0 = time.monotonic()
    while True:
        for _ in range(SETUPS_PER_PASS):
            setups.append(run_child(spec, "setup")["setup_s"])
        res = run_child(spec, "pass")
        tally.check(res)
        passes.append(res)
        setups.append(res["setup_s"])
        elapsed = time.monotonic() - t0
        typical = statistics.median(p["wall_s"] + p["setup_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(spec, "setup")["setup_s"])
    walls = [p["wall_s"] for p in passes]
    # every pass runs the same operations: take each one's median latency
    task_ms = [1e3 * statistics.median(op["s"] for op in same)
               for same in zip(*(p["ops"] for p in passes))]
    samples = len(task_ms) * len(passes)
    rss = [p["maxrss_kb"] / 1024 for p in passes]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (wall, len(walls)),
        "task_p50_ms": (statistics.median(task_ms), samples),
        "task_p99_ms": (_quantile(task_ms, 99), samples),
        "peak_rss_mb": (statistics.median(rss), len(rss)),
    }
    say(f"workload {workload}, seed {seed}: {len(passes)} passes and "
        f"{len(setups) - len(passes)} set-up-only processes in "
        f"{time.monotonic() - t0:.1f} s")
    extra = {}
    if workload == "sweep":
        extra["elements_per_s"] = (workloads.elements_covered(expect) / wall,
                                   "1/s", len(walls))
    if workload == "witness":
        verified = (tally.attempted - tally.failed) / len(passes)
        extra["witnesses_per_s"] = (verified / wall, "1/s", len(walls))
        total = sum(tally.routes.values()) or 1
        say("np-witness routes: " + ", ".join(
            f"{k} {v / total:.3f}" for k, v in sorted(tally.routes.items())))
    extra["fail_ratio"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    return tally, metrics, extra


def traced(workload, seed, spec, expect, say):
    tally = Tally(workload, seed, expect)
    plain = run_child(spec, "pass")
    tally.check(plain)
    spans_path = os.path.join(SPANS_DIR, f"spans-{workload}.tsv.gz")
    res = run_child(spec, "pass", trace=True, spans_path=spans_path)
    tally.check(res)
    probes = run_child({}, "probe")["probes"]
    layer = dict(res["trace"])
    layer.update(probes)
    layer["trace.wall_s"] = res["wall_s"]
    layer["trace.overhead_ratio"] = res["wall_s"] / plain["wall_s"]
    if layer["trace.self_sum_s"] > res["wall_s"]:
        tally.problems.append(("trace", "layer self times exceed the traced wall time"))
    say(f"workload {workload}, seed {seed}: untraced pass {plain['wall_s']:.3f} s, "
        f"traced pass {res['wall_s']:.3f} s, spans in {os.path.relpath(spans_path, ROOT)}")
    return tally, {k: (v, 1) for k, v in layer.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def say(line):
        print(line, flush=True)

    try:
        _preflight()
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        spec, expect = workloads.make(args.workload, args.seed)
        if args.trace:
            tally, got = traced(args.workload, args.seed, spec, expect, say)
            wanted = declared["per_layer"]
            extra = {}
        else:
            tally, got, extra = measure(args.workload, args.seed, args.seconds,
                                        spec, expect, say)
            wanted = declared["end_to_end"]
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        print(f"benchmark error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {}
    for m in wanted:
        value, n = got[m["name"]]
        say(f"  {m['name']:<42} {value:>14.6g} {m['unit']:<6} n={n}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    for name, (value, unit, n) in extra.items():
        say(f"  {name:<42} {value:>14.6g} {unit:<6} n={n}")
    for line in tally.describe():
        say(line)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        import checks
        import workloads
    except (OSError, ImportError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
