"""One fresh benchmark process: set up, run the given operations, report.

Reads a JSON spec on stdin and prints one JSON object on stdout.  Modes:

  pass   parse every config, build the library objects, then run each
         operation once, timing it; with "trace" the layers are wrapped
         first (see tracer.py)
  setup  the same set-up, then exit before the first operation
  probe  time single ring and algebra operations on fixed element lists

An operation that raises is reported with its exception type and does not
stop the pass.  Only the standard library and azunorm (from src/) are used.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _build_lib(op, presets, transfers):
    name = op[1]
    if name == "transfer_on_functor":
        _, _, kind, center, d = op
        c = presets.etale_preset(center)
        ext = transfers.etale_extension(c)
        return lambda: transfers.transfer_on_functor(kind, c, ext, d)
    raise ValueError(f"unknown library call {name!r}")


def _lib_result(rep):
    return {"well_defined": rep.well_defined, "hom_ok": rep.hom_ok,
            "sigma_compat": rep.sigma_compat, "source_order": rep.source_order,
            "target_order": rep.target_order, "mapping": len(rep.mapping)}


def run_pass(spec, tracer=None):
    from azunorm import cli, presets, transfers
    cfgs = [cli.parse_config(text) for text in spec["configs"]]
    calls = {}
    for i, op in enumerate(spec["ops"]):
        if op[0] == "lib":
            calls[i] = _build_lib(op, presets, transfers)
    t_ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"t_ready": t_ready}
    if tracer is not None:
        tracer.start_timed()
    results = []
    clock = time.perf_counter
    for i, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.task[0] = i
        out = {"records": [], "error": None}
        t0 = clock()
        try:
            if op[0] == "task":
                cfg = cfgs[op[1]]
                _, recs = cli.run(cfg, tasks=[cfg.tasks[op[2]]], out=io.StringIO())
                out["records"] = [r.to_json() for r in recs]
            else:
                out["lib"] = _lib_result(calls[i]())
        except Exception as e:  # a crash is a failed operation, not the end
            out["error"] = f"{type(e).__name__}: {e}"
        out["s"] = clock() - t0
        results.append(out)
    t_end = time.monotonic()
    return {"t_ready": t_ready, "t_end": t_end, "ops": results}


def main():
    spec = json.load(sys.stdin)
    tracer = None
    if spec.get("trace"):
        import tracer as tracing
        tracer = tracing.install()
    if spec["mode"] == "probe":
        import probes
        out = {"probes": probes.run_all()}
    else:
        out = run_pass(spec, tracer)
    if tracer is not None:
        out["trace"] = tracer.metrics()
        tracer.write_spans(spec["spans_path"])
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
