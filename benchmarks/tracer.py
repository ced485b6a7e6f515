"""Layer tracing by wrapping azunorm's public functions from outside.

`install()` replaces the functions and methods listed in POINTS, in every
azunorm module namespace that holds them, with timing wrappers.  Nothing
under src/ changes; the untraced benchmark never imports this module.

Each wrapped callable belongs to a layer (a package module).  A call opens a
frame when it enters its layer from another layer; that is where calls are
counted and where time in the layer (`_s`) is measured.  A layer's self time
is the time of those frames minus the time of the frames of other layers
they contain.  Named kernels (KERNELS) also open a frame, and are counted,
when called from inside their own layer; their inner time is passed up, so
self times still add up to no more than the traced wall time.

Frames of the ring and etale layers, which run in the millions, are kept as
aggregate counters only.  Every other frame is also recorded as a span
(id, parent id, operation index, name, start, end) in flat arrays, written
out gzipped when the process ends.
"""

from __future__ import annotations

import gzip
import itertools
import os
import time
from array import array
from collections import defaultdict

from azunorm import (algebras, cli, etale, groups, hilbert90, norm_principle,
                     presets, rings, transfers)

MODULES = {"rings": rings, "etale": etale, "algebras": algebras,
           "groups": groups, "norm_principle": norm_principle,
           "hilbert90": hilbert90, "transfers": transfers,
           "presets": presets, "cli": cli}

_RING_OPS = {"add_p": "add", "neg_p": "other", "mul_p": "mul", "sub_p": "other",
             "is_unit_p": "other", "inv_p": "inv", "pow_p": "other",
             "encode": "other", "decode": "other", "units": "other"}

# layer -> {qualified name in that layer's module: metric key}
POINTS = {
    "rings": {
        **{f"{c}.{m}": k for c in ("Zmod", "PolyQuotient", "ProductRing",
                                   "PolyRing", "QuadraticEtale")
           for m, k in _RING_OPS.items()
           if m in vars(getattr(rings, c, None) or getattr(etale, c))},
        "PolyQuotient.mult_matrix": "other", "PolyQuotient.embed_p": "other",
        "RingMatrix.det": "det", "RingMatrix.__mul__": "matmul",
        "RingMatrix.inverse": "inv", "RingMatrix.char_poly": "other",
        "RingMatrix.apply": "other", "RingMatrix.__add__": "other",
        "RingMatrix.scale": "other", "RingMatrix.transpose": "other",
        "RingMatrix.map_entries": "other",
        "Poly.__mul__": "poly_mul", "Poly.__add__": "other",
        "Poly.__sub__": "other", "Poly.evaluate": "other",
        "Poly.divmod_monic": "other",
        "nullspace": "other", "row_reduce": "other", "solve_field": "other",
        "nth_root_monic": "other", "enumerate_units": "other",
    },
    # the ring interface of QuadraticEtale counts as ring arithmetic; the
    # etale layer is what only an etale extension has
    "etale": {
        "QuadraticEtale.sigma_p": "sigma", "QuadraticEtale.sigma": "sigma",
        "QuadraticEtale.norm_p": "norm", "QuadraticEtale.norm": "norm",
        "QuadraticEtale.unitary_scalars": "unitary_scalars",
        "QuadraticEtale.hilbert90_scalar": "other",
    },
    "algebras": {
        **{f"{c}.{m}": k for c in ("Algebra", "MatrixAlgebra", "TableAlgebra")
           for m, k in (("mul_p", "mul"), ("add_p", "other"),
                        ("neg_p", "other"), ("sub_p", "other"),
                        ("is_unit_p", "is_unit"), ("inv_p", "inv"),
                        ("decode", "decode"), ("encode", "other"),
                        ("scale_base_p", "other"), ("coords_p", "other"),
                        ("from_coords_p", "other"), ("units", "other"),
                        ("left_mult_matrix", "other"))
           if m in vars(getattr(algebras, c))},
        "MatrixAlgebra.det_p": "nrd",
        "AlgebraElem.__mul__": "mul", "AlgebraElem.__add__": "other",
        "AlgebraElem.inverse": "inv", "AlgebraElem.is_unit": "is_unit",
        "Involution.apply_p": "sigma", "Involution.apply": "sigma",
        "AlgebraWithInvolution.sigma_p": "sigma",
        "AlgebraWithInvolution.sigma": "sigma",
        "AlgebraWithInvolution.nrd_p": "nrd",
        "AlgebraWithInvolution.nrd": "nrd",
        "AlgebraWithInvolution.reduced_char_poly": "nrd",
        "AlgebraWithInvolution.is_unitary_elem": "other",
        "AlgebraWithInvolution.embed_center": "other",
        "nrd": "nrd", "nrd_data": "nrd", "reduced_char_poly": "nrd",
        "reduced_char_poly_data": "nrd", "center_data": "other",
        "scalar_extension": "other", "extend_awi": "other",
        "azumaya_verify": "other",
    },
    "groups": {
        "enumerate_unitary": "enumerate", "enumerate_special": "enumerate",
        "FiniteAbelianPresentation.__init__": "presentation",
        "FiniteAbelianPresentation.elementary_divisors": "divisors",
        "FiniteAbelianPresentation.rep": "other",
        "FiniteAbelianPresentation.op": "other",
        "nrd_image": "other", "nrd_unit_image": "other",
        "functor_linear": "other", "functor_unitary": "other",
    },
    "norm_principle": {
        "_omega": "omega", "np_witness": "witness",
        "direct_np_witness": "other", "np_bruteforce_check": "bruteforce",
        "PlusMinusSplit.anchored_candidates": "anchored",
        "PlusMinusSplit.__init__": "other", "PlusMinusSplit.to_fixed": "other",
        "PlusMinusSplit.from_minus_coords": "other",
        "PlusMinusSplit.from_plus_coords": "other",
        "open_set_member": "other", "pm_split": "other",
    },
    "hilbert90": {"h90_witness": "witness", "find_lambda": "lambda",
                  "inclusion_check": "other"},
    "transfers": {
        "FiniteFreeExtension.norm_p": "norm", "FiniteFreeExtension.norm": "norm",
        "FiniteFreeExtension.mult_matrix": "other",
        "norm_inclusion_check": "inclusion", "transfer_on_functor": "transfer",
        "additivity_check": "additivity", "base_change_check": "other",
        "etale_extension": "other",
    },
    "presets": {name: "build" for name in (
        "base_field", "f9", "etale_preset", "etale_family", "unitary_m2_f3i",
        "unitary_m2_f5split", "degree_one_unitary", "matrix_preset",
        "quaternion_preset", "dual_numbers", "quaternion_f3", "norm_pair",
        "norm_pairs", "additivity_case", "poly_extension_preset")},
    "cli": {"parse_config": "parse", "run_task": "task", "run": "other",
            "ReportRecord.to_json": "record", "ReportRecord.check_line": "record"},
}

# counted and timed at every call, not only where their layer is entered
KERNELS = {"norm_principle": {"omega", "witness", "bruteforce", "anchored"},
           "hilbert90": {"witness", "lambda"},
           "groups": {"enumerate", "presentation", "divisors"},
           "transfers": {"norm", "inclusion", "transfer", "additivity"},
           "presets": {"build"}, "cli": {"parse", "task", "record"}}

AGGREGATE_ONLY = {"rings", "etale"}

# layer metrics: name -> how to read it from the counters
CALL_KEYS = {"rings": ("mul", "add", "inv", "det", "matmul", "poly_mul"),
             "etale": ("sigma", "norm", "unitary_scalars"),
             "algebras": ("mul", "sigma", "nrd", "is_unit", "inv"),
             "norm_principle": ("omega", "witness"),
             "hilbert90": ("witness",),
             "transfers": ("norm",),
             "cli": ("task",)}
TIME_KEYS = {"rings": ("mul", "add", "inv", "det", "matmul", "poly_mul"),
             "algebras": ("mul", "sigma", "nrd", "is_unit", "inv"),
             "groups": ("enumerate", "presentation", "divisors"),
             "norm_principle": ("omega", "witness", "bruteforce", "anchored"),
             "hilbert90": ("witness", "lambda"),
             "transfers": ("norm", "inclusion", "transfer", "additivity"),
             "cli": ("task", "record")}
# measured over the whole process, set-up included
WHOLE_PROCESS = {"presets.build_s": "presets.build", "cli.parse_s": "cli.parse"}


class Tracer:
    def __init__(self):
        self.stack = [[None, 0.0, -1]]      # frames: [layer, child time, span id]
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.selfs = defaultdict(float)
        self.task = [-1]
        self.names = []
        self.span_cols = tuple(array(t) for t in "qqiidd")
        self._ids = itertools.count()
        self._base = None

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn, layer, key, name):
        stack, counts, times, selfs = self.stack, self.counts, self.times, self.selfs
        kernel = key in KERNELS.get(layer, ())
        full = f"{layer}.{key}"
        clock = time.perf_counter
        task = self.task
        ids = self._ids
        if layer in AGGREGATE_ONLY:
            record = None
        else:
            name_id = len(self.names)
            self.names.append(f"{layer}.{name}")
            sid_col, par_col, task_col, name_col, t0_col, t1_col = self.span_cols

            def record(sid, parent_sid, t0, t1):
                sid_col.append(sid)
                par_col.append(parent_sid)
                task_col.append(task[0])
                name_col.append(name_id)
                t0_col.append(t0)
                t1_col.append(t1)

        def traced(*args, **kwargs):
            parent = stack[-1]
            boundary = parent[0] != layer
            if not (boundary or kernel):
                return fn(*args, **kwargs)
            sid = next(ids) if record is not None else parent[2]
            frame = [layer, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                counts[full] += 1
                times[full] += dur
                if boundary:
                    parent[1] += dur
                    selfs[layer] += dur - frame[1]
                else:
                    parent[1] += frame[1]
                if record is not None:
                    record(sid, parent[2], t0, t1)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def observe(self, fn, layer, key):
        """Counters read from results; wraps the traced callable, so the
        caller's frame is still on top of the stack."""
        counts = self.counts
        if layer == "norm_principle" and key == "witness":
            def np_witness(*args, **kwargs):
                w = fn(*args, **kwargs)
                if w.route == "direct":
                    counts["norm_principle.route.direct"] += 1
                elif w.seed is None:
                    counts["norm_principle.route.factored_anchored"] += 1
                else:
                    counts["norm_principle.route.factored_random"] += 1
                return w
            return np_witness
        if layer == "groups" and key == "enumerate":
            unitary = fn.__name__ == "enumerate_unitary"

            def enumerate_(*args, **kwargs):
                v0 = counts["algebras.elements_visited"]
                out = fn(*args, **kwargs)
                visited = counts["algebras.elements_visited"] - v0
                counts["groups.found"] += len(out)
                if unitary:
                    counts["groups.unitary"] += len(out)
                    counts["groups.unitary_visited"] += visited
                return out
            return enumerate_
        if layer == "algebras" and key == "is_unit":
            stack = self.stack

            def is_unit(*args, **kwargs):
                ok = fn(*args, **kwargs)
                if stack[-1][0] == "groups":
                    counts["groups.unit_checks"] += 1
                    counts["groups.units"] += bool(ok)
                return ok
            return is_unit
        return fn

    def count_elements(self, fn):
        counts = self.counts

        def elements_p(*args, **kwargs):
            for p in fn(*args, **kwargs):
                counts["algebras.elements_visited"] += 1
                yield p
        return elements_p

    # -- phases and results -------------------------------------------------
    def start_timed(self):
        """Counters from here on belong to the timed operations."""
        self._base = (dict(self.counts), dict(self.times), dict(self.selfs))

    def metrics(self):
        base_c, base_t, base_s = self._base or ({}, {}, {})
        c = {k: v - base_c.get(k, 0) for k, v in self.counts.items()}
        t = {k: v - base_t.get(k, 0.0) for k, v in self.times.items()}
        s = {k: v - base_s.get(k, 0.0) for k, v in self.selfs.items()}
        out = {}
        for layer, keys in CALL_KEYS.items():
            for k in keys:
                out[f"{layer}.{k}_calls"] = c.get(f"{layer}.{k}", 0)
        for layer, keys in TIME_KEYS.items():
            for k in keys:
                out[f"{layer}.{k}_s"] = t.get(f"{layer}.{k}", 0.0)
        for layer in MODULES:
            out[f"{layer}.self_s"] = s.get(layer, 0.0)
        for name, key in WHOLE_PROCESS.items():
            out[name] = self.times.get(key, 0.0)
        out["algebras.decode_calls"] = c.get("algebras.decode", 0)
        out["algebras.elements_visited"] = c.get("algebras.elements_visited", 0)
        out["groups.enumerate_calls"] = c.get("groups.enumerate", 0)
        out["groups.found"] = c.get("groups.found", 0)
        out["groups.unit_ratio"] = _ratio(c.get("groups.units", 0),
                                          c.get("groups.unit_checks", 0))
        out["groups.unitary_ratio"] = _ratio(c.get("groups.unitary", 0),
                                             c.get("groups.unitary_visited", 0))
        routes = ("direct", "factored_anchored", "factored_random")
        for r in routes:
            out[f"norm_principle.route.{r}"] = c.get(f"norm_principle.route.{r}", 0)
        out["norm_principle.direct_ratio"] = _ratio(
            out["norm_principle.route.direct"],
            sum(out[f"norm_principle.route.{r}"] for r in routes))
        out["trace.self_sum_s"] = sum(s.get(layer, 0.0) for layer in MODULES)
        out["trace.spans"] = len(self.span_cols[0])
        return out

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        cols = self.span_cols
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, par, op, name, t0, t1 in zip(*cols):
                fh.write(f"{sid}\t{par}\t{op}\t{self.names[name]}\t"
                         f"{t0:.9f}\t{t1:.9f}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _resolve(module, qualname):
    owner, _, attr = qualname.rpartition(".")
    if not owner:
        return module, attr
    if not hasattr(module, owner):         # a class of another module
        module = next(m for m in MODULES.values() if hasattr(m, owner))
    return getattr(module, owner), attr


def install() -> Tracer:
    """Wrap every point in POINTS; returns the tracer that collects."""
    tracer = Tracer()
    replaced = {}                       # id of original function -> wrapper
    for layer, points in POINTS.items():
        module = MODULES[layer]
        for qualname, key in points.items():
            holder, attr = _resolve(module, qualname)
            raw = vars(holder)[attr] if isinstance(holder, type) else getattr(holder, attr)
            fn = raw.fget if isinstance(raw, property) else raw
            wrapped = tracer.observe(tracer.wrap(fn, layer, key, qualname),
                                     layer, key)
            if isinstance(raw, property):
                setattr(holder, attr, property(wrapped, raw.fset, raw.fdel,
                                               raw.__doc__))
            elif isinstance(holder, type):
                setattr(holder, attr, wrapped)
            else:
                replaced[id(raw)] = wrapped
    algebras.Algebra.elements_p = tracer.count_elements(algebras.Algebra.elements_p)
    # module-level functions are also bound by `from .x import f` elsewhere
    import azunorm
    for module in list(MODULES.values()) + [azunorm]:
        for name, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, name, replaced[id(value)])
    return tracer
