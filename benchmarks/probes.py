"""Per-operation probes of the ring (L0) and algebra (L1) layers.

Each probe times one operation over a fixed list of inputs: ring add and
mul over every ordered pair of the ring, ring inv over every unit, and the
algebra operations over a fixed stride of elements in code order.  The
inputs are warmed once, then timed in several rounds; a probe reports the
median round, per operation, with the bare loop's cost taken out.
"""

from __future__ import annotations

import statistics
import time

from azunorm import presets
from azunorm.rings import PrimeField, Zmod

ROUND_S = 0.02
ROUNDS = 5


def _per_op(fn, args):
    """Median seconds per call of fn over args (a list of tuples)."""
    clock = time.perf_counter

    def round_once():
        t0 = clock()
        for a in args:
            fn(*a)
        t1 = clock()
        for a in args:
            pass
        return (t1 - t0) - (clock() - t1)

    first = round_once()              # warms caches and sizes the rounds
    repeat = max(1, int(ROUND_S / max(first, 1e-6)))
    rounds = []
    for _ in range(ROUNDS):
        total = 0.0
        for _ in range(repeat):
            total += round_once()
        rounds.append(total / repeat)
    return max(statistics.median(rounds), 0.0) / len(args)


def ring_probes():
    rings = {"F5": PrimeField(5), "Z9": Zmod(9),
             "f3i": presets.etale_preset("f3i"),
             "f5split": presets.etale_preset("f5split"),
             "f9gen": presets.etale_preset("f9gen")}
    out = {}
    for name, r in rings.items():
        elems = [r.decode(c) for c in range(r.size)]
        pairs = [(a, b) for a in elems for b in elems]
        units = [(a,) for a in elems if r.is_unit_p(a)]
        out[f"rings.mul_ns.{name}"] = 1e9 * _per_op(r.mul_p, pairs)
        out[f"rings.add_ns.{name}"] = 1e9 * _per_op(r.add_p, pairs)
        out[f"rings.inv_ns.{name}"] = 1e9 * _per_op(r.inv_p, units)
    return out


def _strided(alg, count):
    step = max(1, alg.size // count)
    return [alg.decode(c) for c in range(0, alg.size, step)][:count]


def algebra_probes():
    out = {}
    cases = {"m2-f3i": (presets.unitary_m2_f3i("identity"),
                        ("mul", "sigma", "nrd", "is_unit")),
             "m2-f5split": (presets.unitary_m2_f5split(), ("mul", "sigma")),
             "quat-f3": (presets.quaternion_preset(3)[1], ("mul", "nrd"))}
    for name, (awi, ops) in cases.items():
        alg = awi.algebra
        elems = _strided(alg, 200)
        singles = [(a,) for a in elems]
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        fns = {"mul": (alg.mul_p, pairs), "sigma": (awi.sigma_p, singles),
               "nrd": (awi.nrd_p, singles), "is_unit": (alg.is_unit_p, singles)}
        for op in ops:
            fn, args = fns[op]
            out[f"algebras.{op}_us.{name}"] = 1e6 * _per_op(fn, args)
    return out


def run_all():
    return {**ring_probes(), **algebra_probes()}
