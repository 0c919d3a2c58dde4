"""Time the modular route of two source trees layer by layer, alternating.

    python tools/layer_timing.py OLD_SRC NEW_SRC [--seeds 1301] [--rounds 4] [--repeat 7]

OLD_SRC and NEW_SRC are ``src`` directories or checkouts holding one.  At the
timed domain-fuzz points of each seed (this checkout's ``perfbench``, imported
read-only) each tree, in a process of its own, times the best of --repeat calls
of ``qpochhammer_modular``, of ``P_minus`` at the point the modular route hands
it and, where P takes its ray, of the first call that ``_de_sum`` makes of P's
weighted integrand: the full grid of its first level, 289 nodes at level 4 or,
where the admissible arc sizes it, 145 to 2,305.  As a control it also times
the direct ``qcore.qpochhammer`` call of each point, a layer that no change to
P touches; its x and q are complex, so it also stays on the complex product
when the real one changes: a median ratio away from 1 there is the host's
drift between the trees, not the change, and bounds what the other ratios can
show.  The trees alternate for --rounds rounds, each point keeping its best
time.  A second block times q-to-one's timed calls of the same seeds the same
way: ``qpochhammer_modular`` and the direct ``qpochhammer`` at fixed x (real
x and q, the product that runs in float64) and ``P_minus`` as x -> 1.  Per layer it
prints the quartiles of each tree's times (us) and the median of the per-point
ratio new/old, and after the domain-fuzz block each tree's histogram of first
levels.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


#: the layers of each block, in the order measure() lists their times, and
#: the layer of each q-to-one route it times
DOMAIN_FUZZ = ("qpochhammer_modular", "qpochhammer (control)", "P_minus",
               "P kernel, first call")
Q_TO_ONE = {"modular": "fixed-x qpochhammer_modular", "direct": "fixed-x qpochhammer (real)",
            "P": "x -> 1 P_minus"}
LAYERS = DOMAIN_FUZZ + tuple(Q_TO_ONE.values())


def measure(src: str, seeds: list[int], repeat: int) -> dict:
    """Per layer, the best time in seconds at every point (None: no ray),
    and the first level of every ray."""
    sys.path[:0] = [src, PERFBENCH]
    import workloads

    qcore, raysum, modularity, errors = (
        importlib.import_module(f"qmod.{mod}") for mod in ("qcore", "raysum", "modularity", "errors")
    )
    qm = types.SimpleNamespace(qcore=qcore, modularity=modularity, raysum=raysum,
                               ModularPoint=qcore.ModularPoint)
    refusals = (errors.DomainError, errors.ConvergenceError)  # timed like values

    def best(f, *args) -> float:
        seconds = math.inf
        for _ in range(repeat):
            start = time.perf_counter()
            with contextlib.suppress(*refusals):
                f(*args)
            seconds = min(seconds, time.perf_counter() - start)
        return seconds

    def calls_of(module, attr: str, call) -> list[tuple]:
        """The arguments of every call of module.attr during call()."""
        seen, real = [], getattr(module, attr)
        setattr(module, attr, lambda *args: seen.append(args) or real(*args))
        try:
            with contextlib.suppress(*refusals):
                call()
        finally:
            setattr(module, attr, real)
        return seen

    times: list[list[float | None]] = [[] for _ in LAYERS]
    levels = []
    for seed in seeds:
        for _, calls in workloads.DomainFuzz(seed, qm).timed:
            route_args = {route: args for route, *_, args, _ in calls}
            point = route_args["modular"][0]
            times[0].append(best(modularity.qpochhammer_modular, point))
            times[1].append(best(qcore.qpochhammer, *route_args["direct"]))
            p_point = (calls_of(modularity, "P_minus",
                                lambda: modularity.qpochhammer_modular(point)) or [(point,)])[0][0]
            times[2].append(best(raysum.P_minus, p_point))
            de_sums = calls_of(raysum, "_de_sum", lambda: raysum.P_minus(p_point))
            if not de_sums:
                times[3].append(None)
                continue
            # the first level is _de_sum's last int argument, after a
            # tolerance in trees whose _de_sum still takes one; a tree whose
            # _de_sum takes no first level starts every sum with
            # weighted(BATCH_LEVELS), the full grid of that level
            weighted, *rest = de_sums[0]
            first = [a for a in rest if isinstance(a, int)]
            args = (first[-1], True) if first else (raysum.BATCH_LEVELS,)
            levels.append(args[0])
            times[3].append(best(weighted, *args))
        for _, calls in workloads.QToOne(seed, qm).timed:
            for route, _, module, attr, args, _ in calls:
                if route in Q_TO_ONE:
                    layer = LAYERS.index(Q_TO_ONE[route])
                    times[layer].append(best(getattr(module, attr), *args))
    return {"times": times, "levels": levels}


def _quartiles(values: list[float]) -> tuple[float, ...]:
    v = sorted(values)
    return tuple(v[round(f * (len(v) - 1))] for f in (0.25, 0.5, 0.75))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--measure":
        _, src, seeds, repeat = argv
        json.dump(measure(src, [int(s) for s in seeds.split(",")], int(repeat)), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seeds", default="1301")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    trees = [os.path.abspath(path) for path in (args.old, args.new)]
    trees = [t + "/src" if os.path.isdir(t + "/src/qmod") else t for t in trees]
    best: list = [None, None]
    levels: list = [None, None]
    for r in range(args.rounds):
        for side in (0, 1) if r % 2 == 0 else (1, 0):  # alternate which tree runs first
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--measure",
                 trees[side], args.seeds, str(args.repeat)],
                check=True, capture_output=True, text=True,
            )
            out = json.loads(proc.stdout)
            times, levels[side] = out["times"], out["levels"]
            best[side] = times if best[side] is None else [
                [a if b is None else min(a, b) for a, b in zip(kept, run)]
                for kept, run in zip(best[side], times)
            ]
    layers = list(zip(LAYERS, *best))
    print(f"{len(best[0][0])} timed domain-fuzz points, seeds {args.seeds}, "
          f"best of {args.repeat} calls x {args.rounds} rounds")
    _print_layers(layers[: len(DOMAIN_FUZZ)])
    hists = [dict(sorted(collections.Counter(side).items())) for side in levels]
    print(f"  first DE level of P's ray, points per level: old {hists[0]} | new {hists[1]}")
    print(f"timed q-to-one calls, seeds {args.seeds}")
    _print_layers(layers[len(DOMAIN_FUZZ) :])
    return 0


def _print_layers(layers: list) -> None:
    for name, old, new in layers:
        pairs = [(a, b) for a, b in zip(old, new) if a is not None and b is not None]
        cols = ["%7.1f %7.1f %7.1f" % _quartiles([1e6 * p[side] for p in pairs]) for side in (0, 1)]
        print(f"  {name:<27} ({len(pairs)} points) old q1/med/q3 us {cols[0]} | new {cols[1]}"
              f" | median ratio {_quartiles([b / a for a, b in pairs])[1]:.3f}")


if __name__ == "__main__":
    sys.exit(main())
