"""Time two source trees layer by layer in one interpreter, paired point by point.

    python tools/layer_timing.py OLD_SRC NEW_SRC [--seeds 1301] [--repeat 7]

OLD_SRC and NEW_SRC are ``src`` directories or checkouts holding one.  Both
trees' ``qmod`` load into this interpreter, as the packages ``qmod_old`` and
``qmod_new``, and this checkout's ``perfbench`` (imported read-only) builds
each seed's domain-fuzz and q-to-one inputs once for each tree.  At every
timed point the two trees' calls of a layer alternate, --repeat times each
(old first on even repeats, new first on odd ones), and each tree keeps its
best time.  A drift of the host's speed then falls on both sides of every
pair, where trees timed in processes of their own could land in different
speed modes.

The layers.  At the timed domain-fuzz points: ``qpochhammer_modular``; the
direct ``qcore.qpochhammer`` of each point, whose x and q are complex and whose
products are short; ``P_minus`` at the point the modular route hands it; and,
where P takes its ray, the first call that ``_de_sum`` makes of P's weighted
integrand, the full grid of its first level (289 nodes at level 4 or, where
the admissible arc sizes it, 145 to 2,305).  At q-to-one's timed calls:
``qpochhammer_modular`` and the direct ``qpochhammer`` at fixed x (real x and
q), and ``P_minus`` as x -> 1; and P's series, ``_p_series``, at the P points
of both (the point the modular route hands ``P_minus``, and the x -> 1
point), one layer per number of terms N it takes there (as the old tree
takes it), one for the points it rejects for the ray, and the sums N <= 4
and N >= 5.  A layer that a change does not touch is its control: its ratio
shows what the pairing leaves of the host's drift.

Per layer it prints the quartiles of each tree's times (us), and the median of
the per-point ratios new/old with a bootstrap 95% interval (2,000 resamples
of the points); after the domain-fuzz block, each tree's histogram of first
DE levels.  Resolution (seed 1301, --repeat 7, three runs each, CPython
3.11.7, numpy 2.4.6, a shared 2-core machine): a tree against a copy of
itself read every median ratio within 0.997-1.006 and every interval within
0.994-1.011; a copy with one extra ``_a_values((1,), z)`` call per
``_p_series`` read 1.08-1.09 on q-to-one's modular route and 1.11-1.13 on
``P_minus`` as x -> 1, its intervals clear of 1.  The P-series layers
(seed 1301, three runs each): a tree against a copy of itself read
0.997-1.006 for N <= 4 (intervals within 0.993-1.010) and 0.994-1.009 for
the rejects (within 0.986-1.023), where each N alone, with 3 to 49 points,
reads within 0.978-1.011; a copy with one extra bound (about 0.25 us) per
``_p_series`` read 1.020-1.039 for N <= 4, 1.057-1.072 for the rejects and
1.014-1.015 for q-to-one's modular route, every interval clear of 1.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import importlib.util
import math
import os
import sys
import time
import types

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

#: the layers of each block, and the layer of each q-to-one route
DOMAIN_FUZZ = ("qpochhammer_modular", "qpochhammer (complex)", "P_minus",
               "P kernel, first call")
Q_TO_ONE = {"modular": "fixed-x qpochhammer_modular", "direct": "fixed-x qpochhammer (real)",
            "P": "x -> 1 P_minus"}
#: P's series at q-to-one's P points, by its number of terms N, and where
#: it rejects them for the ray
P_SERIES = tuple(f"P series, N = {n}" for n in range(1, 13)) + ("P series, reject",)
P_SERIES_SUMS = {"P series, N <= 4": range(1, 5), "P series, N >= 5": range(5, 13)}
RESAMPLES = 2000


def load_tree(src: str, name: str) -> types.SimpleNamespace:
    """The qmod package under src, imported as the package ``name``, as the
    namespace perfbench's workloads take."""
    package = os.path.join(src, "qmod")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    qm = types.SimpleNamespace(**{
        mod: importlib.import_module(f"{name}.{mod}")
        for mod in ("errors", "qcore", "raysum", "modularity")
    })
    qm.ModularPoint = qm.qcore.ModularPoint
    return qm


def _calls_of(qm, module, attr: str, call) -> list[tuple]:
    """The arguments of every call of module.attr during call()."""
    seen, real = [], getattr(module, attr)
    setattr(module, attr, lambda *args: seen.append(args) or real(*args))
    try:
        with contextlib.suppress(qm.errors.DomainError, qm.errors.ConvergenceError):
            call()
    finally:
        setattr(module, attr, real)
    return seen


def _p_kernel(qm, p_point):
    """P's weighted integrand and the arguments of its first call, with the
    first level, or None where P takes no ray."""
    de_sums = _calls_of(qm, qm.raysum, "_de_sum", lambda: qm.raysum.P_minus(p_point))
    if not de_sums:
        return None
    # the first level is _de_sum's last int argument, after a tolerance in
    # trees whose _de_sum still takes one; a tree whose _de_sum takes no
    # first level starts every sum with weighted(BATCH_LEVELS), the full
    # grid of that level
    weighted, *rest = de_sums[0]
    first = [a for a in rest if isinstance(a, int)]
    args = (first[-1], True) if first else (qm.raysum.BATCH_LEVELS,)
    return weighted, args, args[0]


def _series_length(qm, point) -> int | None:
    """The number N of terms P's series takes at point, None where it
    rejects the point for the ray: the A_n it forms, drawn from _a_terms
    or, in trees before it, asked of _a_values."""
    drawn = []
    if hasattr(qm.raysum, "_a_terms"):
        real = qm.raysum._a_terms

        def spy(*args):
            for value in real(*args):
                drawn.append(value)
                yield value

        qm.raysum._a_terms = spy
        try:
            value = qm.raysum._p_series(point)
        finally:
            qm.raysum._a_terms = real
    else:
        real = qm.raysum._a_values
        qm.raysum._a_values = lambda ns, z: drawn.extend(ns) or real(ns, z)
        try:
            value = qm.raysum._p_series(point)
        finally:
            qm.raysum._a_values = real
    return None if value is None else len(drawn)


def _sort_p_series(qm, sides: list) -> None:
    """Move both trees' _p_series calls into the layer of the number of
    terms N the series takes at each point, as qm (the old tree) takes it,
    so that the two trees time the same points in each layer."""
    pairs = zip(*(side["calls"].pop("P series") for side in sides))
    for calls in pairs:
        with contextlib.suppress(qm.errors.DomainError, qm.errors.ConvergenceError):
            n = _series_length(qm, calls[0][1][0])
            for side, call in zip(sides, calls):
                side["calls"][P_SERIES[-1] if n is None else P_SERIES[n - 1]].append(call)


def layer_calls(qm, workloads, seed: int) -> dict:
    """Per layer, the (function, args) of every timed point, None where the
    layer has no call there, and the first DE level of every ray."""
    calls: dict = {layer: [] for layer in DOMAIN_FUZZ + tuple(Q_TO_ONE.values()) + P_SERIES}
    calls["P series"] = []  # sorted by N later (_sort_p_series)
    levels = []
    for _, timed in workloads.DomainFuzz(seed, qm).timed:
        args = {route: a for route, *_, a, _ in timed}
        point = args["modular"][0]
        calls[DOMAIN_FUZZ[0]].append((qm.modularity.qpochhammer_modular, (point,)))
        calls[DOMAIN_FUZZ[1]].append((qm.qcore.qpochhammer, args["direct"]))
        handed = _calls_of(qm, qm.modularity, "P_minus",
                           lambda: qm.modularity.qpochhammer_modular(point))
        p_point = handed[0][0] if handed else point
        calls[DOMAIN_FUZZ[2]].append((qm.raysum.P_minus, (p_point,)))
        kernel = _p_kernel(qm, p_point)
        calls[DOMAIN_FUZZ[3]].append(kernel and kernel[:2])
        if kernel:
            levels.append(kernel[2])
    for _, timed in workloads.QToOne(seed, qm).timed:
        for route, _, module, attr, args, _ in timed:
            if route in Q_TO_ONE:
                calls[Q_TO_ONE[route]].append((getattr(module, attr), args))
            if route == "modular":
                p_points = [a[0] for a in _calls_of(qm, qm.modularity, "P_minus",
                                                    lambda: module.qpochhammer_modular(*args))]
            else:
                p_points = [args[0]] if route == "P" else []
            calls["P series"] += [(qm.raysum._p_series, (p,)) for p in p_points]
    return {"calls": calls, "levels": levels}


def paired_best(old_call, new_call, refusals: tuple, repeat: int) -> tuple[float, float]:
    """The best of repeat timed calls of each tree, alternating which goes
    first."""
    best = [math.inf, math.inf]
    pair = ((0, old_call), (1, new_call))
    for r in range(repeat):
        for side, (fn, args) in pair if r % 2 == 0 else pair[::-1]:
            start = time.perf_counter()
            with contextlib.suppress(*refusals):  # a refusal is timed like a value
                fn(*args)
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def median_ratio(old: list[float], new: list[float]) -> tuple[float, float, float]:
    """The median of the per-point ratios new/old and its bootstrap 95%
    interval over the points."""
    ratios = np.array(new) / np.array(old)
    rng = np.random.default_rng(0)
    resampled = np.median(ratios[rng.integers(0, len(ratios), (RESAMPLES, len(ratios)))], axis=1)
    low, high = np.percentile(resampled, [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high)


def _quartiles(values: list[float]) -> tuple[float, ...]:
    v = sorted(values)
    return tuple(v[round(f * (len(v) - 1))] for f in (0.25, 0.5, 0.75))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seeds", default="1301")
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    trees = [os.path.abspath(path) for path in (args.old, args.new)]
    trees = [t + "/src" if os.path.isdir(t + "/src/qmod") else t for t in trees]
    qms = [load_tree(src, name) for src, name in zip(trees, ("qmod_old", "qmod_new"))]
    refusals = tuple(e for qm in qms for e in (qm.errors.DomainError, qm.errors.ConvergenceError))
    sys.path.insert(0, PERFBENCH)
    workloads = importlib.import_module("workloads")
    seeds = [int(s) for s in args.seeds.split(",")]
    times: dict = collections.defaultdict(lambda: ([], []))
    levels: list = [[], []]
    gc.collect()
    gc.disable()
    try:
        for seed in seeds:
            sides = [layer_calls(qm, workloads, seed) for qm in qms]
            _sort_p_series(qms[0], sides)
            for side, out in enumerate(sides):
                levels[side] += out["levels"]
            for layer, old_calls in sides[0]["calls"].items():
                for old_call, new_call in zip(old_calls, sides[1]["calls"][layer]):
                    if old_call and new_call:
                        for side, t in enumerate(paired_best(old_call, new_call, refusals,
                                                             args.repeat)):
                            times[layer][side].append(t)
    finally:
        gc.enable()
    print(f"{len(times[DOMAIN_FUZZ[0]][0])} timed domain-fuzz points, seeds {args.seeds}, "
          f"best of {args.repeat} paired calls")
    _print_layers(times, DOMAIN_FUZZ)
    hists = [dict(sorted(collections.Counter(side).items())) for side in levels]
    print(f"  first DE level of P's ray, points per level: old {hists[0]} | new {hists[1]}")
    print(f"timed q-to-one calls, seeds {args.seeds}")
    _print_layers(times, tuple(Q_TO_ONE.values()))
    print("  _p_series at their P points, by the number of terms N it takes")
    for name, ns in P_SERIES_SUMS.items():
        for side in (0, 1):
            times[name][side].extend(t for n in ns for t in times[P_SERIES[n - 1]][side])
    _print_layers(times, P_SERIES + tuple(P_SERIES_SUMS))
    return 0


def _print_layers(times: dict, layers: tuple) -> None:
    for name in layers:
        old, new = times[name]
        if not old:
            continue
        cols = ["%7.1f %7.1f %7.1f" % _quartiles([1e6 * t for t in side]) for side in (old, new)]
        ratio, low, high = median_ratio(old, new)
        print(f"  {name:<27} ({len(old)} points) old q1/med/q3 us {cols[0]} | new {cols[1]}"
              f" | median ratio {ratio:.3f} [{low:.3f}, {high:.3f}]")


if __name__ == "__main__":
    sys.exit(main())
