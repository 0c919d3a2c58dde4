"""Run one workload of the qmod benchmark and print its metrics.

    python3 perfbench/run.py --workload domain-fuzz --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; qmod is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object carrying every
end-to-end metric of definitions.END_TO_END; with ``--trace 1`` it carries
every per-layer metric of definitions.PER_LAYER.  The lines before it report
the per-workload metrics of definitions.REPORTED, the two known-wrong
reproducers and the run record.  The run record and, for traced runs, the
spans are also written under ``perfbench/out/``; oracle values are cached in
``perfbench/.cache/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import types

import numpy as np

import calibrate
import definitions
import oracle
import outcome
import selfcheck
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 11
IMPORT_REPEATS = 3


def _median(values):
    return statistics.median(values) if values else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def fresh_process_seconds(code: str, env: dict) -> float:
    """Median wall time of SETUP_REPEATS fresh interpreters running code,
    each scaled by calibration samples taken just before and after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate.sample()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        dt = time.perf_counter() - t0
        times.append(dt / calibrate.slowdown([before, calibrate.sample()]))
    return _median(times)


def import_seconds(env: dict) -> tuple[float, float]:
    """Median cumulative import time of qmod.cli and of scipy.special, from
    ``python -X importtime``."""
    cli, special = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qmod.cli"],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True,
            timeout=120,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) * 1e-6
        cli.append(cumulative.get("qmod.cli", 0.0))
        special.append(cumulative.get("scipy.special", 0.0))
    return _median(cli), _median(special)


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_line_count() -> int:
    pkg = os.path.join(SRC, "qmod")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def measure(wl, seconds: float, tracer=None):
    """Whole passes until ``seconds`` have gone by; at least one.

    Every call's time is divided by the slowdown (calibrate.py) that the
    calibration samples taken around it report: the median of the sample
    just before it and its two neighbours.  An op's time is the sum of its
    calls in the pass.  Returns (calls, [(op index, seconds)], [pass seconds],
    the run's median slowdown).
    """
    calls, op_seconds, passes, all_samples = [], [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        start, cal = len(calls), []
        wl.run_pass(calls, cal, tracer)
        samples = [s for _, s in cal]
        all_samples += samples
        ops: dict[int, float] = {}
        for k, (first, _) in enumerate(cal):
            last = cal[k + 1][0] if k + 1 < len(cal) else len(calls)
            slow = calibrate.slowdown(samples[max(k - 1, 0):k + 2])
            for j in range(max(first, start), last):
                c = calls[j]._replace(seconds=calls[j].seconds / slow)
                calls[j] = c
                if c.op >= 0:
                    ops[c.op] = ops.get(c.op, 0.0) + c.seconds
        op_seconds += ops.items()
        passes.append(sum(ops.values()))
        if time.perf_counter() >= t_end:
            return calls, op_seconds, passes, calibrate.slowdown(all_samples)


def op_latencies(op_seconds) -> list:
    """Each distinct op's median latency over the run's passes."""
    per_op: dict[int, list] = {}
    for index, seconds in op_seconds:
        per_op.setdefault(index, []).append(seconds)
    return [statistics.median(v) for v in per_op.values()]


def summarize(wl, census, classified, op_seconds, passes):
    """End-to-end metrics, per-workload metrics, outcome counts.

    Latencies come from the timed calls (``classified``); ok_share, the
    fail and wrong shares and the relative errors from the census.
    """
    ok = sum(c[2] == "ok" for c in census)
    in_calls = sum(c[1] for c in classified)
    ops = op_latencies(op_seconds)
    e2e = {
        "op_p50_ms": 1e3 * _median(ops),
        "op_p75_ms": 1e3 * _pct(ops, 75),
        "ok_share": ok / len(census),
    }
    rels = [math.log10(max(c[3], 1e-17)) for c in census
            if c[2] == "ok" and c[3] is not None]
    rep = {
        "ok_per_s": sum(c[2] == "ok" for c in classified) / in_calls,
        "pass_s": _median(passes),
        "fail_share": 1.0 - e2e["ok_share"],
        "wrong_share": sum(c[2] == "wrong" for c in census) / len(census),
        "rel_err_p95_log10": _pct(rels, 95) if rels else None,
    }
    routes: dict[str, list] = {}
    for route, seconds, *_ in classified:
        routes.setdefault(route, []).append(seconds)
    for route, name in (("modular", "modular"), ("direct", "direct"), ("P", "P")):
        if route in routes:
            rep[f"{name}_p50_ms"] = 1e3 * _median(routes[route])
            rep[f"{name}_p95_ms"] = 1e3 * _pct(routes[route], 95)
    if "cold_eval" in routes:
        rep["cold_eval_p50_s"] = _median(routes["cold_eval"])
        rep["check_pass_s"] = rep["pass_s"]
    counts = {"census": outcome_counts(census), "timed": outcome_counts(classified)}
    if wl.name == "q-to-one":
        rep["crossover_log10_alpha"] = crossover(wl, classified)
        by_decade: dict[int, dict] = {}
        for route, _, kind, _, op in census:
            if route == "P":
                per = by_decade.setdefault(math.floor(math.log10(wl.ops[op][0][1])), {})
                per[kind] = per.get(kind, 0) + 1
        counts["census_P_by_log10_alpha_decade"] = dict(sorted(by_decade.items()))
    return e2e, rep, counts


def outcome_counts(classified) -> dict:
    """{route: {outcome: calls}}"""
    counts: dict[str, dict] = {}
    for route, _, kind, _, _ in classified:
        per = counts.setdefault(route, {})
        per[kind] = per.get(kind, 0) + 1
    return counts


def crossover(wl, classified):
    """Lower edge of the highest quarter-decade alpha bin where the median
    modular latency is at most the median direct latency on fixed-x."""
    bins: dict[int, dict[str, list]] = {}
    for route, seconds, _, _, op in classified:
        label = wl.ops[op][0]
        if label[0] != "fixed-x":
            continue
        b = math.floor(4 * math.log10(label[1]))
        bins.setdefault(b, {}).setdefault(route, []).append(seconds)
    won = [b for b, r in bins.items()
           if "modular" in r and "direct" in r
           and _median(r["modular"]) <= _median(r["direct"])]
    return max(won) / 4 if won else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qmod", "__init__.py")):
        print(f"perfbench: no qmod sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in definitions.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(definitions.WORKLOADS)}")
    load_start = os.getloadavg()

    qm = types.SimpleNamespace(**{
        mod: importlib.import_module(f"qmod.{mod}")
        for mod in ("errors", "qcore", "raysum", "modularity", "cli")
    })
    qm.ModularPoint = qm.qcore.ModularPoint

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cache = oracle.Cache(os.path.join(HERE, ".cache", "oracle.json"))
    outcome.install()

    make = {
        "domain-fuzz": lambda seed: workloads.DomainFuzz(seed, qm),
        "q-to-one": lambda seed: workloads.QToOne(seed, qm),
        "cli-check": lambda seed: workloads.CliCheck(seed, qm, ROOT, env),
    }[args.workload]

    problems = selfcheck.check_definitions(ROOT)
    problems += selfcheck.check_seeded(lambda s: make(s).inputs())
    problems += selfcheck.check_classifier(qm)
    problems += selfcheck.check_oracle(qm, cache)
    report = selfcheck.reproducers(qm, cache)

    errors = (qm.errors.DomainError, qm.errors.ConvergenceError)
    wl = make(args.seed)
    # the census also warms up every route before timing starts
    census_calls = []
    if args.trace == 0:
        wl.census(census_calls)
    else:
        census_tracer = tracing.Tracer()
        tracing.install(census_tracer, qm.qcore, qm.raysum, qm.modularity, qm.cli)
        try:
            wl.census(census_calls, census_tracer)
        finally:
            census_tracer.close()
    census = workloads.classify(census_calls, cache, errors)
    if args.trace == 0:
        setup_s = fresh_process_seconds(wl.setup_code, env)
        calls, op_seconds, passes, slowdown = measure(wl, args.seconds)
    else:
        if isinstance(wl, workloads.CliCheck):
            # cold evals run in subprocesses, out of the tracer's sight; leaving
            # them out of both halves keeps the overhead comparison like for like
            wl.cold_evals = False
        calls, op_seconds, passes, slowdown = measure(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer, qm.qcore, qm.raysum, qm.modularity, qm.cli)
        try:
            t_calls, t_ops, t_passes, t_slowdown = measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.close()
        layers = tracing.per_layer(tracer, len(t_ops), len(t_passes))
        # what fails shows in the census; the timed calls are chosen not to
        census_layers = tracing.per_layer(census_tracer, 1, 1)
        for name in ("raysum.P_minus.fail_share", "qcore.qpochhammer.fail_share"):
            layers[name] = census_layers[name]
        layers["cli.import_s"], layers["cli.import_scipy_special_s"] = (
            import_seconds(env))
        # span times are as measured; scale them like every other time
        for name, (unit, *_) in definitions.PER_LAYER.items():
            if unit in ("us", "ms", "s"):
                layers[name] /= t_slowdown
        layers["trace.overhead_share"] = (
            _median(op_latencies(t_ops)) / _median(op_latencies(op_seconds)) - 1.0)
        calls += t_calls
    classified = workloads.classify(calls, cache, errors)
    cache.save()
    e2e, rep, counts = summarize(wl, census, classified, op_seconds, passes)

    attempted = len(classified)
    failed = attempted - sum(c[2] == "ok" for c in classified)
    # a wrong value where qmod is known to work is a broken program
    wrong = sum(c[2] == "wrong" for c in classified)
    if wrong:
        problems.append(f"{wrong} timed calls returned wrong values")
    if args.trace == 0:
        e2e["setup_s"] = setup_s
        metrics = {k: {"value": e2e[k], "unit": v[0]}
                   for k, v in definitions.END_TO_END.items()}
    else:
        metrics = {k: {"value": layers[k], "unit": v[0]}
                   for k, v in definitions.PER_LAYER.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__,
        "mpmath": oracle.mp.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "git_commit": git_commit(), "src_qmod_lines": src_line_count(),
        "deadline_s": definitions.DEADLINE_S, "passes": len(passes),
        "slowdown": slowdown, "census_calls": len(census),
        "timed_calls": attempted, "ops": len(op_seconds), "outcomes": counts,
        "self_check_problems": problems,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "reported": rep, "metrics": metrics}, fh,
                  indent=1)
    if args.trace == 1:
        tracer.dump(stem + "-spans.jsonl")

    for problem in problems:
        print(f"SELFCHECK FAILED {problem}")
    report += [
        f"METRIC {args.workload} {name} "
        f"{'n/a' if rep.get(name) is None else repr(rep[name])} "
        f"{definitions.REPORTED_UNITS[name]}"
        for name in definitions.REPORTED[args.workload]
    ]
    report.append(f"OUTCOMES {json.dumps(counts, sort_keys=True)}")
    report.append(f"RECORD {json.dumps(record, sort_keys=True)}")
    print("\n".join(report))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
