"""What the benchmark measures and why: workloads, metrics and the rationale
that ties each per-layer metric to the end-to-end metric it should move.

BENCHMARK.json repeats the workload reasons and the metric names, units and
bounds; ``selfcheck.check_definitions`` fails the run when the two disagree.
"""

WORKLOADS = {
    "domain-fuzz": (
        "whole transformation domain at moderate |q|: the census shows refusals "
        "and the Im nu < 0 wrong values in ok_share; on the timed points P_minus "
        "is ~99% of the modular route"
    ),
    "q-to-one": (
        "the paper's regime tau = i*alpha, alpha down to 1e-6: the census shows "
        "P_minus failing below alpha ~ 2e-5; timed direct product cost grows "
        "like 1/alpha, so qcore and raysum changes show"
    ),
    "cli-check": (
        "the user-facing CLI: every check grid and sweep in process plus cold "
        "qmod eval subprocesses, so import time, CLI dispatch and qcore's "
        "short series show"
    ),
}

#: name -> (unit, better, bound, definition).  Every workload reports every
#: metric.  An op is one input point through all its timed routes on
#: domain-fuzz and q-to-one, and one in-process pass over every check grid
#: and sweep on cli-check.  An op's latency is its median over the run's
#: passes, and the percentiles are taken over the distinct ops; cli-check has
#: one op, so its p75 is its p50.  The upper percentile is p75 because above it q-to-one's
#: ops are mostly the few x -> 1 points where P_minus stalls, and how many of
#: those a seed draws moved p90 and p95 by 20-30% between seeds.  Times are
#: scaled to the reference CPU speed of calibrate.py.
END_TO_END = {
    "setup_s": (
        "s", "lower", 0.25,
        "median wall time of a fresh process that imports qmod and makes one "
        "untimed warm-up call per route the workload uses",
    ),
    "op_p50_ms": ("ms", "lower", 0.2, "median op latency"),
    "op_p75_ms": ("ms", "lower", 0.24, "75th percentile op latency"),
    "ok_share": (
        "ratio", "higher", 0.1,
        "census calls (every generated input once, timed or not) within 1e-8 "
        "of the mpmath oracle (PASS points and verified sweep rows on "
        "cli-check) over census calls",
    ),
}

#: name -> (unit, end-to-end metric it should move, workloads it shows on).
#: Measured by the traced run; a layer that a workload never calls reads 0.
#: The two fail shares are read from the traced census, every other metric
#: from the traced timed passes.  Lower is better for every one of them.
PER_LAYER = {
    "specialfns.fn_f.calls_per_op": (
        "count", "modular_p50_ms, P_p50_ms", "domain-fuzz, q-to-one"),
    "specialfns.fn_f.us_per_call": (
        "us", "modular_p50_ms, P_p50_ms", "domain-fuzz, q-to-one"),
    "specialfns.dilog.us_per_call": ("us", "modular_p50_ms", "domain-fuzz"),
    "specialfns.log_gamma.us_per_call": ("us", "modular_p50_ms", "domain-fuzz"),
    "stability.sin_ratio.calls_per_op": (
        "count", "modular_p50_ms, P_p50_ms", "domain-fuzz, q-to-one"),
    "stability.sin_ratio.us_per_call": (
        "us", "modular_p50_ms, P_p50_ms", "domain-fuzz, q-to-one"),
    "raysum.P_minus.ms_p50": (
        "ms", "modular_p50_ms, P_p50_ms, check_pass_s", "all three"),
    "raysum.P_minus.ms_p95": (
        "ms", "modular_p95_ms, P_p95_ms, check_pass_s", "all three"),
    "raysum.P_minus.share": ("ratio", "modular_p50_ms", "domain-fuzz"),
    "raysum.P_minus.evals_p50": (
        "count", "P_p50_ms, modular_p50_ms", "q-to-one, domain-fuzz"),
    "raysum.P_minus.evals_p95": (
        "count", "P_p95_ms, modular_p95_ms", "q-to-one, domain-fuzz"),
    "raysum.P_minus.quad_self_share": (
        "ratio", "modular_p50_ms, P_p50_ms", "domain-fuzz, q-to-one"),
    "raysum.P_minus.fail_share": ("ratio", "fail_share", "q-to-one"),
    "raysum.choose_ray.us_per_call": ("us", "modular_p50_ms", "domain-fuzz"),
    "raysum.big_G.us_per_call": ("us", "modular_p50_ms", "domain-fuzz"),
    "qcore.qpochhammer.ms_p50": (
        "ms", "direct_p50_ms, crossover_log10_alpha",
        "q-to-one (predicted to do little on domain-fuzz)"),
    "qcore.qpochhammer.ms_p95": (
        "ms", "direct_p95_ms", "q-to-one (predicted to do little on domain-fuzz)"),
    "qcore.qpochhammer.fail_share": ("ratio", "fail_share", "q-to-one"),
    "qcore.qpochhammer.share_in_modular": (
        "ratio", "nothing: predicted ~0", "domain-fuzz"),
    "qcore.series.ms_per_pass": ("ms", "check_pass_s", "cli-check"),
    "modularity.qpochhammer_modular.ms_p50": (
        "ms", "modular_p50_ms", "domain-fuzz, q-to-one"),
    "modularity.qpochhammer_modular.ms_p95": (
        "ms", "modular_p95_ms", "domain-fuzz, q-to-one"),
    "modularity.qpochhammer_modular.self_share": (
        "ratio", "modular_p50_ms", "domain-fuzz"),
    "cli.import_s": ("s", "cold_eval_p50_s, setup_s", "cli-check"),
    "cli.import_scipy_special_s": ("s", "cold_eval_p50_s, setup_s", "cli-check"),
    "cli.main.self_share": ("ratio", "check_pass_s", "cli-check"),
    "trace.overhead_share": (
        "ratio", "nothing: traced op_p50_ms over untraced op_p50_ms, minus 1",
        "all"),
}

CHECK_TARGETS = (
    "euler-identity", "thm29", "ramanujan47", "eta-modular", "theta-modular",
    "stokes28", "reflection34", "lambert67", "lambert68", "lambert71",
    "lambert72", "binet74", "binet75", "M-pv",
)
SWEEP_TARGETS = ("asym-table", "q-to-one")

for _target in CHECK_TARGETS:
    PER_LAYER[f"cli.check.{_target}_s"] = ("s", "check_pass_s", "cli-check")
for _target in SWEEP_TARGETS:
    PER_LAYER[f"cli.sweep.{_target}_s"] = ("s", "check_pass_s", "cli-check")
del _target

#: The per-workload metrics, printed by name on the METRIC
#: lines of every run for the workloads that define them.  Latencies,
#: crossover_log10_alpha and ok_per_s come from the timed calls; fail_share,
#: wrong_share and rel_err_p95_log10 from the census.  They carry no
#: bound: each is defined on some workloads only, the shares read 0 where
#: qmod has no defect (wrong_share on q-to-one), and on cli-check
#: cold_eval_p50_s is what setup_s measures.  The bounded metrics above are
#: the ones every workload can report steadily.
REPORTED = {
    "domain-fuzz": (
        "modular_p50_ms", "modular_p95_ms", "direct_p50_ms", "direct_p95_ms",
        "ok_per_s", "fail_share", "wrong_share", "rel_err_p95_log10", "pass_s",
    ),
    "q-to-one": (
        "modular_p50_ms", "modular_p95_ms", "direct_p50_ms", "direct_p95_ms",
        "P_p50_ms", "P_p95_ms", "crossover_log10_alpha", "ok_per_s",
        "fail_share", "wrong_share", "rel_err_p95_log10", "pass_s",
    ),
    "cli-check": (
        "cold_eval_p50_s", "check_pass_s", "ok_per_s", "fail_share",
        "rel_err_p95_log10",
    ),
}
REPORTED_UNITS = {
    "modular_p50_ms": "ms", "modular_p95_ms": "ms", "direct_p50_ms": "ms",
    "direct_p95_ms": "ms", "P_p50_ms": "ms", "P_p95_ms": "ms",
    "crossover_log10_alpha": "log10", "ok_per_s": "1/s", "fail_share": "ratio",
    "wrong_share": "ratio", "rel_err_p95_log10": "log10",
    "cold_eval_p50_s": "s", "check_pass_s": "s", "pass_s": "s",
}

#: A returned value is ok within this relative distance of the oracle.
REL_TOL = 1e-8
#: Per-call deadline, 7x the slowest call that succeeds in these workloads
#: (the direct product near alpha = 7e-6, ~0.14 s, made by the census).
#: Some x -> 1 points run P_minus for seconds to minutes before failing; the
#: deadline cuts those off.
DEADLINE_S = 1.0
