"""The benchmark's own checks, run at the start of every run.

A failed check makes the run report ``"correct": false``.  None of them
times anything.
"""

from __future__ import annotations

import json
import os

import definitions
import oracle
import outcome


def check_definitions(root: str) -> list[str]:
    """BENCHMARK.json must carry the names, units, bounds and reasons kept in
    definitions.py."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    if {w["name"]: w["why"] for w in bench["workloads"]} != definitions.WORKLOADS:
        problems.append("workloads differ from definitions.WORKLOADS")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    if e2e != {k: v[:3] for k, v in definitions.END_TO_END.items()}:
        problems.append("end_to_end differs from definitions.END_TO_END")
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if layers != {k: (v[0], "lower") for k, v in definitions.PER_LAYER.items()}:
        problems.append("per_layer differs from definitions.PER_LAYER")
    return problems


def check_seeded(make_inputs) -> list[str]:
    """The same seed gives identical inputs; another seed different ones."""
    a, b, c = make_inputs(7), make_inputs(7), make_inputs(8)
    problems = []
    if repr(a) != repr(b):
        problems.append("seed 7 gave two different input sets")
    if repr(a) == repr(c):
        problems.append("seeds 7 and 8 gave the same inputs")
    return problems


def check_classifier(qm) -> list[str]:
    """Synthetic values only, so the check holds whatever qmod returns."""
    ref = 0.3 - 1.7j
    errors = (qm.errors.DomainError, qm.errors.ConvergenceError)
    cases = (
        ((ref, None), "ok"),
        ((ref * (1 + 1e-6), None), "wrong"),
        ((complex("nan+nanj"), None), "wrong"),
        ((None, qm.errors.DomainError("x")), "refused"),
        ((None, qm.errors.ConvergenceError("x")), "convergence"),
        ((None, outcome.Deadline()), "deadline"),
        ((None, ZeroDivisionError()), "other"),
    )
    problems = []
    for (value, error), want in cases:
        got, _ = outcome.classify(value, error, ref, definitions.REL_TOL, *errors)
        if got != want:
            problems.append(f"classifier mapped {value!r}/{error!r} to {got}, not {want}")
    return problems


def check_oracle(qm, cache: oracle.Cache) -> list[str]:
    """The oracle's two product methods agree with each other and with qmod
    where qmod is known to be right, and its P agrees with P_minus."""
    problems = []
    point = qm.ModularPoint(0.01j, 0.3j)
    x, q = point.x, point.q
    with oracle.mp.workdps(oracle.DPS):
        mx, mq = oracle._c(x), oracle._c(q)
        prod = oracle.qp_product(mx, mq)
        series = oracle.qp_log_series(mx, mq)
        if abs(prod - series) > 1e-25 * abs(prod):
            problems.append(f"mp.qp and the log series differ: {prod} vs {series}")
    direct = qm.qcore.qpochhammer(x, q)
    ref = cache.get("qp_xq", oracle.qp_xq, x, q)
    if outcome.rel_error(direct, ref) > 1e-12:
        problems.append(f"oracle (x;q) {ref} vs qpochhammer {direct}")
    for tau, nu in ((1j, 0.3j), (0.2 + 0.9j, 0.1 + 0.2j)):
        p = qm.raysum.P_minus(qm.ModularPoint(tau, nu))
        ref = cache.get("P", oracle.P, tau, nu)
        if outcome.rel_error(p, ref) > 1e-12:
            problems.append(f"oracle P {ref} vs P_minus {p} at tau={tau}, nu={nu}")
    return problems


#: The two Im nu < 0 points the roadmap reports as silently wrong.
REPRODUCERS = (
    (0.23982859142074187 + 2.6742701839441563j,
     -0.011497320186277027 - 0.23487904553503003j),
    (-0.31927 + 0.17571j, 0.26394 - 0.25520j),
)


def reproducers(qm, cache: oracle.Cache) -> list[str]:
    """Outcome of qpochhammer_modular at each reproducer; reported only."""
    lines = []
    errors = (qm.errors.DomainError, qm.errors.ConvergenceError)
    for tau, nu in REPRODUCERS:
        _, value, error = outcome.timed_call(
            qm.modularity.qpochhammer_modular, (qm.ModularPoint(tau, nu),),
            definitions.DEADLINE_S,
        )
        ref = None if error else cache.get("qp_tau_nu", oracle.qp_tau_nu, tau, nu)
        kind, rel = outcome.classify(value, error, ref, definitions.REL_TOL, *errors)
        rel_text = "n/a" if rel is None else f"{rel:.3g}"
        lines.append(f"REPRODUCER tau={tau!r} nu={nu!r} outcome={kind} rel={rel_text}")
    return lines
