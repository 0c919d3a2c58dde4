"""The three workloads: seeded inputs, a census pass, passes of timed
calls, and the classification of every call against the mpmath oracle.

Each workload is a closed loop with one caller: the next call starts only
after the previous one returned.  A run first makes one census pass, every
call on every generated input once, whose outcomes (ok_share and the
fail and wrong shares) show where qmod refuses, stalls or is wrong.  It then
repeats timed passes over the calls that lie in the domain where qmod is
known to work, fixed from the inputs alone, until its time is up; every timed
input carries the same weight in the latency percentiles, and a timed call
that is not ok is a failed operation.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import subprocess
import sys
import time
from typing import NamedTuple

import numpy as np
from scipy.stats import qmc

import calibrate
import oracle
import outcome
from definitions import CHECK_TARGETS, DEADLINE_S, REL_TOL, SWEEP_TARGETS

#: Ops between two calibration samples: ~2 ms of kernel per ~30 ms of calls.
CAL_EVERY = 8
#: In-process CLI runs take at most ~0.2 s each; cold starts ~0.6 s.
CLI_DEADLINE_S = 30.0
COLD_EVAL_TIMEOUT_S = 60.0


class Call(NamedTuple):
    route: str
    key: tuple  # oracle kind and inputs; () for a CLI run, which checks itself
    seconds: float
    value: object
    error: BaseException | None
    op: int  # index into the workload's ops; on cli-check 0, or -1 for a cold eval


def sobol(dim: int, log2_n: int, seed: int) -> np.ndarray:
    """2**log2_n scrambled Sobol points in [0, 1)^dim.

    Stratified draws keep shares such as "points with Im nu < 0" nearly the
    same from seed to seed, which iid draws of this size would not.
    """
    gen = qmc.Sobol(dim, scramble=True, rng=np.random.default_rng(seed))
    return gen.random_base2(log2_n)


# ---------------------------------------------------------------------------
# domain-fuzz and q-to-one: calls into the public functions


class PointWorkload:
    """A pool of input points; one op is one point through all its routes.

    Every call carries a ``timed`` flag, fixed from its inputs alone: the
    census makes every call, the timed passes only the flagged ones, and an
    op with no flagged call is census only.
    """

    name = ""
    setup_code = ""

    def __init__(self, seed: int, qm):
        self.qm = qm
        self.ops = self.make_ops(seed)
        self.timed = [
            (index, [c for c in calls if c[-1]])
            for index, (_, calls) in enumerate(self.ops)
            if any(c[-1] for c in calls)
        ]

    def make_ops(self, seed: int) -> list:
        """[(op label, [(route, oracle key, module, attribute, args, timed)])]"""
        raise NotImplementedError

    def inputs(self) -> list:
        return [[(route, key, timed) for route, key, *_, timed in calls]
                for _, calls in self.ops]

    def census(self, calls: list, tracer=None) -> None:
        """Every call of every op once, in order; appends a Call per call."""
        self._calls(enumerate(op_calls for _, op_calls in self.ops), calls, None, tracer)

    def run_pass(self, calls: list, cal: list, tracer=None) -> None:
        """One pass over every timed call.  Appends a Call per call and, every
        CAL_EVERY ops, a calibration sample as (len(calls), seconds)."""
        self._calls(self.timed, calls, cal, tracer)

    @staticmethod
    def _calls(ops, calls: list, cal, tracer) -> None:
        for k, (index, op_calls) in enumerate(ops):
            if cal is not None and k % CAL_EVERY == 0:
                cal.append((len(calls), calibrate.sample()))
            if tracer is not None:
                tracer.op_id = index
            for route, key, module, attr, args, _ in op_calls:
                # resolved per call, so a tracer's wrapper is picked up
                dt, value, error = outcome.timed_call(
                    getattr(module, attr), args, DEADLINE_S
                )
                calls.append(Call(route, key, dt, value, error, index))


ORACLES = {
    "qp_tau_nu": oracle.qp_tau_nu,
    "qp_xq": oracle.qp_xq,
    "P": oracle.P,
    "eta": oracle.eta,
}


def classify(calls: list, cache: oracle.Cache, errors: tuple) -> list:
    """[(route, seconds, outcome, rel error or None, op)] for every call.

    A value is compared with the oracle for the call's key; a CLI run
    (empty key) expands to one entry per point it reported, each carrying
    an equal share of the run's time.  ``errors`` is qmod's
    (DomainError, ConvergenceError).
    """
    out = []
    for c in calls:
        if c.error is None and not c.key:
            share = c.seconds / max(sum(c.value.values()), 1)
            for kind, n in c.value.items():
                out.extend([(c.route, share, kind, None, c.op)] * n)
            continue
        ref = None
        if c.error is None:
            kind, *args = c.key
            ref = cache.get(kind, ORACLES[kind], *args)
        kind, rel = outcome.classify(c.value, c.error, ref, REL_TOL, *errors)
        out.append((c.route, c.seconds, kind, rel, c.op))
    return out


#: Ray directions for lower_cone_margin: qmod's span of the lower half-plane,
#: [-175, -5] degrees, at a quarter degree.
_LOWER_RAYS = np.exp(-1j * np.radians(np.arange(5.0, 175.01, 0.25)))


def lower_cone_margin(tau: complex, nu: complex) -> float:
    """Best decay slack of P's integrand over lower-half-plane rays.

    The slack of direction d is Re(i e^{id}/tau) - |Re(i e^{id} nu/tau)|,
    scaled by |tau|; the ray integral converges along d when it is
    positive.  Rays within 10 degrees of the pole ray arg tau - pi do not
    count.  From the inputs alone, so a change to qmod never moves a point
    in or out of the timed set.
    """
    w = 1j * _LOWER_RAYS / tau
    slack = (w.real - np.abs((w * nu).real)) * abs(tau)
    pole = cmath.phase(tau) - math.pi
    slack[np.abs(np.angle(_LOWER_RAYS) - pole) < math.radians(10.0)] = -np.inf
    return float(np.max(slack))


#: Timed domain-fuzz points have Im nu >= 0, where no wrong value has been
#: seen, and a cone margin of at least this; across 80 seeds no such point
#: was refused, while every refused point had a margin below it.
DOMAIN_MARGIN = 0.1
#: The direct product needs more than Truncation's 10^6 factors below
#: alpha ~ 7e-6 and the x -> 1 ray integral fails or stalls below ~1.2e-4;
#: q-to-one times those routes only from these alphas up.
DIRECT_MIN_ALPHA = 1e-5
P_MIN_ALPHA = 1e-3


class DomainFuzz(PointWorkload):
    name = "domain-fuzz"
    setup_code = (
        "import qmod; from qmod import modularity, qcore\n"
        "p = qmod.ModularPoint(0.1 + 0.5j, 0.1 + 0.2j)\n"
        "modularity.qpochhammer_modular(p); qcore.qpochhammer(p.x, p.q)\n"
    )

    def make_ops(self, seed):
        qm = self.qm
        ops = []
        for a, b, c, d in sobol(4, 9, seed):
            tau = complex(a - 0.5, 10.0 ** (-2.5 + 3.0 * b))
            nu = complex(1.9 * c - 0.95, 2.0 * d - 1.0)
            point = qm.ModularPoint(tau, nu)
            x, q = point.x, point.q
            timed = bool(nu.imag >= 0.0
                         and lower_cone_margin(tau, nu) >= DOMAIN_MARGIN)
            ops.append((tau, [
                ("modular", ("qp_tau_nu", tau, nu), qm.modularity,
                 "qpochhammer_modular", (point,), timed),
                ("direct", ("qp_xq", x, q), qm.qcore, "qpochhammer", (x, q), timed),
            ]))
        return ops


def _log_qp_fixed_x(alpha: float, c: float) -> float:
    """|log (x; q)_oo| for x = e^{-2 pi c}, q = e^{-2 pi alpha}, in floats."""
    total = 0.0
    x = math.exp(-2.0 * math.pi * c)
    xk = 1.0
    for k in range(1, 100000):
        xk *= x
        total += xk / (k * -math.expm1(-2.0 * math.pi * alpha * k))
        if xk < 1e-18:
            break
    return total


def fixed_x_c_min(alpha: float, cap: float = 600.0) -> float:
    """Smallest c >= 0.02 with |log (x; q)_oo| <= cap.

    Past the cap the correctly rounded product underflows towards 0.0, where
    no relative error exists; nothing else is excluded.
    """
    lo, hi = 0.02, 5.0
    if _log_qp_fixed_x(alpha, lo) <= cap:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _log_qp_fixed_x(alpha, mid) > cap:
            lo = mid
        else:
            hi = mid
    return hi


class QToOne(PointWorkload):
    name = "q-to-one"
    setup_code = DomainFuzz.setup_code + (
        "qmod.P_minus(qmod.ModularPoint.real_case(0.01, 0.5))\n"
    )

    def make_ops(self, seed):
        qm = self.qm
        ops = []
        for a, b in sobol(2, 7, seed):  # fixed x: both routes
            alpha = 10.0 ** (-6.0 + 6.0 * a)
            c = fixed_x_c_min(alpha) + b
            point = qm.ModularPoint(1j * alpha, 1j * c)
            x, q = point.x, point.q
            ops.append((("fixed-x", float(alpha)), [
                ("modular", ("qp_tau_nu", point.tau, point.nu), qm.modularity,
                 "qpochhammer_modular", (point,), True),
                ("direct", ("qp_xq", x, q), qm.qcore, "qpochhammer", (x, q),
                 bool(alpha >= DIRECT_MIN_ALPHA)),
            ]))
        for a, b in sobol(2, 6, seed + 1):  # x -> 1: the correction integral
            alpha = 10.0 ** (-6.0 + 6.0 * a)
            point = qm.ModularPoint.real_case(alpha, 0.1 + 0.8 * b)
            ops.append((("x-to-1", float(alpha)), [
                ("P", ("P", point.tau, point.nu), qm.raysum, "P_minus", (point,),
                 bool(alpha >= P_MIN_ALPHA)),
            ]))
        return ops


# ---------------------------------------------------------------------------
# cli-check: the command line tool


def _flags(**values: float) -> list:
    # --name=value, since argparse reads "-4e-05" as an option, not a value
    return [f"--{name.replace('_', '-')}={v!r}" for name, v in values.items()]


def _cold_eval_args(seed: int) -> list:
    """Seed-drawn ``qmod eval`` invocations: two per target, from the boxes
    of the packaged check grids (ramanujan47 for the products, eta-modular
    for eta) and the real case alpha in [1e-3, 1] for P."""
    rng = np.random.default_rng(seed)
    evals = []
    for _ in range(2):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 1.5))
        nu = complex(rng.uniform(-0.25, 0.25), rng.uniform(0.05, 0.45))
        evals.append((
            ["pochhammer-modular", *_flags(tau_re=tau.real, tau_im=tau.imag,
                                           nu_re=nu.real, nu_im=nu.imag)],
            ("qp_tau_nu", tau, nu),
        ))
        x = cmath.exp(2j * math.pi * nu)
        q = cmath.exp(2j * math.pi * tau)
        evals.append((
            ["pochhammer-direct", *_flags(x_re=x.real, x_im=x.imag,
                                          q_re=q.real, q_im=q.imag)],
            ("qp_xq", x, q),
        ))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0))
        evals.append((["eta", *_flags(tau_re=tau.real, tau_im=tau.imag)], ("eta", tau)))
        alpha = 10.0 ** rng.uniform(-3.0, 0.0)
        beta = rng.uniform(0.1, 0.9) * alpha
        evals.append((
            ["P", *_flags(tau_im=alpha, nu_im=beta)],
            ("P", complex(0.0, alpha), complex(0.0, beta)),
        ))
    return evals


def _parse_check(text: str) -> dict:
    """Outcome counts of ``qmod check`` text output: PASS points are ok, FAIL
    points wrong, SKIP points refused."""
    words = [line.split(" ", 1)[0] for line in text.splitlines()]
    return {"ok": words.count("PASS"), "wrong": words.count("FAIL"),
            "refused": words.count("SKIP")}


def _parse_sweep(target: str, text: str) -> dict:
    """Outcome counts of sweep rows: q-to-one rows need direct and modular to
    agree within REL_TOL, asym-table rows the error within the proven bound."""
    rows = [line.split(",") for line in text.splitlines()[1:] if line]
    if target == "q-to-one":
        good = sum(float(r[3]) <= REL_TOL for r in rows)
    else:
        good = sum(float(r[8]) <= float(r[9]) for r in rows)
    return {"ok": good, "wrong": len(rows) - good}


class CliCheck:
    """One op is one pass over every check grid and sweep, in process
    through ``qmod.cli.main``; every other pass adds one cold ``qmod eval``
    subprocess, whose latency setup_s stands for in the bounded metrics.
    The census is one such pass without the cold eval; every call is timed."""

    name = "cli-check"
    setup_code = (
        "import contextlib, io\n"
        "from qmod import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['eval', 'pochhammer-modular', '--tau-im', '0.5',"
        " '--nu-im', '0.1'])\n"
        "    cli.main(['check', 'lambert72'])\n"
    )

    def __init__(self, seed: int, qm, root: str, env: dict):
        self.cold_evals = True
        self.passes = 0
        self.qm = qm
        self.root = root
        self.env = env
        self.evals = _cold_eval_args(seed)
        self.next_eval = 0

    def inputs(self) -> list:
        return [args for args, _ in self.evals]

    def census(self, calls: list, tracer=None) -> None:
        """One in-process pass over every grid and sweep, no cold eval."""
        cold, self.cold_evals = self.cold_evals, False
        self.run_pass(calls, [], tracer)
        self.cold_evals, self.passes = cold, 0

    def _main(self, argv: list, tracer):
        cli = self.qm.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                dt, code, error = outcome.timed_call(cli.main, (argv,), CLI_DEADLINE_S)
            else:
                name = f"cli.{argv[0]}.{argv[1]}"
                dt, code, error = outcome.timed_call(
                    tracer.call, (name, cli.main, argv), CLI_DEADLINE_S
                )
        return dt, code, error, out.getvalue()

    def run_pass(self, calls: list, cal: list, tracer=None) -> None:
        """One in-process pass over every check grid and sweep, which is op
        0, then every other pass one cold eval (op -1).  Appends one Call per
        CLI run, whose value is its outcome counts, and a calibration sample
        as (len(calls), seconds) before each run."""
        for command, targets in (("check", CHECK_TARGETS), ("sweep", SWEEP_TARGETS)):
            for target in targets:
                cal.append((len(calls), calibrate.sample()))
                dt, code, error, text = self._main([command, target], tracer)
                counts = None
                if error is None:
                    if command == "check":
                        counts = _parse_check(text)
                    else:
                        counts = _parse_sweep(target, text)
                    if code != 0:  # every point of a run that exits non-zero fails
                        counts = {"other": max(sum(counts.values()), 1)}
                calls.append(Call(command, (), dt, counts, error, 0))
        self.passes += 1
        if self.cold_evals and self.passes % 2 == 0:
            cal.append((len(calls), calibrate.sample()))
            self.cold_eval(calls)

    def cold_eval(self, calls: list) -> None:
        argv, key = self.evals[self.next_eval % len(self.evals)]
        self.next_eval += 1
        cmd = [sys.executable, "-m", "qmod.cli", "eval", *argv]
        error = value = None
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=COLD_EVAL_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            dt = time.perf_counter() - t0
            error = outcome.Deadline()
        else:
            dt = time.perf_counter() - t0
            if proc.returncode == 2:
                error = self.qm.errors.DomainError(proc.stderr.strip())
            elif proc.returncode == 3:
                error = self.qm.errors.ConvergenceError(proc.stderr.strip())
            elif proc.returncode != 0:
                error = RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
            else:
                re_s, im_s, _ = proc.stdout.split()
                value = complex(float(re_s), float(im_s))
        calls.append(Call("cold_eval", key, dt, value, error, -1))
