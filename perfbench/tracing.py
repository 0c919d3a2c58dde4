"""Spans and counters recorded from outside qmod.

qmod's modules import each other's functions by name, so a call resolves the
callee through the caller's module globals.  The tracer replaces those module
attributes with wrappers and puts the originals back when it closes; nothing
under ``src/qmod`` changes.

* A span wrapper records (id, parent, op, name, start, end, self time,
  status, kernel counts) for every call.
* A counter wrapper, used for the per-integrand-node kernels ``fn_f`` and
  ``sin_ratio``, only adds its call count and time to a running total and to
  the innermost open span, which counts the time as child time and the call
  as one integrand evaluation.  Spans per node would be millions per run.

Spans stay in memory and are written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import NamedTuple

import numpy as np

from definitions import CHECK_TARGETS, SWEEP_TARGETS


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    start: float
    end: float
    self_s: float
    status: str
    counts: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.kernels: dict[str, list] = {}  # name -> [calls, seconds]
        self.op_id = 0
        self._stack: list[list] = []  # [span_id, start, child_s, counts]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, perf_counter(), 0.0, {}]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, status: str) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append(
            Span(frame[0], parent[0] if parent else None, self.op_id, name,
                 frame[1], end, duration - frame[2], status, frame[3])
        )

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span; for calls the benchmark makes itself."""
        return self._span_wrapper(name, fn)(*args)

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = self._open()
            status = "ok"
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                self._close(frame, name, status)

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        stat = self.kernels.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    top = stack[-1]
                    top[2] += dt
                    counts = top[3]
                    counts[name] = counts.get(name, 0) + 1

        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, module, attr: str, name: str, counter: bool = False) -> None:
        """Replace module.attr by a span (or counter) wrapper named ``name``."""
        original = getattr(module, attr)
        make = self._counter_wrapper if counter else self._span_wrapper
        setattr(module, attr, make(name, original))
        self._patched.append((module, attr, original))

    def close(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
            fh.write(json.dumps({"kernels": self.kernels}) + "\n")


def install(tracer: Tracer, qcore, raysum, modularity, cli) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    specialfns and _stability are reached through the modules that import
    their functions, so their wrappers sit in those importers.
    """
    counters = (
        (raysum, "fn_f", "specialfns.fn_f"),
        (raysum, "sin_ratio", "stability.sin_ratio"),
    )
    spans = (
        (raysum, "P_minus", "raysum.P_minus"),
        (raysum, "choose_ray", "raysum.choose_ray"),
        (raysum, "log_gamma", "specialfns.log_gamma"),
        (qcore, "qpochhammer", "qcore.qpochhammer"),
        (modularity, "qpochhammer_modular", "modularity.qpochhammer_modular"),
        (modularity, "P_minus", "raysum.P_minus"),
        (modularity, "big_G", "raysum.big_G"),
        (modularity, "dilog", "specialfns.dilog"),
        (modularity, "log_gamma", "specialfns.log_gamma"),
        (modularity, "qpochhammer", "qcore.qpochhammer"),
        (modularity, "qpochhammer_with_count", "qcore.qpochhammer_with_count"),
        (modularity, "euler_series", "qcore.series.euler_series"),
        (modularity, "theta_product_tau", "qcore.series.theta"),
        (modularity, "lambert_L1", "qcore.series.lambert"),
        (modularity, "lambert_L2", "qcore.series.lambert"),
        (cli, "qpochhammer_modular", "modularity.qpochhammer_modular"),
        (cli, "qpochhammer_modular_with_count", "modularity.qpochhammer_modular"),
        (cli, "qpochhammer", "qcore.qpochhammer"),
        (cli, "qpochhammer_with_count", "qcore.qpochhammer"),
        (cli, "P_minus", "raysum.P_minus"),
        (cli, "big_G", "raysum.big_G"),
        (cli, "dilog", "specialfns.dilog"),
        (cli, "euler_series", "qcore.series.euler_series"),
        (cli, "eta", "qcore.series.eta"),
        (cli, "theta_product", "qcore.series.theta"),
        (cli, "lambert_L1", "qcore.series.lambert"),
        (cli, "lambert_L2", "qcore.series.lambert"),
    )
    for module, attr, name in counters:
        tracer.patch(module, attr, name, counter=True)
    for module, attr, name in spans:
        tracer.patch(module, attr, name)
    # every evaluator the CLI dispatches to ends cli.main's self time
    for attr in dir(cli):
        if attr.endswith(("_residual", "_residuals")) or attr in (
            "theta_series_table", "q_gamma", "A_n", "M_almost_modular",
        ):
            tracer.patch(cli, attr, "cli.evaluator")


def _pct(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(tracer: Tracer, n_ops: int, n_passes: int) -> dict:
    """The per-layer metrics of definitions.PER_LAYER read from one traced
    segment (all but cli.import_* and trace.overhead_share).

    An op is one input point, or one check pass on cli-check.  A layer the
    workload never called reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def per_call_us(name):
        ss = spans(name)
        return 1e6 * sum(s.duration for s in ss) / len(ss) if ss else 0.0

    def kernel(name):
        calls, seconds = tracer.kernels.get(name, [0, 0.0])
        return calls / max(n_ops, 1), (1e6 * seconds / calls if calls else 0.0)

    def fail_share(ss):
        return sum(s.status != "ok" for s in ss) / len(ss) if ss else 0.0

    m = {}
    m["specialfns.fn_f.calls_per_op"], m["specialfns.fn_f.us_per_call"] = kernel(
        "specialfns.fn_f")
    m["stability.sin_ratio.calls_per_op"], m["stability.sin_ratio.us_per_call"] = (
        kernel("stability.sin_ratio"))
    m["specialfns.dilog.us_per_call"] = per_call_us("specialfns.dilog")
    m["specialfns.log_gamma.us_per_call"] = per_call_us("specialfns.log_gamma")

    modular = spans("modularity.qpochhammer_modular")
    modular_ids = {s.span_id for s in modular}
    modular_s = sum(s.duration for s in modular)

    def share_in_modular(name):
        inside = sum(s.duration for s in spans(name) if s.parent_id in modular_ids)
        return inside / modular_s if modular_s else 0.0

    P = spans("raysum.P_minus")
    P_ms = [1e3 * s.duration for s in P]
    evals = [s.counts.get("specialfns.fn_f", 0) for s in P]
    m["raysum.P_minus.ms_p50"] = _pct(P_ms, 50)
    m["raysum.P_minus.ms_p95"] = _pct(P_ms, 95)
    m["raysum.P_minus.share"] = share_in_modular("raysum.P_minus")
    m["raysum.P_minus.evals_p50"] = _pct(evals, 50)
    m["raysum.P_minus.evals_p95"] = _pct(evals, 95)
    P_s = sum(s.duration for s in P)
    m["raysum.P_minus.quad_self_share"] = (
        sum(s.self_s for s in P) / P_s if P_s else 0.0)
    m["raysum.P_minus.fail_share"] = fail_share(P)
    m["raysum.choose_ray.us_per_call"] = per_call_us("raysum.choose_ray")
    m["raysum.big_G.us_per_call"] = per_call_us("raysum.big_G")

    direct = spans("qcore.qpochhammer")
    direct_ms = [1e3 * s.duration for s in direct]
    m["qcore.qpochhammer.ms_p50"] = _pct(direct_ms, 50)
    m["qcore.qpochhammer.ms_p95"] = _pct(direct_ms, 95)
    m["qcore.qpochhammer.fail_share"] = fail_share(direct)
    m["qcore.qpochhammer.share_in_modular"] = share_in_modular(
        "qcore.qpochhammer_with_count")
    series_s = sum(
        s.duration for name, ss in by_name.items()
        if name.startswith("qcore.series.") for s in ss
    )
    m["qcore.series.ms_per_pass"] = 1e3 * series_s / max(n_passes, 1)

    modular_ms = [1e3 * s.duration for s in modular]
    m["modularity.qpochhammer_modular.ms_p50"] = _pct(modular_ms, 50)
    m["modularity.qpochhammer_modular.ms_p95"] = _pct(modular_ms, 95)
    m["modularity.qpochhammer_modular.self_share"] = (
        sum(s.self_s for s in modular) / modular_s if modular_s else 0.0)

    cli_runs = [s for name, ss in by_name.items()
                if name.startswith(("cli.check.", "cli.sweep.")) for s in ss]
    cli_s = sum(s.duration for s in cli_runs)
    m["cli.main.self_share"] = sum(s.self_s for s in cli_runs) / cli_s if cli_s else 0.0
    for target in CHECK_TARGETS:
        m[f"cli.check.{target}_s"] = _pct(
            [s.duration for s in spans(f"cli.check.{target}")], 50)
    for target in SWEEP_TARGETS:
        m[f"cli.sweep.{target}_s"] = _pct(
            [s.duration for s in spans(f"cli.sweep.{target}")], 50)
    return m
