"""Timed calls with a per-call deadline, and the outcome classifier.

The deadline is a SIGALRM interval timer in the benchmark's single thread:
the handler raises ``Deadline`` at the next bytecode boundary, which
interrupts qmod's pure-Python quadrature loops cleanly.
"""

from __future__ import annotations

import cmath
import math
import signal
import time

OUTCOMES = ("ok", "wrong", "refused", "convergence", "deadline", "other")


class Deadline(BaseException):
    """Raised inside a call that ran past its deadline.

    A BaseException, so that no ``except Exception`` in the code under test
    can swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


def install() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def timed_call(fn, args, deadline_s: float):
    """Run fn(*args) under the deadline.

    Returns (seconds, value, error) with exactly one of value / error set.
    The timer is armed and disarmed outside the timed interval.
    """
    value = error = None
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        except (Exception, Deadline) as exc:
            error = exc
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    except Deadline as exc:  # fired between the call's return and the disarm
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = time.perf_counter()
        value, error = None, exc
    return t1 - t0, value, error


def rel_error(value: complex, reference: complex) -> float:
    value = complex(value)
    if not (cmath.isfinite(value)):
        return math.inf
    if reference == 0:
        return abs(value)
    return abs(value - reference) / abs(reference)


def classify(value, error, reference, tol: float, domain_error, convergence_error):
    """Map one call's result to (outcome, relative error or None)."""
    if error is not None:
        if isinstance(error, Deadline):
            return "deadline", None
        if isinstance(error, domain_error):
            return "refused", None
        if isinstance(error, convergence_error):
            return "convergence", None
        return "other", None
    rel = rel_error(value, reference)
    return ("ok" if rel <= tol else "wrong"), rel
