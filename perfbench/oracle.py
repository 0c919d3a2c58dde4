"""Independent high-precision reference values, computed with mpmath only.

Nothing here imports qmod.  Every value is computed at ``DPS`` significant
digits from the exact float inputs the program received, and cached on disk
keyed by those inputs, so repeated runs with the same seed skip the work.
The oracle is always evaluated outside the timed regions.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp

DPS = 30
#: A log-series term costs about this many product factors.
SERIES_TERM_COST = 4


def _c(z: complex):
    return mp.mpc(z.real, z.imag)


def _factors_needed(x, q) -> float:
    """Factors until |x q^n| < 10^-(DPS+5)."""
    return float(((DPS + 5) * mp.log(10) + mp.log(abs(x))) / -mp.log(abs(q)))


def _terms_needed(x, q) -> float:
    """Log-series terms until |x|^k / (1 - |q|) < 10^-(DPS+5)."""
    return float(((DPS + 5) * mp.log(10) - mp.log(1 - abs(q))) / -mp.log(abs(x)))


def qp_product(x, q):
    """(x; q)_oo by mpmath's factor-by-factor product (mp.qp)."""
    with mp.workdps(DPS):
        n = _factors_needed(x, q)
        return mp.qp(x, q, maxterms=int(max(n, 0.0)) + 1000)


def qp_log_series(x, q):
    """(x; q)_oo = exp(-sum_{k>=1} x^k / (k (1 - q^k))), for |x| < 1.

    Converges like |x|^k whatever |q| is, so it stays cheap as q -> 1.
    """
    if not abs(x) < 1:
        raise ValueError("the log series needs |x| < 1")
    with mp.workdps(DPS + 10):
        log_q = mp.log(q)  # q^k = exp(k log q) on any branch
        # every later term is below |x|^j / (j (1 - |q|)): a geometric tail
        tail_scale = 1 / ((1 - abs(x)) * (1 - abs(q)))
        eps = mp.mpf(10) ** (-(DPS + 5))
        total = mp.mpc(0)
        xk = mp.mpc(1)
        k = 0
        while True:
            k += 1
            xk *= x
            total += xk / (k * -mp.expm1(k * log_q))
            if abs(xk * x) * tail_scale / (k + 1) < eps * max(abs(total), 1):
                break
        return mp.exp(-total)


def _qp(x, q):
    """The cheaper of the two methods; the log series needs |x| < 1."""
    if abs(x) < 1 and SERIES_TERM_COST * _terms_needed(x, q) < _factors_needed(x, q):
        return qp_log_series(x, q)
    return qp_product(x, q)


def qp_xq(x: complex, q: complex) -> complex:
    """(x; q)_oo for the float x and q a caller passed in."""
    with mp.workdps(DPS):
        return complex(_qp(_c(x), _c(q)))


def qp_tau_nu(tau: complex, nu: complex) -> complex:
    """(x; q)_oo at exactly q = e^{2 pi i tau}, x = e^{2 pi i nu}."""
    with mp.workdps(DPS):
        return complex(_qp(mp.expjpi(2 * _c(nu)), mp.expjpi(2 * _c(tau))))


def eta(tau: complex) -> complex:
    """Dedekind eta: e^{pi i tau / 12} (q; q)_oo."""
    with mp.workdps(DPS):
        q = mp.expjpi(2 * _c(tau))
        return complex(mp.expjpi(_c(tau) / 12) * _qp(q, q))


def _slack(tau: complex, nu: complex, d: float) -> float:
    e = complex(math.cos(d), math.sin(d))
    return (e * 1j / tau).real - abs((e * nu * 1j / tau).real)


def lower_ray(tau: complex, nu: complex) -> float:
    """A lower-half-plane ray direction for P with positive decay slack.

    The integrand's poles sit on the real axis (cot) and on arg t =
    arg tau - pi (the Bose factor); the ray keeps at least a fifth of that
    sector away from both.  Any ray in the sector with positive slack gives
    the same P.
    """
    lo = math.atan2(tau.imag, tau.real) - math.pi
    best, best_slack = None, 0.0
    for j in range(41):
        d = lo * (0.8 - 0.6 * j / 40)
        s = _slack(tau, nu, d)
        if s > best_slack:
            best, best_slack = d, s
    if best is None:
        raise ValueError(f"no admissible lower ray at tau={tau}, nu={nu}")
    return best


def P(tau: complex, nu: complex) -> complex:
    """P(tau, nu) = int_0^{oo e^{id}} sin(nu t/tau)/(e^{it/tau} - 1)
    (cot(t/2) - 2/t) dt/t along a lower-half-plane ray.

    mp.quad on panels split at |tau| 10^k, where the integrand changes scale.
    """
    if nu == 0:
        return 0j
    d = lower_ray(tau, nu)
    with mp.workdps(DPS):
        mt, mn = _c(tau), _c(nu)
        e = mp.expj(d)

        def integrand(r):
            t = r * e
            w = t / mt
            if abs(t) < 1:
                with mp.extradps(25):  # cot(t/2) - 2/t cancels near 0
                    f = mp.cot(t / 2) - 2 / t
            else:
                f = mp.cot(t / 2) - 2 / t
            return mp.sin(mn * w) / mp.expm1(1j * w) * f / t * e

        scale = abs(tau)
        splits = [0] + [scale * mp.mpf(10) ** k for k in range(-2, 3)] + [mp.inf]
        return complex(mp.quad(integrand, splits))


class Cache:
    """Oracle values on disk, keyed by the kind and the exact float inputs."""

    def __init__(self, path: str):
        self.path = path
        self.values: dict[str, list[float]] = {}
        self.dirty = False
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.values = json.load(fh)

    def get(self, kind: str, fn, *args: complex) -> complex:
        key = kind + ":" + ",".join(repr(complex(a)) for a in args)
        hit = self.values.get(key)
        if hit is None:
            v = complex(fn(*args))
            self.values[key] = [v.real, v.imag]
            self.dirty = True
            return v
        return complex(hit[0], hit[1])

    def save(self) -> None:
        if not self.dirty:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.values, fh)
        os.replace(tmp, self.path)
        self.dirty = False
