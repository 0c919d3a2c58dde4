"""Special functions used by every other module.

Bernoulli numbers (exact-rational Akiyama-Tanigawa, exported as floats),
the cotangent remainder ``fn_f`` (elementwise on numpy arrays too, for
the quadrature nodes), Binet's function mu (the Stirling remainder of
log Gamma) and its derivative from the Stirling series, with
principal-branch log-Gamma as a wrapper over it, and a dilogarithm
covering the whole complex plane through its functional equations.
numpy is the only dependency.

All branches are principal: ``Im log`` lies in (-pi, pi], and inputs on
the dilogarithm's cut [1, oo) evaluate the limit from the upper
half-plane.
"""

from __future__ import annotations

import bisect
import cmath
import math
from fractions import Fraction

import numpy as np

from ._stability import cexpm1
from ._stability import inv_expm1 as _inv_expm1
from ._stability import piecewise
from .errors import DomainError, _finite

TWO_PI = 2.0 * math.pi
PI_SQ_OVER_6 = math.pi * math.pi / 6.0

#: switch to the defining series once the exponential's argument is this small
SERIES_RADIUS = 0.5
#: raise rather than evaluate within this distance of a (non-removable) pole
POLE_GUARD = 1e-12
#: the largest n for which b2 returns B_{2n}
BERNOULLI_CAP = 200

_TERM_EPS = 1e-18


# Exact rationals B_0, B_1, B_2, ... in the B_1 = +1/2 convention the
# Akiyama-Tanigawa recurrence produces; odd indices > 1 are zero.  The
# working row is kept so the cache can grow incrementally.
_bern_fractions: list[Fraction] = []
_at_row: list[Fraction] = []
_b2_floats: list[float] = []  # B_2, B_4, ... as floats, grown on demand


def _extend_fractions(upto: int) -> None:
    while len(_bern_fractions) <= upto:
        m = len(_bern_fractions)
        _at_row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            _at_row[j - 1] = j * (_at_row[j - 1] - _at_row[j])
        _bern_fractions.append(_at_row[0])


def b2(n: int) -> float:
    """B_{2n} as a float (b2(1) = B_2 = 1/6), for an integer n >= 1.

    Raises
    ------
    DomainError
        If ``n`` is below 1 or above ``BERNOULLI_CAP``, or if B_{2n}
        exceeds the double-precision range (first at B_260, n = 130).
    """
    if 0 < n <= len(_b2_floats):  # the cached floats, read once per term by dilog
        return _b2_floats[n - 1]
    if not 1 <= n <= BERNOULLI_CAP:
        raise DomainError(f"n = {n} outside [1, {BERNOULLI_CAP}]")
    _extend_fractions(2 * n)
    while len(_b2_floats) < n:
        m = len(_b2_floats) + 1
        try:
            _b2_floats.append(float(_bern_fractions[2 * m]))
        except OverflowError:
            raise DomainError(f"B_{2 * m} exceeds the double range") from None
    return _b2_floats[n - 1]


#: B_{2m}/(2m)! for m = 10 down to 1: on |w| < SERIES_RADIUS the terms fall
#: by (|w|/2 pi)^2 < 0.007 each, so the eleventh is below 1e-22
_BOSE_COEFFS = tuple(b2(m) / math.factorial(2 * m) for m in range(10, 0, -1))


def _bn_float(n: int) -> float:
    """B_n in the B_1 = -1/2 convention, for the dilogarithm expansion."""
    if n == 0:
        return 1.0
    if n == 1:
        return -0.5
    if n % 2:
        return 0.0
    return b2(n // 2)


def _reject_poles(name: str, t: np.ndarray, poles) -> None:
    """Raise DomainError if any t lies within POLE_GUARD of its nonzero pole."""
    poles = np.asarray(poles)
    hit = (poles != 0) & (np.abs(t - poles) < POLE_GUARD)
    if hit.any():
        raise DomainError(f"{name} pole at t = {poles[hit][0]}")


def _bose_remainder(w):
    """1/(e^w - 1) - 1/w + 1/2, by its Bernoulli series for |w| < SERIES_RADIUS."""
    return piecewise(
        w,
        np.abs(w) < SERIES_RADIUS,
        _bose_series,
        lambda v: _inv_expm1(v) - 1.0 / v + 0.5,
    )


def _bose_series(w: np.ndarray) -> np.ndarray:
    # sum_{m>=1} B_{2m} w^{2m-1} / (2m)!, by Horner in w^2
    w2 = w * w
    total = np.zeros_like(w)
    for c in _BOSE_COEFFS:
        total = total * w2 + c
    return total * w


def fn_f(t):
    """cot(t/2) - 2/t, the cotangent remainder.

    Odd, removable at 0, simple poles at 2 pi k for nonzero integer k.
    Computed as f(t) = 2i B(it / 2 pi) from the exponential-remainder
    kernel B(t) = 1/(e^{2 pi t} - 1) - 1/(2 pi t) + 1/2; takes a scalar or
    an array, elementwise.
    """
    t = np.asarray(t, dtype=complex)
    _reject_poles("fn_f", t, TWO_PI * np.round(t.real / TWO_PI))
    return 2j * _bose_remainder(1j * t)


def _reject_gamma_pole(z: complex) -> complex:
    z = _finite(complex(z), "z")
    if abs(z.imag) < POLE_GUARD:
        r = round(z.real)
        if r <= 0 and abs(z - r) < POLE_GUARD:
            raise DomainError(f"pole at z = {r}")
    return z


# Binet's function mu(z) = log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2
# and its derivative.  For Re z >= 0 both come from the Stirling series
# mu(z) ~ sum_k C_k z^{1-2k}, C_k = B_2k / (2k (2k-1)), after an upward
# shift when z is small; Re z < 0 reflects through
# mu(z) + mu(-z) = -log(1 - e^{2 pi i sigma z}), sigma = sign Im z.
#
# DLMF 5.11(ii): on |arg z| <= pi/2 the remainder after K terms is at
# most the first neglected term times sec^{2K+2}(arg z / 2), and
# sec^2(arg z / 2) <= 2 there.  With r = |z| cos(arg z / 2) the bound is
# at most 2 |C_{K+1}| / (|z| r^{2K}), which falls below STIRLING_EPS times
# the leading term |C_1 / z| once r >= (2 |C_{K+1} / C_1| / STIRLING_EPS)^{1/2K};
# mu' sums its own coefficients -B_2k / 2k by the same rule.

#: Stirling terms summed at most; smaller arguments are shifted first
STIRLING_TERMS = 12
#: truncation bound relative to the leading Stirling term
STIRLING_EPS = 1e-16


def _stirling_tables(coeffs: tuple[float, ...]):
    # (-radius, Horner coefficients) per term count K = 1..STIRLING_TERMS,
    # the radii negated so that bisect finds the fewest terms
    radii = tuple(
        -((2.0 * abs(coeffs[k] / coeffs[0]) / STIRLING_EPS) ** (0.5 / k))
        for k in range(1, STIRLING_TERMS + 1)
    )
    horner = tuple(coeffs[k - 1 :: -1] for k in range(1, STIRLING_TERMS + 1))
    return radii, horner


_STIRLING = (
    _stirling_tables(
        tuple(b2(k) / (2 * k * (2 * k - 1)) for k in range(1, STIRLING_TERMS + 2))
    ),
    _stirling_tables(tuple(-b2(k) / (2 * k) for k in range(1, STIRLING_TERMS + 2))),
)
#: below this real part (and modulus below sqrt 2 times it) mu is shifted
STIRLING_RADIUS = -min(radii[-1] for radii, _ in _STIRLING)
_SHIFT_MODULUS = math.sqrt(2.0) * STIRLING_RADIUS


def _stirling(z: complex, order: int) -> complex:
    """The Stirling series of mu (order 0) or mu' (order 1) for Re z >= 0
    and |z| cos(arg z / 2) >= STIRLING_RADIUS, with the fewest terms
    whose bound meets STIRLING_EPS."""
    radii, horner = _STIRLING[order]
    a = abs(z)
    k = bisect.bisect_left(radii, -math.sqrt(0.5 * a * (a + z.real)))
    v = 1.0 / z
    v2 = v * v
    total = 0.0
    for c in horner[k]:
        total = total * v2 + c
    return total * (v2 if order else v)


def _log1m_exp(u: complex) -> complex:
    """log(1 - e^u) for Re u <= 0, to full relative accuracy both where
    e^u is small (log1p by real and imaginary parts) and where it is
    close to 1 (1 - e^u by expm1)."""
    w = cmath.exp(u)
    if abs(w) < 0.5:
        return complex(
            0.5 * math.log1p(w.real * (w.real - 2.0) + w.imag * w.imag),
            math.atan2(-w.imag, 1.0 - w.real),
        )
    return cmath.log(-cexpm1(u))


def binet(z: complex, derivative: bool = False) -> complex:
    """Binet's function mu(z) = log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2,
    or with ``derivative`` mu'(z) = psi(z) - log z + 1/(2z).

    Principal branches, continuous off the cut (-oo, 0]; a real z < 0
    takes the limit from the side of the sign of its imaginary zero.
    Against mpmath the absolute error stays below 1e-14 and, for
    |z| >= 1e3, the relative error below 1e-15: no term of size
    |z log z| is ever formed, unlike log Gamma minus its Stirling part.

    Raises
    ------
    DomainError
        Within POLE_GUARD of z = 0, -1, -2, ...
    """
    z = _reject_gamma_pole(z)
    if z.real < 0.0:
        # reduce Re z by the nearest integer first: exact, and keeps the
        # phase of e^{2 pi i sigma z} accurate for large |z|
        sigma = math.copysign(TWO_PI, z.imag)
        u = 1j * sigma * (z - round(z.real))
        if not derivative:
            return -binet(-z) - _log1m_exp(u)
        w = cmath.exp(u)
        one_minus_w = 1.0 - w if abs(w) < 0.5 else -cexpm1(u)
        return binet(-z, True) + 1j * sigma * w / one_minus_w
    order = int(derivative)
    if z.real >= STIRLING_RADIUS or abs(z) >= _SHIFT_MODULUS:
        return _stirling(z, order)
    # the series at w = z + n, n >= 1, where
    # mu(z) = mu(w) + (z - 1/2) log(w/z) - n - sum_{j<n} log((z + j)/w):
    # its terms are of size n, not |w log w|
    n = math.ceil(STIRLING_RADIUS - z.real)
    w = z + n
    if derivative:
        return (
            _stirling(w, 1)
            + cmath.log(w / z)
            + 0.5 / z
            - 0.5 / w
            - sum(1.0 / (z + j) for j in range(n))
        )
    v = 1.0 / w
    prod = z * v
    for j in range(1, n):
        prod *= (z + j) * v
    mu = _stirling(w, 0) + (z - 0.5) * cmath.log(w / z) - n - cmath.log(prod)
    # the principal log of the product can be off the sum of the factors'
    # logs by 2 pi i k; |Im mu| <= pi/4 on Re z >= 0 fixes k
    return mu - 2j * math.pi * round(mu.imag / TWO_PI)


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z), continuous off the cut (-oo, 0]."""
    z = _reject_gamma_pole(z)
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(TWO_PI) + binet(z)


def dilog(x: complex) -> complex:
    """Dilogarithm Li2(x) = sum_{n>=1} x^n / n^2, analytically continued.

    Principal branch, cut along [1, oo); real inputs on the cut return
    the upper-side limit (Im Li2(x + i0) = pi log x).  Accuracy ~1e-14
    relative; every region reduces to a series with ratio <= 0.55.
    """
    x = _finite(complex(x), "x")
    if x == 0:
        return 0.0 + 0.0j
    if x.imag == 0.0 and x.real >= 1.0:
        return _dilog_cut(x.real)
    return _dilog_off_cut(x)


def _dilog_off_cut(x: complex) -> complex:
    a = abs(x)
    if a <= 0.5:
        return _dilog_series(x)
    if a >= 2.0:
        # inversion: Li2(x) = -pi^2/6 - log(-x)^2 / 2 - Li2(1/x)
        lg = cmath.log(-x)
        return -PI_SQ_OVER_6 - 0.5 * lg * lg - _dilog_series(1.0 / x)
    if abs(1.0 - x) <= 0.5:
        # Euler reflection into the series disk around 1
        return (
            PI_SQ_OVER_6
            - cmath.log(x) * cmath.log(1.0 - x)
            - _dilog_series(1.0 - x)
        )
    return _dilog_u_series(x)


def _dilog_cut(x: float) -> complex:
    # real x >= 1: upper-half-plane limit, log(1-x) -> log(x-1) - i pi
    if x == 1.0:
        return complex(PI_SQ_OVER_6)
    if x <= 2.0:
        log1mx = math.log(x - 1.0) - 1j * math.pi
        inner = _dilog_series(1.0 - x) if x <= 1.5 else _dilog_u_series(1.0 - x)
        return PI_SQ_OVER_6 - math.log(x) * log1mx - inner
    lg = math.log(x) - 1j * math.pi  # log(-x) from above
    return -PI_SQ_OVER_6 - 0.5 * lg * lg - _dilog_series(1.0 / x)


def _dilog_series(x: complex) -> complex:
    total = x
    power = x
    for n in range(2, 400):
        power *= x
        term = power / (n * n)
        total += term
        if abs(term) < _TERM_EPS:
            break
    return total


def _dilog_u_series(x: complex) -> complex:
    # Li2(x) = sum_{n>=0} B_n u^{n+1} / (n+1)!  with u = -log(1-x),
    # B_1 = -1/2; converges for |u| < 2 pi (worst case here |u| ~ pi).
    u = -cmath.log(1.0 - x)
    ratio = abs(u) / TWO_PI
    total = 0.0 + 0.0j
    c = u  # u^{n+1} / (n+1)!
    for n in range(0, 400):
        total += _bn_float(n) * c
        # |B_n| <= 4 n! / (2 pi)^n for n >= 2, so this bounds the tail
        if n >= 4 and 4.0 * abs(u) * ratio**n < _TERM_EPS:
            break
        c *= u / (n + 2)
    return total
