"""Ray-integral engine and every integral-defined quantity.

The module owns a single adaptive Gauss-Legendre quadrature over rays
t = r e^{id} (geometric panels, 32-point rule with a 16-point error
estimate, panel bisection) and builds on it:

* g_plus / big_G  -- the Stirling-remainder Laplace integral and its
  closed log-Gamma form;
* P_minus / P_plus and their nu- and tau-derivatives -- the oscillatory
  ray sums whose direction comes from an admissible-cone search;
* A_n and K_N -- the building blocks of the asymptotic theta expansion;
* M_almost_modular and pv_M_direct -- two genuinely independent routes
  to the real-case almost-modular term (the second never touches the
  ray machinery; its only refinement is a closed-form trigamma tail).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import scipy.special as _sp

from ._stability import cos_ratio, inv_expm1, sin_ratio
from .errors import ConvergenceError, DomainError
from .qcore import ModularPoint, Truncation, _trunc
from .specialfns import fn_B, fn_f, log_gamma

TWO_PI = 2.0 * math.pi
ABS_FLOOR = 1e-15
FIRST_PANEL = 1e-6
MAX_BISECTION_DEPTH = 48
_PROBE_RADII = (1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0)
#: candidate ray angles per half-plane and the exclusion radius around poles
RAY_GRID_STEP = math.pi / 36.0

_GL32 = tuple(zip(*(arr.tolist() for arr in _sp.roots_legendre(32))))
_GL16 = tuple(zip(*(arr.tolist() for arr in _sp.roots_legendre(16))))


@dataclass(frozen=True)
class RaySpec:
    """Direction and quadrature budget for one ray integral."""

    direction_d: float
    rel_tol: float = 1e-11
    panel_growth: float = 2.0
    max_panels: int = 200

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")
        if not self.panel_growth > 1.0:
            raise DomainError("panel_growth must exceed 1")
        if self.max_panels < 1:
            raise DomainError("max_panels must be >= 1")


class RayResult(NamedTuple):
    value: complex
    error: float


def _gl_panel(f: Callable[[float], complex], a: float, b: float) -> tuple[complex, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    hi = 0.0 + 0.0j
    for x, w in _GL32:
        hi += w * f(mid + half * x)
    lo = 0.0 + 0.0j
    for x, w in _GL16:
        lo += w * f(mid + half * x)
    return hi * half, abs(hi - lo) * half


def _adaptive_panel(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float,
    rel: float = 0.0,
) -> tuple[complex, float]:
    """Integrate f on [a, b], bisecting until each piece meets
    max(tol_share, rel * |piece|)."""
    total = 0.0 + 0.0j
    err = 0.0
    stack = [(a, b, tol, 0)]
    while stack:
        a0, b0, t0, depth = stack.pop()
        val, e = _gl_panel(f, a0, b0)
        if e <= max(t0, rel * abs(val)):
            total += val
            err += e
        elif depth >= MAX_BISECTION_DEPTH:
            raise ConvergenceError(
                f"panel [{a0}, {b0}] stuck at error {e:.3e} > {t0:.3e}"
            )
        else:
            m0 = 0.5 * (a0 + b0)
            stack.append((a0, m0, 0.5 * t0, depth + 1))
            stack.append((m0, b0, 0.5 * t0, depth + 1))
    return total, err


def integrate_ray(
    integrand: Callable[[complex], complex], spec: RaySpec
) -> RayResult:
    """Integrate along t = r e^{id}, r in (0, oo), with certified error.

    The integrand must be analytic on the open ray, no worse than
    O(r^{-1+eps}) at 0, and exponentially decaying; marching stops after
    two consecutive panels fall below the running significance level, so
    R_max adapts to the actual decay.
    """
    e_id = cmath.exp(1j * spec.direction_d)

    def on_ray(r: float) -> complex:
        return integrand(r * e_id) * e_id

    # Coarse magnitude probe.  Near the origin some integrands are a
    # cancellation of two O(1/r) parts, so panel values there sit on a
    # rounding-noise floor; acceptance has to be judged against the size
    # of the whole integral, not against those panels' own values.
    probe = max(abs(on_ray(r)) * r for r in _PROBE_RADII)

    total = 0.0 + 0.0j
    err_total = 0.0
    a = 0.0
    b = FIRST_PANEL
    small_run = 0
    for _ in range(spec.max_panels):
        scale = max(abs(total), probe, ABS_FLOOR)
        val, e = _adaptive_panel(
            on_ray, a, b, 0.005 * spec.rel_tol * scale, rel=0.05 * spec.rel_tol
        )
        total += val
        err_total += e
        threshold = 0.5 * max(ABS_FLOOR, spec.rel_tol * abs(total))
        # termination needs decayed panels *past* the r ~ O(1) scale, else
        # integrands vanishing at the origin (t^{2N} weights) fool the test
        if abs(val) < threshold and b - a >= 0.5:
            small_run += 1
            if small_run >= 2:
                err_total += abs(val)  # geometric-decay tail bound
                break
        else:
            small_run = 0
        a = b
        b *= spec.panel_growth
    else:
        raise ConvergenceError(
            f"ray integral did not decay within {spec.max_panels} panels"
        )
    if err_total > spec.rel_tol * abs(total) + ABS_FLOOR:
        raise ConvergenceError(
            f"error estimate {err_total:.3e} exceeds tolerance for |I| = {abs(total):.3e}"
        )
    return RayResult(total, err_total)


# ---------------------------------------------------------------------------
# admissible cones and ray choice for the P integrals


def _pole_directions(point: ModularPoint, half: str) -> list[float]:
    """Ray angles (within the requested half-plane) hitting integrand poles.

    1/(e^{it/tau} - 1) has poles along arg t = arg tau (and the opposite
    ray); cot(t/2) contributes the real axis, excluded by the grid itself.
    """
    arg_tau = cmath.phase(point.tau)  # in (0, pi)
    if half == "upper":
        return [arg_tau]
    return [arg_tau - math.pi]


def _slack(point: ModularPoint, d: float) -> float:
    e_id = cmath.exp(1j * d)
    return (e_id * 1j / point.tau).real - abs((e_id * point.nu * 1j / point.tau).real)


def _grid(half: str) -> list[float]:
    if half == "lower":
        return [-k * RAY_GRID_STEP for k in range(1, 36)]
    if half == "upper":
        return [k * RAY_GRID_STEP for k in range(1, 36)]
    raise DomainError(f"half must be 'lower' or 'upper', got {half!r}")


def choose_ray(point: ModularPoint, half: str) -> RaySpec:
    """Deterministic argmax of the convergence slack over the angle grid.

    Raises a domain error when no direction converges (the point lies
    outside the relevant analyticity domain).
    """
    grid = _grid(half)
    poles = _pole_directions(point, half)
    best_d = None
    best_slack = -math.inf
    for d in grid:
        if any(abs(d - p) < 0.999 * RAY_GRID_STEP for p in poles):
            continue
        s = _slack(point, d)
        if s > best_slack:
            best_slack = s
            best_d = d
    if best_d is None or not best_slack > 0.0:
        raise DomainError(
            f"empty admissible cone (tau = {point.tau}, nu = {point.nu}, {half})"
        )
    return RaySpec(direction_d=best_d)


# ---------------------------------------------------------------------------
# g^+ and G


def g_plus(z: complex, spec: RaySpec | None = None) -> complex:
    """g^+(z) = -int_0^{oo e^{id}} B(t) e^{-2 pi z t} dt/t on S(-pi, pi).

    The ray is rotated to d = -arg(z)/2, which keeps both the kernel's
    pole-free sector |d| < pi/2 and the decay condition Re(z e^{id}) > 0
    with equal margin; z on the cut (-oo, 0] has no admissible ray.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError(f"g_plus undefined on the cut, got z = {z}")
    if spec is None:
        spec = RaySpec(direction_d=-0.5 * cmath.phase(z))

    def integrand(t: complex) -> complex:
        return -fn_B(t) * cmath.exp(-TWO_PI * z * t) / t

    return integrate_ray(integrand, spec).value


def big_G(point: ModularPoint) -> complex:
    """G(tau, nu) in closed Stirling-remainder form.

    Defined for s = nu/tau off (-oo, 0]; equals g_plus(s), which remains
    available as an independent cross-check.
    """
    s = point.s
    if s.imag == 0.0 and s.real <= 0.0:
        raise DomainError(f"big_G needs nu/tau off (-oo, 0], got s = {s}")
    return (
        -log_gamma(s + 1.0)
        + (s + 0.5) * cmath.log(s)
        - s
        + 0.5 * math.log(TWO_PI)
    )


# ---------------------------------------------------------------------------
# the P integrals and their derivatives


def _p_spec(point: ModularPoint, spec: RaySpec | None, half: str) -> RaySpec:
    return spec if spec is not None else choose_ray(point, half)


def _p_integrand(point: ModularPoint) -> Callable[[complex], complex]:
    tau = point.tau
    nu = point.nu

    def integrand(t: complex) -> complex:
        return sin_ratio(nu, t / tau) * fn_f(t) / t

    return integrand


def P_minus(point: ModularPoint, spec: RaySpec | None = None) -> complex:
    """P computed from a lower-half-plane ray (the production branch)."""
    if point.nu == 0:
        return 0.0 + 0.0j
    return integrate_ray(_p_integrand(point), _p_spec(point, spec, "lower")).value


def P_plus(point: ModularPoint, spec: RaySpec | None = None) -> complex:
    """P computed from an upper-half-plane ray (differs from P_minus by
    the Stokes sum)."""
    if point.nu == 0:
        return 0.0 + 0.0j
    return integrate_ray(_p_integrand(point), _p_spec(point, spec, "upper")).value


def dP_dnu(point: ModularPoint, spec: RaySpec | None = None) -> complex:
    """d/dnu of P_minus, by differentiation under the integral."""
    tau = point.tau
    nu = point.nu

    def integrand(t: complex) -> complex:
        return cos_ratio(nu, t / tau) * fn_f(t) / tau

    return integrate_ray(integrand, _p_spec(point, spec, "lower")).value


def dP_dtau(point: ModularPoint, spec: RaySpec | None = None) -> complex:
    """d/dtau of P_minus, by differentiation under the integral."""
    if point.nu == 0:
        return 0.0 + 0.0j
    tau = point.tau
    nu = point.nu
    inv_tau_sq = 1.0 / (tau * tau)

    def integrand(t: complex) -> complex:
        w = t / tau
        u = inv_expm1(1j * w)
        return (
            inv_tau_sq
            * (-nu * cos_ratio(nu, w) + 1j * sin_ratio(nu, w) * (1.0 + u))
            * fn_f(t)
        )

    return integrate_ray(integrand, _p_spec(point, spec, "lower")).value


def stokes_sum(point: ModularPoint, tr: Truncation | None = None) -> complex:
    """2i sum_{n>=1} sin(2 n pi nu/tau) / (n (e^{2 n pi i/tau} - 1)).

    The discrete jump between P_minus and P_plus; converges only while
    |Im(nu/tau)| < -Im(1/tau).
    """
    tr = _trunc(tr)
    tau = point.tau
    nu = point.nu
    decay = -(1.0 / tau).imag - abs((nu / tau).imag)
    if not decay > 0.0:
        raise DomainError(
            f"Stokes sum diverges: |Im(nu/tau)| >= -Im(1/tau) at tau = {tau}"
        )
    total = 0.0 + 0.0j
    for n in range(1, tr.max_terms + 1):
        term = sin_ratio(nu, TWO_PI * n / tau) / n
        total += term
        if math.exp(-TWO_PI * n * decay) < 0.25 * tr.term_tol:
            return 2j * total
    raise ConvergenceError(f"Stokes sum did not settle in {tr.max_terms} terms")


# ---------------------------------------------------------------------------
# A_n and K_N


def A_n(n: int, z: complex, spec: RaySpec | None = None) -> complex:
    """A_n(z) = 2 (-1)^{n-1} int_0^oo t^{2n-2} sin(tz)/(e^{2 pi t}-1) dt.

    Analytic for z^2 off (-oo, -4 pi^2]; for |Im z| >= 2 pi the ray is
    rotated by -sign(Im z) pi/4 as the continuation prescribes.  Inside
    |z| < 2 pi this agrees with the defining Bernoulli series.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    z = complex(z)
    if z.real == 0.0 and abs(z.imag) >= TWO_PI:
        raise DomainError(f"z^2 = {z * z} lies on the cut (-oo, -4 pi^2]")
    if spec is None:
        d = 0.0 if abs(z.imag) < TWO_PI else -math.copysign(math.pi / 4.0, z.imag)
        spec = RaySpec(direction_d=d)
    margin = TWO_PI * math.cos(spec.direction_d) - abs(
        (1j * z * cmath.exp(1j * spec.direction_d)).real
    )
    if not margin > 1e-9:
        raise DomainError(
            f"ray d = {spec.direction_d} does not converge for z = {z}"
        )
    sign = 2.0 if n % 2 else -2.0
    # sin(tz)/(e^{2 pi t} - 1) = sin_ratio(iz/2pi, -2 pi i t), which pairs the
    # growing and decaying exponentials so nothing overflows near the
    # domain boundary
    nu_eff = 1j * z / TWO_PI

    def integrand(t: complex) -> complex:
        return sign * t ** (2 * n - 2) * sin_ratio(nu_eff, -TWO_PI * 1j * t)

    return integrate_ray(integrand, spec).value


def K_N(N: int, nu: complex, spec: RaySpec | None = None) -> float:
    """K_N(nu) = int_0^oo |sinh(nu t)| t^{2N} / (e^t - 1) dt, |Re nu| < 1."""
    if N < 0:
        raise DomainError("N must be >= 0")
    nu = complex(nu)
    if abs(nu.real) >= 1.0:
        raise DomainError(f"K_N diverges for |Re nu| >= 1, got {nu}")
    if nu == 0:
        return 0.0
    if spec is None:
        spec = RaySpec(direction_d=0.0)

    def integrand(t: complex) -> complex:
        r = t.real  # real-axis ray
        return abs(cmath.sinh(nu * r)) * r**(2 * N) * inv_expm1(r)

    return integrate_ray(integrand, spec).value.real


# ---------------------------------------------------------------------------
# the almost-modular term M: modular route and principal-value route


def M_almost_modular(
    alpha: float,
    xi: float,
    spec: RaySpec | None = None,
    tr: Truncation | None = None,
) -> float:
    """M(alpha, xi) = Re log (x* q*; q*)_oo + P^-(alpha, xi).

    q* = e^{-2 pi/alpha}, x* = e^{2 pi i xi}; the imaginary parts cancel
    for real inputs, so the real part is returned.
    """
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    tr = _trunc(tr)
    qs = math.exp(-TWO_PI / alpha)
    xs = cmath.exp(2j * math.pi * xi)
    log_prod = 0.0 + 0.0j
    term = xs * qs
    for _ in range(tr.max_terms):
        if abs(term) / (1.0 - qs) < tr.term_tol:
            break
        log_prod += cmath.log(1.0 - term)
        term *= qs
    else:
        raise ConvergenceError("product log did not settle")
    point = ModularPoint.real_case(alpha, xi)
    p_val = P_minus(point, spec)
    return (log_prod + p_val).real


def _pv_cosine_sum(alpha: float, xi: float, n_terms: int) -> float:
    total = 0.0
    for n in range(1, n_terms + 1):
        arg = TWO_PI * n / alpha
        if arg > 700.0:
            break
        total -= math.cos(TWO_PI * n * xi) / (n * math.expm1(arg))
    return total


def _pv_sine_part(alpha: float, xi: float, n_terms: int, delta: float) -> float:
    """-(2/pi) PV int_0^oo F(t) dt/(1-t^2) plus the closed-form n > n_terms
    tail, where F truncates the sine sum at n_terms."""

    def F(t: float) -> float:
        total = 0.0
        for n in range(1, n_terms + 1):
            a = TWO_PI * n * t / alpha
            if a > 700.0:
                break
            total += math.sin(2.0 * n * xi * math.pi * t) / (n * math.expm1(a))
        return total

    def f_reg(r: float) -> complex:
        t = r
        return complex(F(t) / (1.0 - t * t))

    t_max = max(5.0, 9.0 * alpha)
    left, _ = _adaptive_panel(f_reg, 0.0, 0.5 * (1.0 - delta), 1e-13)
    left2, _ = _adaptive_panel(f_reg, 0.5 * (1.0 - delta), 1.0 - delta, 1e-13)
    right = 0.0 + 0.0j
    a = 1.0 + delta
    while a < t_max:
        b = min(2.0 * a, t_max)
        val, _ = _adaptive_panel(f_reg, a, b, 1e-14)
        right += val
        a = b
    f1 = F(1.0)

    def f_sub(t: float) -> complex:
        return complex((F(t) - f1) / (1.0 - t * t))

    mid_l, _ = _adaptive_panel(f_sub, 1.0 - delta, 1.0, 1e-13)
    mid_r, _ = _adaptive_panel(f_sub, 1.0, 1.0 + delta, 1e-13)
    # the f1/(2(1-t)) piece cancels by symmetry of the window; the
    # f1/(2(1+t)) piece integrates in closed form
    mid = mid_l + mid_r + 0.5 * f1 * math.log((2.0 + delta) / (2.0 - delta))
    integral = (left + left2 + mid + right).real
    # n > n_terms tail: each term contributes (alpha/(2 pi n^2)) J0(xi alpha)
    # with J0(mu) = (pi/2) coth(pi mu) - 1/(2 mu), odd and vanishing at 0,
    # hence a trigamma factor overall
    mu = xi * alpha
    if mu == 0.0:
        j0 = 0.0
    else:
        j0 = 0.5 * math.pi / math.tanh(math.pi * mu) - 0.5 / mu
    tail = -(alpha / math.pi**2) * j0 * float(_sp.polygamma(1, n_terms + 1))
    return -(2.0 / math.pi) * integral + tail


def pv_M_direct(
    alpha: float, xi: float, n_terms: int = 40, delta: float = 0.1
) -> float:
    """Principal-value route to M(alpha, xi), independent of the ray sums.

    Truncates both sums at n_terms, subtracts the t = 1 singularity
    locally (symmetric window of half-width delta), and restores the
    n > n_terms sine-sum tail in closed form.  Validation-oracle
    accuracy: ~1e-8 at alpha <= 1, comfortably inside the 1e-6 target.
    """
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    return _pv_cosine_sum(alpha, xi, n_terms) + _pv_sine_part(
        alpha, xi, n_terms, delta
    )
