"""Executable forms of the transformation laws.

Every law has a residual check returning a :class:`ResidualReport`;
only (x; q)_oo also has an evaluator of its transformed side
(qpochhammer_modular, with ramanujan_completed and q_gamma_modular
built on the same assembly).  Checks
compare two independently computed routes to the same number, so a
silent branch or sign error anywhere upstream shows up as a residual
jump rather than a wrong answer with no witness.

Residual convention: ``rel = |lhs - rhs| / max(|lhs|, |rhs|, 1e-300)``,
and the pass decision switches to the absolute residual when both sides
are below 1e-8 (relative error is meaningless near a common zero).

P enters every law here through P_minus alone: its divergent series at
q -> 1 and the asymptotic table that checks that series belong to raysum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from ._stability import cexpm1, inv_expm1, sin_ratio
from .errors import ConvergenceError, DomainError, _finite
from .qcore import (
    ModularPoint,
    _below_normal,
    _exp,
    _gamma_quotient,
    euler_series,
    lambert_L1,
    lambert_L2,
    qpochhammer,
    qpochhammer_with_count,
    theta_product_tau,
)
from .raysum import (
    M_almost_modular,
    P_minus,
    P_plus,
    RaySpec,
    big_G,
    dP_dnu,
    dP_dtau,
    integrate_ray,
    pv_M_direct,
    stokes_sum,
)
from .specialfns import TWO_PI, binet, dilog
from .specialfns import log_gamma  # noqa: F401  (perfbench's tracer wraps this name)

_TINY = 1e-300
_SMALL_SIDES = 1e-8
_EULER_GAMMA = 0.5772156649015328606

#: Per-identity default tolerances.  Sums-only identities sit at 1e-10
#: (or tighter), one-quadrature identities at 1e-8/1e-9, identities that
#: differentiate a quadrature at 1e-6/1e-7, and the principal-value
#: oracle comparison at its design accuracy of 1e-6.
TOLERANCES: dict[str, float] = {
    "euler-identity": 1e-11,
    "thm29": 1e-8,
    "ramanujan47": 1e-12,
    "eta-modular": 1e-10,
    "theta-modular": 1e-10,
    "stokes28": 1e-9,
    "reflection34": 1e-10,
    "lambert67": 1e-7,
    "lambert68": 1e-6,
    "lambert71": 1e-7,
    "lambert72": 1e-10,
    "binet74": 1e-10,
    "binet75": 1e-10,
    "M-pv": 1e-6,
}


@dataclass(frozen=True)
class ResidualReport:
    identity_id: str
    inputs: tuple[tuple[str, complex], ...]
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    skip_reason: str = ""


def compare(
    identity_id: str,
    inputs: dict[str, complex],
    lhs: complex,
    rhs: complex,
    tolerance: float | None = None,
) -> ResidualReport:
    """The residual report of lhs against rhs, judged at tolerance, or at
    the identity's TOLERANCES entry when tolerance is None."""
    if tolerance is None:
        tolerance = TOLERANCES[identity_id]
    lhs = complex(lhs)
    rhs = complex(rhs)
    if cmath.isnan(lhs - rhs):
        # fails every pass rule; abs is not taken: CPython's abs of a NaN
        # complex raises OverflowError on an errno a failed cmath call left
        abs_res = rel_res = size = math.nan
    else:
        abs_res, size = abs(lhs - rhs), max(abs(lhs), abs(rhs))
        rel_res = abs_res / max(size, _TINY)
    passed = (abs_res if size < _SMALL_SIDES else rel_res) <= tolerance
    return ResidualReport(
        identity_id=identity_id,
        inputs=tuple((k, complex(v)) for k, v in inputs.items()),
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_res,
        rel_residual=rel_res,
        tolerance=tolerance,
        passed=passed,
    )


def skipped_report(
    identity_id: str, inputs: dict[str, complex], tolerance: float | None, reason: str
) -> ResidualReport:
    """The report of a point outside the identity's domain: NaN sides,
    which fail every pass rule."""
    nan = complex(math.nan, math.nan)
    report = compare(identity_id, inputs, nan, nan, tolerance)
    return replace(report, skipped=True, skip_reason=reason)


# ---------------------------------------------------------------------------
# (x; q)_oo through the transformed variables


def _require_thm29(point: ModularPoint) -> None:
    """Raise DomainError unless the point lies in the transformation domain."""
    if not point.admissible_thm29:
        raise DomainError(
            f"point tau={point.tau}, nu={point.nu} outside the transformation domain"
        )


def _refuse_underflow(value: complex, point: ModularPoint, *factors: complex) -> complex:
    """value, unless it is below the normal double range (0 or a
    subnormal) while none of the factors that can vanish exactly
    (sqrt(1 - x) at x = 1, the q* product) is 0: then the exponential, or
    the product of the rest, underflowed, a domain error."""
    if _below_normal(value) and all(f != 0.0 for f in factors):
        raise DomainError(f"value underflows: (x;q)_oo at tau = {point.tau}, nu = {point.nu}")
    return value


def _wedge(point: ModularPoint) -> complex:
    """2 pi i nu/tau + i pi where arg tau - pi < arg nu < -pi/2 (Re tau >= 0),
    else 0: in that wedge between the cuts of Li_2 and sqrt(1 - x)
    (nu in -i (0, oo) for |Re nu| < 1) and of G (nu in -tau (0, oo)), each
    of which jumps by this term, the exponent's pieces lie on different
    sheets.  It is added to the exponent, not multiplied in as -x*, since
    x* = e^{2 pi i nu/tau} alone may overflow where the value does not.
    A nu with Im nu >= 0 lies outside the wedge and returns 0 before either
    angle is taken; so does Im nu = -0.0, whose arg is -0.0 (not below
    -pi/2) or -pi (not above arg tau - pi, which is above -pi)."""
    tau, nu = point.tau, point.nu
    if nu.imag >= 0.0:
        return 0j
    if math.atan2(tau.imag, tau.real) - math.pi < math.atan2(nu.imag, nu.real) < -0.5 * math.pi:
        return 2j * math.pi * point.nu_star + 1j * math.pi
    return 0j


def _at_lower_half(point: ModularPoint, evaluate) -> tuple[complex, int]:
    """evaluate(base), (value, n_terms), at the point base of Re tau >= 0
    and |Re nu| < 1 where (x; q)_oo takes point's value or its conjugate,
    the value conjugated back.  Where |Re nu| >= 1, nu less round(Re nu),
    which leaves x unchanged: the principal Li_2 and sqrt(1 - x) also have
    cuts on Re nu = +-1, +-2, ..., which _wedge does not join.  Then at
    Re tau < 0 the mirror point.  A refusal at base (one on G's cut
    nu/tau in (-oo, 0] after the shift among them) names both points."""
    _require_thm29(point)
    base = point
    if abs(base.nu.real) >= 1.0:
        base = ModularPoint(base.tau, base.nu - round(base.nu.real))
    if base.tau.real < 0.0:
        base = base.mirror
    if base is point:
        return evaluate(point)
    try:
        _require_thm29(base)
        value, n_terms = evaluate(base)
    except (DomainError, ConvergenceError) as exc:
        raise type(exc)(
            f"tau = {point.tau}, nu = {point.nu} evaluated at tau = {base.tau}, "
            f"nu = {base.nu}: {exc}"
        ) from exc
    return (value.conjugate() if point.tau.real < 0.0 else value), n_terms


def _transformed(point: ModularPoint, g_share: complex, prefactor=1.0) -> tuple[complex, int]:
    """prefactor q^{-1/24} sqrt(1 - x) (x* q*; q*)_oo e^{Li_2(x)/log q +
    g_share + P + wedge}, G's share of the one exponent given, and the
    product's terms.  A value that underflows is a domain error."""
    prod, n_terms = qpochhammer_with_count(point.x_star_q_star, point.q_star)
    expo = dilog(point.x) / point.log_q + g_share + P_minus(point) + _wedge(point)
    root = cmath.sqrt(1.0 - point.x)
    value = _finite(prefactor * _exp(-point.log_q / 24) * root * prod * _exp(expo))
    return _refuse_underflow(value, point, root, prod), n_terms


def _modular_with_count(point: ModularPoint) -> tuple[complex, int]:
    return _transformed(point, big_G(point))


def qpochhammer_modular_with_count(point: ModularPoint) -> tuple[complex, int]:
    """Transformed-side evaluation of (x; q)_oo, plus the number of
    product terms the (tau*, nu*) side actually needed, at the point
    _at_lower_half reduces to.  A value that underflows past the normal
    double range is a domain error."""
    return _at_lower_half(point, _modular_with_count)


def qpochhammer_modular(point: ModularPoint) -> complex:
    return qpochhammer_modular_with_count(point)[0]


def _ramanujan(point: ModularPoint) -> tuple[complex, int]:
    s = point.nu_star
    stirling = big_G(point) - 0.5 * cmath.log(TWO_PI * s)
    return _transformed(point, stirling, math.sqrt(TWO_PI) * cmath.sqrt(s))


def ramanujan_completed(point: ModularPoint) -> complex:
    """The completed product formula with the Stirling factor written out.

    Equivalent to :func:`qpochhammer_modular` because
    exp(G) = sqrt(2 pi s) e^{s log s - s} / Gamma(s+1).  The Stirling
    factor e^{s log s - s} / Gamma(s+1) enters the exponent as
    G - log(2 pi s)/2, never as its two halves of size |s log s|, and the
    roots are taken individually principal, sqrt(2 pi) sqrt(s) sqrt(1 - x)
    = sqrt(2 pi s) sqrt(1 - x).  The rest is the modular route's assembly
    (_transformed), so their residual tests the Stirling factor and roots.
    A value that underflows past the normal double range is a domain error.
    """
    return _at_lower_half(point, _ramanujan)[0]


def thm29_residual(point: ModularPoint) -> ResidualReport:
    lhs = qpochhammer(point.x, point.q)
    rhs = qpochhammer_modular(point)
    return compare("thm29", {"tau": point.tau, "nu": point.nu}, lhs, rhs)


def ramanujan_residual(point: ModularPoint) -> ResidualReport:
    lhs = qpochhammer_modular(point)
    rhs = ramanujan_completed(point)
    return compare("ramanujan47", {"tau": point.tau, "nu": point.nu}, lhs, rhs)


def euler_residual(x: complex, q: complex) -> ResidualReport:
    lhs = qpochhammer(x, q)
    rhs = euler_series(x, q)
    return compare("euler-identity", {"x": x, "q": q}, lhs, rhs)


# ---------------------------------------------------------------------------
# eta and theta


def eta_modular_residual(tau: complex) -> ResidualReport:
    """(q; q)_oo against its inverted-tau expression."""
    tau = complex(tau)
    point = ModularPoint(tau, tau)  # x = q
    lhs = qpochhammer(point.q, point.q)
    rhs = (
        _exp(-point.log_q / 24)  # q^{-1/24}
        * cmath.sqrt(1j / tau)
        * cmath.exp(1j * math.pi * point.tau_star / 12)
        * qpochhammer(point.q_star, point.q_star)
    )
    return compare("eta-modular", {"tau": tau}, lhs, rhs)


def theta_modular_residual(tau: complex, nu: complex) -> ResidualReport:
    """Jacobi triple-product theta against its inverted-tau expression.

    The root sqrt(i/(tau x)) is read as sqrt(i/tau) e^{-pi i nu} (the
    nu-defined branch; equal to the principal root for |Re nu| < 1/2).
    """
    point = ModularPoint(tau, nu)
    lhs = theta_product_tau(point.tau, point.x)
    w = TWO_PI * 1j * (point.nu - point.tau / 2.0)  # log(x / sqrt(q))
    rhs = (
        cmath.exp(1j * math.pi * point.tau / 4.0)  # q^{1/8}
        * cmath.sqrt(1j / point.tau)
        * _exp(-1j * math.pi * point.nu)
        * _exp(-(w * w) / (2.0 * point.log_q))
        * theta_product_tau(point.tau_star, point.x_star)
    )
    return compare("theta-modular", {"tau": point.tau, "nu": point.nu}, lhs, rhs)


# ---------------------------------------------------------------------------
# Stokes and reflection


def stokes_residual(point: ModularPoint) -> ResidualReport:
    lhs = P_minus(point) - P_plus(point)
    rhs = stokes_sum(point)
    return compare("stokes28", {"tau": point.tau, "nu": point.nu}, lhs, rhs)


def reflection_residual(point: ModularPoint) -> ResidualReport:
    """G(tau, nu) + G(tau, -nu) against log(1 - x*) at whichever of
    nu and -nu puts nu/tau in the upper half-plane, where x* =
    e^{2 pi i nu/tau} decays; nu/tau real is a branch boundary and is
    rejected.  ``specialfns.binet`` evaluates Re s < 0 through this same
    reflection, so the residual alone cannot catch an error in it; the
    mpmath oracle test of ``binet`` on both half-planes is what makes
    the check independent.
    """
    s = point.nu_star
    if s.imag == 0.0:
        raise DomainError("nu/tau is real: reflection needs s off the real axis")
    reflected = ModularPoint(point.tau, -point.nu)
    lhs = big_G(point) + big_G(reflected)
    rhs = cmath.log(1.0 - (point if s.imag > 0.0 else reflected).x_star)
    return compare("reflection34", {"tau": point.tau, "nu": point.nu}, lhs, rhs)


# ---------------------------------------------------------------------------
# Lambert-sum relations


def lambert_relation_residuals(point: ModularPoint, which: int) -> ResidualReport:
    """The four Lambert-sum transformation relations.

    ``which`` selects the relation: 67/68 involve a generic nu (and the
    nu- resp. tau-derivative of P); 71/72 are their nu = 0 limit cases
    and ignore point.nu.
    """
    if which not in (67, 68, 71, 72):
        raise DomainError(f"unknown Lambert relation {which!r}; expected 67/68/71/72")
    ident = f"lambert{which}"
    tau = point.tau
    l2pit = point.log_q  # 2 pi i tau

    if which in (71, 72):
        inputs = {"tau": tau}
        star_pt = ModularPoint(point.tau_star, point.tau_star)
        if which == 72:
            lhs = lambert_L2(ModularPoint(tau, tau))
            rhs = (
                1.0 / 24.0
                + 1.0 / (4j * math.pi * tau)
                - 1.0 / (24.0 * tau * tau)
                + lambert_L2(star_pt) / tau**2
            )
        else:
            lhs = lambert_L1(ModularPoint(tau, tau))
            rhs = (
                cmath.log(-l2pit) / l2pit
                + 0.25
                - _EULER_GAMMA / l2pit
                - dP_dnu(ModularPoint(tau, 0.0)) / (2j * math.pi)
                + lambert_L1(star_pt) / tau
            )
        return compare(ident, inputs, lhs, rhs)

    s = point.nu_star
    if point.nu == 0 or (s.imag == 0.0 and s.real <= 0.0):
        raise DomainError(f"nu/tau = {s} violates the relation-{which} domain")
    inputs = {"tau": tau, "nu": point.nu}
    x = point.x
    shifted_star = ModularPoint(point.tau_star, point.nu_star + point.tau_star)
    if which == 67:
        lhs = lambert_L1(ModularPoint(tau, point.nu + tau))
        # psi(s + 1) - log s - 1/(2s) = mu'(s)
        bracket = binet(s, True) - tau * dP_dnu(point)
        rhs = (
            cmath.log(1.0 - x) / l2pit
            - x / (2.0 * (1.0 - x))
            + lambert_L1(shifted_star) / tau
            + bracket / l2pit
        )
    else:
        lhs = lambert_L2(ModularPoint(tau, point.nu + tau))
        bracket = binet(s, True) + tau * tau / point.nu * dP_dtau(point)
        rhs = (
            1.0 / 24.0
            - dilog(x) / (4.0 * math.pi**2) / tau**2
            - lambert_L1(shifted_star) * point.nu / tau**2
            + lambert_L2(shifted_star) / tau**2
            - point.nu / (2j * math.pi * tau**2) * bracket
        )
    return compare(ident, inputs, lhs, rhs)


# ---------------------------------------------------------------------------
# Binet validation integrals


def _binet_spec(lam: complex) -> RaySpec:
    """The real axis, along which both Binet integrands decay like
    e^{-(2 pi - |Im lam|) u}."""
    return RaySpec(direction_d=0.0, decay=TWO_PI - abs(lam.imag))


def binet74_residual(lam: complex) -> ResidualReport:
    """Integral of sin(lam u)/(e^{2 pi u} - 1) = sin_ratio(i lam/(2 pi),
    -2 pi i u) over u > 0 vs closed form."""
    lam = complex(lam)
    if abs(lam.imag) >= TWO_PI:
        raise DomainError(f"|Im lam| = {abs(lam.imag)} >= 2 pi: integral diverges")
    nu = 1j * lam / TWO_PI
    lhs = integrate_ray(lambda u: sin_ratio(nu, -TWO_PI * 1j * u), _binet_spec(lam)).value
    rhs = 0.25 + 0.5 * (inv_expm1(lam) - 1.0 / lam)
    return compare("binet74", {"lambda": lam}, lhs, rhs)


def binet75_residual(lam: complex) -> ResidualReport:
    """Integral of (1 - cos(lam u))/((e^{2 pi u} - 1) u), even in lam, vs its
    closed form, principal at whichever of +-lam has Re >= 0.  The integrand
    is 2 sin_ratio(i lam/(2 pi), -i pi u)^2 tanh(pi u/2)/u: exact, and free
    of cancellation as u -> 0."""
    lam = complex(lam)
    if abs(lam.imag) >= TWO_PI:
        raise DomainError(f"|Im lam| = {abs(lam.imag)} >= 2 pi: integral diverges")
    nu = 1j * lam / TWO_PI

    def integrand(u):
        return 2.0 * sin_ratio(nu, -math.pi * 1j * u) ** 2 * np.tanh(0.5 * math.pi * u) / u

    lhs = integrate_ray(integrand, _binet_spec(lam)).value
    even = lam if lam.real >= 0.0 else -lam
    rhs = even / 4.0 + 0.5 * cmath.log(-cexpm1(-even) / even)
    return compare("binet75", {"lambda": lam}, lhs, rhs)


def mpv_residual(alpha: float, xi: float) -> ResidualReport:
    """The almost-modular M against the principal-value route."""
    lhs = M_almost_modular(alpha, xi)
    rhs = pv_M_direct(alpha, xi)
    return compare("M-pv", {"alpha": alpha, "xi": xi}, lhs, rhs)


# ---------------------------------------------------------------------------
# q -> 1 helpers built on the transformed side


def q_gamma_modular(z: complex, tau: complex) -> complex:
    """Jackson's q-Gamma with both infinite products routed through the
    transformed variables; stays cheap as q -> 1 (tau -> 0 along iR+)
    until a product leaves the double range, which is a domain error."""
    z = complex(z)
    tau = complex(tau)
    num = qpochhammer_modular(ModularPoint(tau, tau))
    den = qpochhammer_modular(ModularPoint(tau, z * tau))
    one_minus_q = -cexpm1(TWO_PI * 1j * tau)
    return _gamma_quotient(num, den) * _exp((1.0 - z) * cmath.log(one_minus_q))
