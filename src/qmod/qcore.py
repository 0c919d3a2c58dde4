"""Direct series/product evaluation of the q-objects.

Everything here converges by brute force inside the unit q-disk:
the infinite product (x;q)_oo, Euler's series for it, Jackson's q-Gamma,
Dedekind eta, Jacobi theta in product and Laurent form, and the
generalized Lambert series L1/L2.  These are the slow-but-sure oracles
the modular identities are checked against; nothing in this module knows
about modular transformations.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import ConvergenceError, DomainError

TWO_PI = 2.0 * math.pi
POLE_GUARD = 1e-12


@dataclass(frozen=True)
class Truncation:
    """Stopping policy of the direct product; other series use
    ``DEFAULT_TRUNCATION``.

    term_tol is a certified absolute tail bound, not a per-term test:
    each evaluator stops only once its specific tail estimate (geometric
    for products, Gaussian-geometric for theta, weighted-geometric for
    Lambert sums) drops below it.
    """

    term_tol: float = 1e-16
    max_terms: int = 10**6

    def __post_init__(self):
        if not self.term_tol > 0.0:
            raise DomainError("term_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_TRUNCATION = Truncation()


@dataclass(frozen=True)
class ModularPoint:
    """A point (tau, nu) with Im tau > 0 and its starred partner.

    Derived quantities use the exact exponential conventions
    q = e^{2 pi i tau}, x = e^{2 pi i nu}, tau* = -1/tau, nu* = nu/tau;
    in particular log_q is 2 pi i tau itself, never a principal log of
    the computed q (which would be wrong off the imaginary axis).
    """

    tau: complex
    nu: complex = 0j

    def __post_init__(self):
        tau = complex(self.tau)
        if not tau.imag > 0.0:
            raise DomainError(f"Im tau must be positive, got {tau}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "nu", complex(self.nu))

    @classmethod
    def real_case(cls, alpha: float, xi: float) -> "ModularPoint":
        """The real embedding tau = i*alpha, nu = i*xi*alpha, so that
        q = e^{-2 pi alpha} and x = q^xi."""
        if not alpha > 0.0:
            raise DomainError("alpha must be positive")
        return cls(1j * alpha, 1j * xi * alpha)

    @cached_property
    def log_q(self) -> complex:
        return 2j * math.pi * self.tau

    @cached_property
    def q(self) -> complex:
        return cmath.exp(self.log_q)

    @cached_property
    def x(self) -> complex:
        return cmath.exp(2j * math.pi * self.nu)

    @cached_property
    def sqrt_q(self) -> complex:
        return cmath.exp(1j * math.pi * self.tau)

    @cached_property
    def tau_star(self) -> complex:
        return -1.0 / self.tau

    @cached_property
    def nu_star(self) -> complex:
        return self.nu / self.tau

    @cached_property
    def q_star(self) -> complex:
        return cmath.exp(2j * math.pi * self.tau_star)

    @cached_property
    def x_star(self) -> complex:
        return cmath.exp(2j * math.pi * self.nu_star)

    @cached_property
    def s(self) -> complex:
        """nu/tau (same number as nu_star; kept under its own name)."""
        return self.nu / self.tau

    @cached_property
    def admissible_thm29(self) -> bool:
        """True iff nu avoids (-oo,-1] u [1,oo) and nu/tau avoids (-oo,0]."""
        nu = self.nu
        if nu.imag == 0.0 and abs(nu.real) >= 1.0:
            return False
        s = self.s
        if s.imag == 0.0 and s.real <= 0.0:
            return False
        return True


def qpochhammer_with_count(
    x: complex, q: complex, tr: Truncation | None = None
) -> tuple[complex, int]:
    """(x;q)_oo together with the number N of factors used.

    N is fixed in advance from the tail bound |x q^N|/(1-|q|) < term_tol.
    """
    tr = DEFAULT_TRUNCATION if tr is None else tr
    x = complex(x)
    q = complex(q)
    aq = abs(q)
    if aq >= 1.0:
        raise DomainError(f"|q| must be < 1, got {aq}")
    ax = abs(x)
    if ax == 0.0:
        return 1.0 + 0.0j, 0
    if aq == 0.0:
        return 1.0 - x, 1
    need = tr.term_tol * (1.0 - aq) / ax
    if need >= 1.0:
        return 1.0 + 0.0j, 0
    n_factors = math.ceil(math.log(need) / math.log(aq))
    if n_factors > tr.max_terms:
        raise ConvergenceError(
            f"(x;q)_oo needs {n_factors} factors, budget {tr.max_terms}"
        )
    value = 1.0 + 0.0j
    xq = x
    for _ in range(n_factors):
        value *= 1.0 - xq
        xq *= q
    return value, n_factors


def qpochhammer(x: complex, q: complex, tr: Truncation | None = None) -> complex:
    """The infinite product (x;q)_oo = prod_{n>=0} (1 - x q^n), |q| < 1."""
    return qpochhammer_with_count(x, q, tr)[0]


def euler_series(x: complex, q: complex) -> complex:
    """sum_{n>=0} q^{n(n-1)/2} (-x)^n / (q;q)_n, equal to (x;q)_oo."""
    tr = DEFAULT_TRUNCATION
    x = complex(x)
    q = complex(q)
    aq = abs(q)
    if aq >= 1.0:
        raise DomainError(f"|q| must be < 1, got {aq}")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    qn_minus1 = 1.0 + 0.0j  # q^{n-1}
    qn = q  # q^n
    for _ in range(tr.max_terms):
        term *= qn_minus1 * (-x) / (1.0 - qn)
        total += term
        # once the term ratio is certainly below 1/2 the tail is < |term|
        ratio = abs(qn) * abs(x) / (1.0 - aq)
        if ratio < 0.5 and abs(term) < 0.5 * tr.term_tol:
            return total
        qn_minus1 = qn
        qn *= q
    raise ConvergenceError(f"Euler series did not settle in {tr.max_terms} terms")


def q_gamma(z: complex, q: complex) -> complex:
    """Jackson's q-Gamma: (q;q)_oo / (q^z;q)_oo * (1-q)^{1-z}.

    Principal-branch powers of the computed q.  Poles where q^z falls on
    {1, q^{-1}, q^{-2}, ...} are rejected.
    """
    z = complex(z)
    q = complex(q)
    aq = abs(q)
    if not 0.0 < aq < 1.0:
        raise DomainError(f"need 0 < |q| < 1, got {aq}")
    log_q = cmath.log(q)
    qz = cmath.exp(z * log_q)
    # a denominator factor 1 - q^{z+n} can vanish only where |q^{z+n}| = 1,
    # that is at n0 = -Re(z log q) / log|q|: its neighbours are the only
    # candidate poles, so the test costs the same however close |q| is to 1
    n0 = -(z * log_q).real / log_q.real
    for n in {math.floor(n0), math.ceil(n0)}:
        if n >= 0 and abs(1.0 - cmath.exp((z + n) * log_q)) < POLE_GUARD:
            raise DomainError(f"q_gamma pole: q^z q^n = 1 near z = {z}")
    num, _ = qpochhammer_with_count(q, q)
    den, _ = qpochhammer_with_count(qz, q)
    return _gamma_quotient(num, den) * cmath.exp((1.0 - z) * cmath.log(1.0 - q))


def _gamma_quotient(num: complex, den: complex) -> complex:
    """num / den, the two infinite products of a q-Gamma value.

    A product outside the normal double range has lost its digits (as
    q -> 1 both underflow long before their quotient does), so that is
    a domain error rather than a quietly wrong quotient.
    """
    for v in (num, den):
        if not sys.float_info.min <= abs(v) <= sys.float_info.max:
            raise DomainError(
                f"q-Gamma product {v} is outside the normal double range"
            )
    return num / den


def eta(tau: complex) -> complex:
    """Dedekind eta(tau) = e^{pi i tau / 12} (q;q)_oo, Im tau > 0."""
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise DomainError(f"Im tau must be positive, got {tau}")
    q = cmath.exp(2j * math.pi * tau)
    return cmath.exp(1j * math.pi * tau / 12.0) * qpochhammer(q, q)


def _check_theta_args(q: complex, x: complex) -> tuple[complex, complex]:
    q = complex(q)
    x = complex(x)
    if not 0.0 < abs(q) < 1.0:
        raise DomainError(f"need 0 < |q| < 1, got |q| = {abs(q)}")
    if x == 0:
        raise DomainError("x must be nonzero")
    return q, x


def theta_product(q: complex, x: complex) -> complex:
    """Jacobi theta as the triple product (q;q)(-sqrt(q) x;q)(-sqrt(q)/x;q).

    sqrt(q) is principal, so q on the cut (-oo, 0] is rejected; use
    :func:`theta_product_tau` when the half-period convention e^{pi i tau}
    matters.
    """
    q, x = _check_theta_args(q, x)
    if q.imag == 0.0 and q.real < 0.0:
        raise DomainError("q on the negative real axis: principal sqrt(q) is "
                          "ambiguous, call theta_product_tau instead")
    return _triple_product(q, cmath.sqrt(q), x)


def theta_product_tau(tau: complex, x: complex) -> complex:
    """Triple product with q = e^{2 pi i tau} and sqrt(q) := e^{pi i tau}."""
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise DomainError(f"Im tau must be positive, got {tau}")
    if x == 0:
        raise DomainError("x must be nonzero")
    q = cmath.exp(2j * math.pi * tau)
    return _triple_product(q, cmath.exp(1j * math.pi * tau), x)


def _triple_product(q: complex, sqrt_q: complex, x: complex) -> complex:
    """(q;q)(-sqrt_q x;q)(-sqrt_q/x;q) for the caller's choice of sqrt(q)."""
    return (
        qpochhammer(q, q)
        * qpochhammer(-sqrt_q * x, q)
        * qpochhammer(-sqrt_q / x, q)
    )


def theta_laurent(q: complex, x: complex) -> complex:
    """Jacobi theta as the symmetric Laurent sum sum_{n in Z} q^{n^2/2} x^n.

    Stops once the Gaussian-geometric tail bound
    |q|^{N^2/2} (|x|^N + |x|^{-N}) / (1 - |q|^N) is below term_tol.
    """
    tr = DEFAULT_TRUNCATION
    q, x = _check_theta_args(q, x)
    rq = cmath.exp(0.5 * cmath.log(q))  # principal q^{1/2}
    log_aq = math.log(abs(q))
    abs_log_ax = abs(math.log(abs(x)))
    log_tol = math.log(tr.term_tol)
    total = 1.0 + 0.0j
    gauss = rq  # q^{n^2/2}; grows by the factor q^{n + 1/2} each step
    fac = rq
    xp = x
    xm = 1.0 / x
    for n in range(1, tr.max_terms + 1):
        total += gauss * (xp + xm)
        xp *= x
        xm /= x
        fac *= q
        gauss *= fac
        m = n + 1
        log_bound = (
            0.5 * m * m * log_aq
            + m * abs_log_ax
            + math.log1p(math.exp(-2.0 * m * abs_log_ax))
            - math.log1p(-math.exp(m * log_aq))
        )
        if log_bound < log_tol:
            return total
    raise ConvergenceError(f"theta sum did not settle in {tr.max_terms} terms")


def _lambert_terms(point: ModularPoint):
    """Yield (n, x q^n / (1 - x q^n)) with pole guarding and a tail flag."""
    x = point.x
    q = point.q
    aq = abs(q)
    xq = x
    tr = DEFAULT_TRUNCATION
    for n in range(tr.max_terms):
        den = 1.0 - xq
        if abs(den) < POLE_GUARD:
            raise DomainError(f"Lambert denominator vanishes at n = {n}")
        yield n, xq / den, abs(xq) / (1.0 - aq)
        xq *= q
    raise ConvergenceError(f"Lambert series did not settle in {tr.max_terms} terms")


def lambert_L1(point: ModularPoint) -> complex:
    """L1(tau, nu) = sum_{n>=0} x q^n / (1 - x q^n)."""
    tr = DEFAULT_TRUNCATION
    total = 0.0 + 0.0j
    for n, term, geo_tail in _lambert_terms(point):
        total += term
        # for |x q^n| <= 1/2 each later term is <= 2 |x q^m|
        if geo_tail * abs(point.q) * 2.0 < 0.5 * tr.term_tol and abs(term) <= 1.0:
            return total
    raise AssertionError("unreachable")


def lambert_L2(point: ModularPoint) -> complex:
    """L2(tau, nu) = sum_{n>=0} (n+1) x q^n / (1 - x q^n)."""
    tr = DEFAULT_TRUNCATION
    total = 0.0 + 0.0j
    aq = abs(point.q)
    for n, term, geo_tail in _lambert_terms(point):
        total += (n + 1) * term
        weighted_tail = (
            2.0 * geo_tail * aq * ((n + 2) / (1.0 - aq) + aq / (1.0 - aq) ** 2)
        )
        if weighted_tail < 0.5 * tr.term_tol and abs(term) <= 1.0:
            return total
    raise AssertionError("unreachable")


def log_qpochhammer_real(alpha: float, xi: float) -> float:
    """log (q^{1+xi}; q)_oo at q = e^{-2 pi alpha}, summed factor-by-factor.

    Every factor lies in (0,1), so the result is a plain real log-sum;
    this is the left-hand side of the almost-modular real identity and
    deliberately never touches complex arithmetic.
    """
    tr = DEFAULT_TRUNCATION
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    if not xi > -1.0:
        raise DomainError("xi must exceed -1")
    a = TWO_PI * alpha
    one_minus_q = -math.expm1(-a)
    total = 0.0
    for n in range(tr.max_terms):
        u = math.exp(-a * (1.0 + xi + n))
        total += math.log1p(-u)
        if u / one_minus_q < tr.term_tol:
            return total
    raise ConvergenceError(f"product log did not settle in {tr.max_terms} terms")
