"""Direct series/product evaluation of the q-objects.

Everything here is summed term by term inside the unit q-disk: the
infinite product (x;q)_oo, Euler's series for it, Jackson's q-Gamma,
Dedekind eta, Jacobi theta as a triple product, and the
generalized Lambert series L1/L2.  These are the slow-but-sure oracles
the modular identities are checked against.  ModularPoint forms a
point's exponentials on both sides of the modular transformation.

A long product (x;q)_oo, which the tail rule makes about 6/alpha factors
at q = e^{-2 pi alpha}, runs in numpy blocks rather than a Python loop.
The blocks repeat the loop's floating-point operations exactly, each power
the previous one times q and each factor multiplied into the running
value in order, so the result is bit for bit the loop's.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError
from .specialfns import POLE_GUARD


#: every series stops once the terms it leaves out sum below TERM_TOL in
#: modulus, and refuses, before its first term, to need more than MAX_TERMS
TERM_TOL = 1e-16
MAX_TERMS = 10**6
#: a sum whose terms dwarf it is refused where its rounding may exceed
#: ROUND_TOL of its value, or the absolute ROUND_TOL * SMALL_SUM for a value
#: below SMALL_SUM: the residual checks judge small values absolutely, and a
#: short sum that cancels to a small value (1 - x at q = 0) is returned
ROUND_TOL = 1e-11
SMALL_SUM = 1e-2
#: (x;q)_oo runs a plain loop up to _LOOP_FACTORS factors, where numpy's
#: per-call cost outweighs it, and numpy blocks of _BLOCK_FACTORS beyond
_LOOP_FACTORS = 80
_BLOCK_FACTORS = 4096


def _tail_length(amplitude: float, ratio: float, series: str, unit: str = "terms") -> int:
    """Terms of a series whose n-th term is at most amplitude * ratio^n.

    The smallest N with amplitude ratio^N / (1 - ratio) < TERM_TOL, which
    bounds the terms from N on; ConvergenceError when N > MAX_TERMS or no N exists.
    """
    need = TERM_TOL * (1.0 - ratio) / amplitude if amplitude else 1.0
    if need >= 1.0:
        return 0
    if ratio == 0.0:
        return 1
    if need == 0.0:  # where the ratio rounds to 1
        raise ConvergenceError(
            f"{series}: its ratio rounds to 1, so no number of {unit} reaches TERM_TOL"
        )
    n = math.ceil(math.log(need) / math.log(ratio))
    if n > MAX_TERMS:
        raise ConvergenceError(f"{series} needs {n} {unit}, budget {MAX_TERMS}")
    return n


def _exp(expo: complex) -> complex:
    """e^expo, where a value past the double range or a non-finite exponent
    (on which cmath.exp returns nan quietly or raises) is a domain error."""
    try:
        return cmath.exp(_finite(expo, "exponent"))
    except OverflowError:
        raise DomainError(f"value overflows: exponent {expo}") from None


def _finite(value: complex, name: str = "value") -> complex:
    """A value that must lie in the double range: an overflowed product or
    sum is a domain error, not inf or nan."""
    if not cmath.isfinite(value):
        raise DomainError(f"{name} is not finite: {value}")
    return value


def _below_normal(value: complex) -> bool:
    """|value| < the smallest normal double: 0, or a subnormal, which has
    lost its digits and, once it is the smallest, stops falling.  The
    parts are tested first, so that abs cannot overflow."""
    tiny = sys.float_info.min
    return abs(value.real) < tiny and abs(value.imag) < tiny and abs(value) < tiny


def admitted_rounding(value: complex) -> float:
    """The rounding error a sum refused past ROUND_TOL may carry in value."""
    return ROUND_TOL * max(abs(value), SMALL_SUM)


def _refuse_cancellation(total: complex, abs_sum: float, n_terms: int, series: str) -> None:
    """DomainError where the n_terms additions, each rounding by at most
    2^-53 of abs_sum (the sum of |terms|), may carry more than
    admitted_rounding(total)."""
    if _finite(abs_sum) * n_terms * 2.0**-53 > admitted_rounding(total):
        raise DomainError(
            f"{series} cancels: sum of |terms| {abs_sum:.3e}, value {abs(total):.3e}"
        )


@dataclass(frozen=True)
class ModularPoint:
    """A point (tau, nu) with Im tau > 0 and its starred partner.

    Derived quantities use the exact exponential conventions
    q = e^{2 pi i tau}, x = e^{2 pi i nu}, tau* = -1/tau, nu* = nu/tau;
    in particular log_q is 2 pi i tau itself, never a principal log of
    the computed q (which would be wrong off the imaginary axis).  q and
    q* lie in the unit disk; tau* and nu* that are not finite and x, x*
    and x* q* that overflow (_exp) are a DomainError, for every consumer.
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
        return _exp(2j * math.pi * self.nu)

    @cached_property
    def tau_star(self) -> complex:
        return _finite(-1.0 / self.tau, "tau* = -1/tau")

    @cached_property
    def nu_star(self) -> complex:
        return _finite(self.nu / self.tau, "nu* = nu/tau")

    @cached_property
    def q_star(self) -> complex:
        return cmath.exp(2j * math.pi * self.tau_star)

    @cached_property
    def x_star(self) -> complex:
        return _exp(2j * math.pi * self.nu_star)

    @cached_property
    def x_star_q_star(self) -> complex:
        """x* q* = e^{2 pi i (nu - 1)/tau} as one exponential: x* alone
        overflows where the product is still representable."""
        return _exp(2j * math.pi * (self.nu - 1.0) / self.tau)

    @cached_property
    def mirror(self) -> "ModularPoint":
        """(-conj tau, -conj nu), where q, x and every function of them
        real-analytic in (q, x) take their conjugate values."""
        return ModularPoint(-self.tau.conjugate(), -self.nu.conjugate())

    @cached_property
    def admissible_thm29(self) -> bool:
        """True iff nu avoids (-oo,-1] u [1,oo) and nu/tau avoids (-oo,0]:
        the domain of the transformation formula, on all of which it holds
        for |Re nu| < 1 and Re tau >= 0 once the sheets of Li_2 and G agree
        (modularity._wedge), and elsewhere through nu - round(Re nu) and the
        mirror point (modularity._at_lower_half)."""
        nu = self.nu
        if nu.imag == 0.0 and abs(nu.real) >= 1.0:
            return False
        s = self.nu_star
        if s.imag == 0.0 and s.real <= 0.0:
            return False
        return True


def _power_blocks(x: complex, q: complex, n_factors: int):
    """Yield the powers x q^k, k < n_factors, in numpy blocks of at most
    _BLOCK_FACTORS, each the previous power times q as the loop forms it
    (a running product over [x q^k, q, q, ...])."""
    steps = np.full(min(n_factors, _BLOCK_FACTORS), q)
    xq = x
    for start in range(0, n_factors, _BLOCK_FACTORS):
        m = min(_BLOCK_FACTORS, n_factors - start)
        steps[0] = xq
        powers = np.multiply.accumulate(steps[:m])
        yield powers
        xq = complex(powers[-1]) * q


def _product(x: complex, q: complex, n_factors: int) -> complex:
    """prod_{k < n_factors} (1 - x q^k), multiplied in order from k = 0.

    Short products run as a plain loop.  Long ones run in numpy blocks
    whose first entry is the running value, so every product and power
    is the same floating-point operation on the same operands as in the
    loop, and the result is bit for bit the loop's.  Starting each block
    from 1, or forming the powers as exp(k log q), would round
    differently, so every long product would move.
    """
    value = 1.0 + 0.0j
    if n_factors <= _LOOP_FACTORS:
        xq = x
        for _ in range(n_factors):
            value *= 1.0 - xq
            xq *= q
        return value
    factors = np.empty(min(n_factors, _BLOCK_FACTORS) + 1, dtype=complex)
    # an overflow or 0 * inf inside a block is caught by _finite afterwards
    with np.errstate(over="ignore", invalid="ignore"):
        for powers in _power_blocks(x, q, n_factors):
            m = len(powers)
            factors[0] = value
            np.subtract(1.0, powers, out=factors[1 : m + 1])
            value = complex(np.multiply.reduce(factors[: m + 1]))
    return value


def _has_zero_factor(x: complex, q: complex, n_factors: int) -> bool:
    """True iff some computed factor 1 - x q^k, k < n_factors, is 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return any((powers == 1.0).any() for powers in _power_blocks(x, q, n_factors))


def qpochhammer_with_count(x: complex, q: complex) -> tuple[complex, int]:
    """(x;q)_oo together with the number N of factors used.

    N is fixed in advance from the tail bound |x q^N|/(1-|q|) < TERM_TOL.
    A product below the normal double range with no factor 0 (0 or a
    subnormal) is a domain error.
    """
    x = complex(x)
    q = complex(q)
    aq = abs(q)
    if aq >= 1.0:
        raise DomainError(f"|q| must be < 1, got {aq}")
    n_factors = _tail_length(abs(x), aq, "(x;q)_oo", "factors")
    value = _finite(_product(x, q, n_factors))
    if _below_normal(value) and not _has_zero_factor(x, q, n_factors):
        raise DomainError(f"value underflows: (x;q)_oo at x = {x}, q = {q}")
    return value, n_factors


def qpochhammer(x: complex, q: complex) -> complex:
    """The infinite product (x;q)_oo = prod_{n>=0} (1 - x q^n), |q| < 1."""
    return qpochhammer_with_count(x, q)[0]


def euler_series(x: complex, q: complex) -> complex:
    """sum_{n>=0} q^{n(n-1)/2} (-x)^n / (q;q)_n, equal to (x;q)_oo.

    Refused where the sum cancels past ROUND_TOL of its value: its terms
    can exceed the product by many orders of magnitude as |q| -> 1.
    """
    x = complex(x)
    q = complex(q)
    aq = abs(q)
    if aq >= 1.0:
        raise DomainError(f"|q| must be < 1, got {aq}")
    # the ratio of term n+1 to term n is at most |x q^n| / (1 - |q|), which
    # the tail rule at amplitude 2 TERM_TOL |x| puts below 1/2 from n_half on:
    # past it a term bounds the tail, and a finite term (below 2^1024) halves
    # to below TERM_TOL / 2 within 1100 more
    n_half = _tail_length(2.0 * TERM_TOL * abs(x), aq, "Euler series")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    abs_sum = 1.0
    qn_minus1 = 1.0 + 0.0j  # q^{n-1}
    qn = q  # q^n
    for n in range(1, n_half + 1100):
        term *= qn_minus1 * (-x) / (1.0 - qn)
        total += term
        size = abs(term.real) + abs(term.imag)  # >= |term|, and cannot overflow
        abs_sum += size
        if n >= n_half and size < 0.5 * TERM_TOL:
            break
        qn_minus1 = qn
        qn *= q
    _refuse_cancellation(total, abs_sum, n, "Euler series")
    return total


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
    qz = _exp(z * log_q)
    # a denominator factor 1 - q^{z+n} can vanish only where |q^{z+n}| = 1,
    # that is at n0 = -Re(z log q) / log|q|: its neighbours are the only
    # candidate poles, so the test costs the same however close |q| is to 1
    n0 = -(z * log_q).real / log_q.real
    for n in {math.floor(n0), math.ceil(n0)}:
        if n >= 0 and abs(1.0 - cmath.exp((z + n) * log_q)) < POLE_GUARD:
            raise DomainError(f"q_gamma pole: q^z q^n = 1 near z = {z}")
    num, _ = qpochhammer_with_count(q, q)
    den, _ = qpochhammer_with_count(qz, q)
    return _gamma_quotient(num, den) * _exp((1.0 - z) * cmath.log(1.0 - q))


def _gamma_quotient(num: complex, den: complex) -> complex:
    """num / den, the two infinite products of a q-Gamma value: both have
    refused a value outside the normal double range that no factor 0
    explains (as q -> 1 both underflow long before their quotient does)."""
    if den == 0:
        raise DomainError(f"q-Gamma pole: its denominator product is 0 (numerator {num})")
    return num / den


def eta(tau: complex) -> complex:
    """Dedekind eta(tau) = e^{pi i tau / 12} (q;q)_oo, Im tau > 0."""
    point = ModularPoint(tau)
    return cmath.exp(point.log_q / 24) * qpochhammer(point.q, point.q)


def theta_product(q: complex, x: complex) -> complex:
    """Jacobi theta as the triple product (q;q)(-sqrt(q) x;q)(-sqrt(q)/x;q).

    sqrt(q) is principal, so q on the cut (-oo, 0] is rejected; use
    :func:`theta_product_tau` when the half-period convention e^{pi i tau}
    matters.
    """
    q = complex(q)
    x = complex(x)
    if not 0.0 < abs(q) < 1.0:
        raise DomainError(f"need 0 < |q| < 1, got |q| = {abs(q)}")
    if x == 0:
        raise DomainError("x must be nonzero")
    if q.imag == 0.0 and q.real < 0.0:
        raise DomainError("q on the negative real axis: principal sqrt(q) is "
                          "ambiguous, call theta_product_tau instead")
    return _triple_product(q, cmath.sqrt(q), x)


def theta_product_tau(tau: complex, x: complex) -> complex:
    """Triple product with q = e^{2 pi i tau} and sqrt(q) := e^{pi i tau}."""
    point = ModularPoint(tau)
    if x == 0:
        raise DomainError("x must be nonzero")
    return _triple_product(point.q, cmath.exp(0.5 * point.log_q), x)


def _triple_product(q: complex, sqrt_q: complex, x: complex) -> complex:
    """(q;q)(-sqrt_q x;q)(-sqrt_q/x;q) for the caller's choice of sqrt(q)."""
    return (
        qpochhammer(q, q)
        * qpochhammer(-sqrt_q * x, q)
        * qpochhammer(-sqrt_q / x, q)
    )


def _lambert_terms(point: ModularPoint, n_terms: int):
    """Yield x q^n / (1 - x q^n) for n < n_terms, guarding the poles."""
    x = point.x
    q = point.q
    xq = x
    for n in range(n_terms):
        den = 1.0 - xq
        if abs(den) < POLE_GUARD:
            raise DomainError(f"Lambert denominator vanishes at n = {n}")
        yield xq / den
        xq *= q


def lambert_L1(point: ModularPoint) -> complex:
    """L1(tau, nu) = sum_{n>=0} x q^n / (1 - x q^n)."""
    # a term is at most 2 |x q^n| once |x q^n| <= 1/2; the tail is kept
    # below TERM_TOL / 2
    n_terms = _tail_length(4.0 * abs(point.x), abs(point.q), "Lambert series")
    return sum(_lambert_terms(point, n_terms), 0j)


def lambert_L2(point: ModularPoint) -> complex:
    """L2(tau, nu) = sum_{n>=0} (n+1) x q^n / (1 - x q^n)."""
    # with s = |q|^{1/2}: (n+1) |q|^n <= c s^n for c = max_k k s^{k-1}, which
    # is 1 for s <= 1/e and at most 1 / (e s log(1/s)) above, so L1's rule
    # applies at ratio s
    log_s = 0.5 * point.log_q.real
    s = math.exp(log_s)
    c = -1.0 / (math.e * s * log_s) if s > 1.0 / math.e else 1.0
    n_terms = _tail_length(4.0 * c * abs(point.x), s, "Lambert series")
    return sum(((n + 1) * t for n, t in enumerate(_lambert_terms(point, n_terms))), 0j)
