"""Direct series/product evaluation of the q-objects.

Everything here is summed term by term inside the unit q-disk: the
infinite product (x;q)_oo, Euler's series for it, Jackson's q-Gamma,
Dedekind eta, Jacobi theta as a triple product, and the
generalized Lambert series L1/L2.  These are the slow-but-sure oracles
the modular identities are checked against.  ModularPoint forms a
point's exponentials on both sides of the modular transformation.

A product (x;q)_oo of N factors, N from the tail rule (about 6/alpha at
q = e^{-2 pi alpha}), runs as a plain loop up to _LOOP_FACTORS factors.
Past that it is one exponent.  The head, the K factors with
|x| |q|^k > _TAIL_RADIUS (about ln(4|x|)/(2 pi alpha) of them), gives the
sum of its factors' log moduli, from numpy blocks of running powers x q^k,
and a phase, e^{i theta} for theta the sum of its factors' arguments.  The
rest is the log series log (y;q)_oo = sum_m y^m / (m (q^m - 1)),
y = x q^K, which falls like _TAIL_RADIUS^m however close q is to 1: a few
dozen terms in place of about 6/alpha factors.  The value is the phase
times e^L, L the sum of the two, so one rule covers a value past the double
range (_exp), however far out the running product of the factors would
pass on the way.  The budget MAX_TERMS counts the factors a product forms,
checked before the first: the loop's N, or the head's K.  The tail's log
series takes at most 53 terms (|y| <= _TAIL_RADIUS, 1 - |q| >= 2^-53), and
N past the loop, millions as q -> 1, is only counted.  (0;q)_oo is 1 at
once, as is the modular route's q* product wherever x* q* underflows to 0
(q -> 1).

The short pieces of a real product run as plain float loops on the loop's
rule, numpy's per-call cost outweighing its speed on short arrays: a head
of at most _LOOP_HEAD factors, and every tail series (a median of 10 terms
at q-to-one's fixed-x points).  A complex tail stays in numpy, where a
complex expm1 in Python costs more.

The value's relative error is L's absolute rounding, with theta's for a
complex head, plus the drift of the head's running powers.  Each factor's
log rounds by about 2^-53 of its size, the tail's series by 2^-53 of its
own, and L, a double, by half its last bit (up to 5.7e-14 at |L| = 709);
the k-th power carries about sqrt(k) roundings, which a factor 1 - x q^k
near 0 magnifies and which reach the tail through y at a complex q.
Against a 30-digit mpmath product, the largest relative error at the
q-to-one fixed-x points of seeds 1301-1302 past 80 factors is 1.3e-13, an
ulp of L near |L| = 600 (p95 2.2e-14), and at 150 seeded complex long heads
(|x| in [0.3, 1], 1 - |q| in 10^[-4.3, -2], |arg q| <= 0.02) 4.5e-12.

Where x and q are both real, as in the paper's real case tau = i alpha,
nu = i xi alpha (q = e^{-2 pi alpha}, x = q^xi), the product runs in
float64 instead of complex128, loop and logs alike, and the head's unit
factors are +-1, its phase their product.  A complex multiply whose
imaginary parts are 0 rounds its real part as the float multiply does, so
the loop's real part is the complex loop's bit for bit and the imaginary
part is +0.0.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, _finite
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
#: per-call cost outweighs it, and past that sums the logs of its head's
#: factors in numpy blocks of _BLOCK_FACTORS
_LOOP_FACTORS = 80
_BLOCK_FACTORS = 4096
#: a real head of at most _LOOP_HEAD factors sums its logs in a plain loop:
#: paired against the blocks at 8 real (x, q) per head length, the loop read
#: 0.56 of their time at 40 factors, 0.93 at 70 and 1.05 at 80 (medians)
_LOOP_HEAD = 70
#: a product longer than _LOOP_FACTORS takes the logs of only the factors
#: with |x q^k| > _TAIL_RADIUS and sums the rest as a log series, whose m-th
#: term falls like _TAIL_RADIUS^m.  Radii 1/8 to 3/4 were tried at 461
#: products past 4,096 factors (the q-to-one fixed-x points of seeds
#: 1301-1302 and 360 seeded real and complex (x, q)) against a 30-digit
#: mpmath product, when the head was multiplied out.  Every radius timed the
#: same median (10.2 us).  1/4 was the one radius with no error above
#: max(2x the loop's, 1e-13) and no outcome other than the loop's
_TAIL_RADIUS = 0.25
#: m = 1, 2, ... for the tail's log series, which takes at most 53 terms
#: (_log_tail)
_TAIL_M = np.arange(1.0, 54.0)
_TAIL_M.flags.writeable = False
#: the smallest normal double
_TINY = sys.float_info.min


def _budget(n: int, series: str, unit: str) -> int:
    """n, the count of terms or factors a series will form, or
    ConvergenceError where it passes MAX_TERMS."""
    if n > MAX_TERMS:
        raise ConvergenceError(f"{series} needs {n} {unit}, budget {MAX_TERMS}")
    return n


def _tail_length(amplitude: float, ratio: float, series: str, unit: str = "terms") -> int:
    """Terms of a series whose n-th term is at most amplitude * ratio^n,
    within the budget (_budget)."""
    return _budget(_tail_count(amplitude, ratio, series, unit), series, unit)


def _tail_count(amplitude: float, ratio: float, series: str, unit: str = "terms") -> int:
    """The smallest N with amplitude ratio^N / (1 - ratio) < TERM_TOL, which
    bounds the terms from N on, however large; ConvergenceError where no N
    exists (1 - ratio rounds to 0), and DomainError for an amplitude or
    ratio that is inf or nan.
    """
    if not (math.isfinite(amplitude) and math.isfinite(ratio)):
        raise DomainError(f"{series}: amplitude {amplitude} and ratio {ratio} must be finite")
    need = TERM_TOL * (1.0 - ratio) / amplitude if amplitude else 1.0
    if need >= 1.0:
        return 0
    if ratio == 0.0:
        return 1
    if need > 0.0:
        log_need = math.log(need)
    elif ratio == 1.0:
        raise ConvergenceError(
            f"{series}: its ratio rounds to 1, so no number of {unit} reaches TERM_TOL"
        )
    else:  # the quotient underflows for an amplitude past about 2e307
        log_need = math.log(TERM_TOL * (1.0 - ratio)) - math.log(amplitude)
    return math.ceil(log_need / math.log(ratio))


def _exp(expo: complex) -> complex:
    """e^expo, where a value past the double range or a non-finite exponent
    (on which cmath.exp returns nan quietly or raises) is a domain error."""
    try:
        value = cmath.exp(_finite(expo, "exponent"))
        abs(value)  # a value whose modulus alone is past the range too
    except OverflowError:
        raise DomainError(f"value overflows: exponent {expo}") from None
    return value


def _below_normal(value: complex) -> bool:
    """|value| < the smallest normal double: 0, or a subnormal, which has
    lost its digits and, once it is the smallest, stops falling.  The
    parts are tested first, so that abs cannot overflow."""
    return abs(value.real) < _TINY and abs(value.imag) < _TINY and abs(value) < _TINY


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
    q* lie in the unit disk; tau, nu, tau* and nu* that are not finite and
    x, x* and x* q* that overflow (_exp) are a DomainError, for every
    consumer.
    """

    tau: complex
    nu: complex = 0j

    def __post_init__(self):
        tau = complex(self.tau)
        nu = complex(self.nu)
        if not (cmath.isfinite(tau) and cmath.isfinite(nu)):
            raise DomainError(f"tau and nu must be finite, got {tau} and {nu}")
        if not tau.imag > 0.0:
            raise DomainError(f"Im tau must be positive, got {tau}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "nu", nu)

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
    (a running product over [x q^k, q, q, ...]).  The blocks take their
    dtype from q: float64 for a real (x, q), each power the complex loop's
    real part bit for bit, complex128 otherwise."""
    xq = x
    for start in range(0, n_factors, _BLOCK_FACTORS):
        steps = np.full(min(_BLOCK_FACTORS, n_factors - start), q)
        steps[0] = xq
        powers = np.multiply.accumulate(steps)
        yield powers
        xq = powers[-1] * q


def _log_head(x: complex, q: complex, n_head: int) -> tuple[float, complex, complex]:
    """(sum_{k < n_head} log|1 - x q^k|, the product of the unit factors
    (1 - x q^k)/|1 - x q^k|, x q^n_head), the product in the type of x and
    q: float64 for a real (x, q), whose unit factors are +-1, and for a
    complex one e^{i theta}, theta the sum of the factors' arguments.  The
    powers are the running ones of _power_blocks.  A factor 0 makes the sum
    -inf.  A real head of at most _LOOP_HEAD factors is a plain loop, its
    logs summed by math.fsum, where numpy's per-call cost outweighs it."""
    real = isinstance(q, float)  # float64 blocks (qpochhammer_with_count)
    if real and n_head <= _LOOP_HEAD:
        logs, sign, power = [], 1.0, x
        for _ in range(n_head):
            factor = 1.0 - power
            if factor <= 0.0:
                if factor == 0.0:
                    return -math.inf, sign, power
                sign, factor = -sign, -factor
            logs.append(math.log(factor))
            power *= q
        return math.fsum(logs), sign, power
    hi, lo, phase, angle, y = 0.0, 0.0, 1.0, 0.0, x
    for powers in _power_blocks(x, q, n_head):
        factors = 1.0 - powers
        sizes = np.abs(factors)  # at most 1 + |x|: finite
        if not sizes.all():
            return -math.inf, phase, y
        logs = np.log(sizes)  # each within 745 of 0, summed in two parts:
        # the multiples of 2^-28 nearest them, exactly while below 2^25, and
        # the rests, each below 2^-29, whose rounding is far below the sum's
        head = np.rint(logs * 2.0**28) * 2.0**-28
        hi += np.add.reduce(head)
        lo += np.add.reduce(logs - head)
        if real:
            phase *= np.multiply.reduce(np.sign(factors))
        else:  # atan2 of each factor, subnormal ones too
            angle += np.add.reduce(np.angle(factors))
        y = powers[-1] * q
    return float(hi + lo), phase if real else cmath.exp(1j * angle), y


def _head_length(ax: float, aq: float) -> int:
    """The number K of factors 1 - x q^k with |x| |q|^k > _TAIL_RADIUS."""
    if ax <= _TAIL_RADIUS:
        return 0
    if aq == 0.0:  # (x;0)_oo = 1 - x
        return 1
    return math.ceil((math.log(ax) - math.log(_TAIL_RADIUS)) / -math.log(aq))


def _log_tail(y: complex, q: complex) -> complex:
    """log (y;q)_oo = sum_{m>=1} y^m / (m (q^m - 1)) for |y| <= _TAIL_RADIUS,
    in the type of y (float64 for a real (y, q)), its length from the tail
    rule: the m-th term is below |y|^m / (1 - |q|), so that at most 53 terms
    are taken (_TAIL_M).  q^m - 1 is expm1(m log q), in real arithmetic for
    a real q (-(1 + |q|^m) at odd m where q < 0), so that it keeps its
    relative digits as q^m -> 1.  For a real (y, q) the series is a plain
    loop, where numpy's per-call cost outweighs it: Horner's rule in y from
    the last term, whose terms fall with m, so that only the first term's
    step rounds at the size of the sum.  A complex one is summed in numpy,
    whose expm1 costs less than a complex one in Python."""
    ay, aq = abs(y), abs(q)
    n_terms = _tail_length(ay / (1.0 - aq), ay, "(x;q)_oo tail series")
    if isinstance(q, float):  # the real case (qpochhammer_with_count)
        log_aq, total = math.log(aq), 0.0
        for m in range(n_terms, 0, -1):
            gap = math.expm1(m * log_aq)
            if q < 0.0 and m % 2:
                gap = -2.0 - gap
            total = y * total + y / (m * gap)
        return total
    m = _TAIL_M[:n_terms]
    if q.imag == 0.0:
        gap = np.expm1(m * math.log(aq))
        if q.real < 0.0:
            gap[::2] = -2.0 - gap[::2]
    else:
        gap = np.expm1(m * cmath.log(q))
    return np.add.reduce(np.power(y, m) / (m * gap))


def qpochhammer_with_count(x: complex, q: complex) -> tuple[complex, int]:
    """(x;q)_oo together with the number N of factors the tail rule asks for.

    N is fixed in advance from the tail bound |x q^N|/(1-|q|) < TERM_TOL.
    It chooses the loop and is the count returned, whichever way the
    product is formed; the budget (ConvergenceError past MAX_TERMS, before
    any factor is formed) counts the factors formed: N in the loop, the
    head's K past it.  x = 0 returns (1, 0) at once.  Up to _LOOP_FACTORS
    factors the product is a plain loop, whose value is returned where its
    modulus is a normal double; any other product is one exponent,
    L = sum_{k<K} log|1 - x q^k| + log (y;q)_oo over the head's K factors
    with |x| |q|^k > _TAIL_RADIUS (_log_head) and the tail's log series at
    y = x q^K (_log_tail), and its value is the head's phase times e^L; an
    empty head (K = 0, |x| <= _TAIL_RADIUS) leaves L the tail's alone.
    For a real q, y is x times pow(q, K); for a complex q it is the head's
    running power, since K log q would carry K roundings of arg q.  The
    value's relative error is L's absolute rounding plus the drift of the
    head's running powers (module docstring).
    There is one rule for a value past the double range: e^L whose modulus
    overflows is refused by _exp, and a value below the normal range (0 or a
    subnormal) is refused as an underflow, unless a factor is 0: its log is
    -inf and the value an exact 0.  Only the head can hold a factor 0, since
    every later one has |x q^k| <= _TAIL_RADIUS.
    The rule for the real case is decided here: where x and q are both real
    (imaginary parts +-0.0) the product runs in float64, the loop's real part
    the complex loop's bit for bit, and the imaginary part is +0.0.
    """
    x = complex(x)
    q = complex(q)
    aq = abs(q)
    if aq >= 1.0:
        raise DomainError(f"|q| must be < 1, got {aq}")
    if x == 0 and aq < 1.0:  # every factor is 1 (a nan q goes on to its refusal)
        return 1 + 0j, 0
    ax = abs(x)
    n_factors = _tail_count(ax, aq, "(x;q)_oo", "factors")
    if x.imag == 0.0 and q.imag == 0.0:  # the real case, in float64
        x, q = x.real, q.real
    if n_factors <= _LOOP_FACTORS:
        value = 1.0 if isinstance(x, float) else 1.0 + 0.0j
        xq = x
        for _ in range(n_factors):
            value *= 1.0 - xq
            xq *= q
        if _TINY <= math.hypot(value.real, value.imag) < math.inf:
            return complex(value), n_factors
    # below n_factors (TERM_TOL < _TAIL_RADIUS) but at q = 0, where no tail is left
    n_head = _budget(_head_length(ax, aq), "(x;q)_oo", "head factors")
    expo, phase, y = 0.0, 1.0, x  # an empty head (|x| <= _TAIL_RADIUS): the tail alone
    if n_head:
        expo, phase, y = _log_head(x, q, n_head)
        if expo == -math.inf:
            return 0j, n_factors
        if q.imag == 0.0:  # pow rounds about once, the running power ~sqrt(K) times
            y = x * q.real**n_head
    if n_head < n_factors:
        expo += _log_tail(y, q)
    value = complex(phase * _exp(expo))
    if _below_normal(value):
        raise DomainError(f"value underflows: (x;q)_oo at x = {complex(x)}, q = {complex(q)}")
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
