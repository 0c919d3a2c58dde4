"""Direct series/product evaluation of the q-objects.

Everything here is summed term by term inside the unit q-disk: the
infinite product (x;q)_oo, Euler's series for it, Jackson's q-Gamma,
Dedekind eta, Jacobi theta as a triple product, and the
generalized Lambert series L1/L2.  These are the slow-but-sure oracles
the modular identities are checked against.  ModularPoint forms a
point's exponentials on both sides of the modular transformation.

A product (x;q)_oo of up to _BLOCK_FACTORS factors, its length N from the
tail rule (about 6/alpha at q = e^{-2 pi alpha}), runs in numpy blocks
rather than a Python loop.  The blocks repeat the loop's floating-point
operations exactly, each power the previous one times q and each factor
multiplied into the running value in order, so the result is bit for bit
the loop's.

From the first block whose product leaves the normal double range on, the
blocks are multiplied in stretches that stay in it and carry the running
value's binary exponent, so a product that passes out of the range on the
way keeps its digits (_product).

A longer product multiplies only its head, the K factors with
|x| |q|^k > _TAIL_RADIUS, about ln(4|x|)/(2 pi alpha) of them, and sums
the rest as the log series log (y;q)_oo = sum_m y^m / (m (q^m - 1)),
y = x q^K, which falls like _TAIL_RADIUS^m however close q is to 1: a few
dozen terms in place of about 6/alpha factors.  N still sets the budget,
the refusals and the count returned.  The value moves from the loop's at
rounding level: the tail's exponent carries about one rounding of its own
size, and y that of the head's powers, where the loop's factors carry both
over all N.  Against a 30-digit mpmath product at the q-to-one fixed-x
points of seeds 1301-1302 with N > _BLOCK_FACTORS, the largest relative
error fell from 2.0e-12 to 9.9e-14.

Where x and q are both real, as in the paper's real case tau = i alpha,
nu = i xi alpha (q = e^{-2 pi alpha}, x = q^xi), the product runs in
float64 instead of complex128, loop and blocks alike.  A complex multiply
whose imaginary parts are 0 rounds its real part as the float multiply
does, so the real part is still the loop's bit for bit (an exact 0 up to
its sign) and the imaginary part is +0.0, where the loop can leave -0.0.
_product at x = 0.3, best of 31 calls (CPython 3.11.7, numpy 2.4.6, a
shared 2-core machine), complex -> real: 8.1 -> 6.9 us at 81 factors,
15.8 -> 11.4 at 800, 28.8 -> 17.3 at 2,048, 93.9 -> 50.3 at 8,192 and
333 -> 171 at 30,000.
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
#: per-call cost outweighs it, and numpy blocks of _BLOCK_FACTORS beyond
_LOOP_FACTORS = 80
_BLOCK_FACTORS = 4096
#: a product longer than _BLOCK_FACTORS multiplies only the factors with
#: |x q^k| > _TAIL_RADIUS and sums the rest as a log series, whose m-th term
#: falls like _TAIL_RADIUS^m.  Radii 1/8 to 3/4 were tried at 461 such
#: products (the q-to-one fixed-x points of seeds 1301-1302 and 360 seeded
#: real and complex (x, q)) against a 30-digit mpmath product.  Every radius
#: timed the same median (10.2 us).  1/4 was the one radius with no error
#: above max(2x the loop's, 1e-13) and no outcome other than the loop's:
#: from 3/8 up, products whose loop dips below the normal range midway
#: return values
_TAIL_RADIUS = 0.25
#: e^t is a normal double for |t| < _EXP_SAFE (ln of the largest and smallest
#: normal doubles: 709.8 and -708.4)
_EXP_SAFE = 708.0
#: the smallest normal double
_TINY = sys.float_info.min
#: ln 2 in two parts (fdlibm's): k _LN2_HI is exact for |k| < 2^20, so that
#: t - k ln 2 keeps the digits of t when whole powers of two leave an exponent
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
#: from the first block whose running product leaves the normal range on,
#: _product multiplies its factors, scaled by powers of two into [1/2, 1)
#: (larger part), in stretches, each from the last one's mantissa, that end
#: where the log2 of the running product enters another band of _BAND_BITS
#: bits: within a stretch it moves by less than _BAND_BITS + 1, which keeps
#: it in the range
_BAND_BITS = 960.0


def _tail_length(amplitude: float, ratio: float, series: str, unit: str = "terms") -> int:
    """Terms of a series whose n-th term is at most amplitude * ratio^n.

    The smallest N with amplitude ratio^N / (1 - ratio) < TERM_TOL, which
    bounds the terms from N on; ConvergenceError when N > MAX_TERMS or no N
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
    n = math.ceil(log_need / math.log(ratio))
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


def _below_normal(value: complex) -> bool:
    """|value| < the smallest normal double: 0, or a subnormal, which has
    lost its digits and, once it is the smallest, stops falling.  The
    parts are tested first, so that abs cannot overflow."""
    return abs(value.real) < _TINY and abs(value.imag) < _TINY and abs(value) < _TINY


def _split_exponent(value: complex) -> tuple[complex, int]:
    """(m, e) with value = m 2^e and max(|Re m|, |Im m|) in [1/2, 1), in the
    type of value; (value, 0) for 0, inf or nan.  Exact, but for a part
    below 2^-1022 of the other, which may lose its last bits."""
    e = math.frexp(max(abs(value.real), abs(value.imag)))[1]
    return (_scale(value, -e), e) if e else (value, 0)


def _scale(value: complex, e: int) -> complex:
    """value 2^e, part by part, in the type of value: exact where the result
    is a normal double; one past the double range is a domain error."""
    try:
        if isinstance(value, complex):
            return complex(math.ldexp(value.real, e), math.ldexp(value.imag, e))
        return math.ldexp(value, e)
    except OverflowError:
        mantissa, e_value = _split_exponent(value)
        raise DomainError(f"value is not finite: {mantissa} * 2^{e + e_value} overflows") from None


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
    real part bit for bit, complex128 otherwise (times by length in the
    module docstring)."""
    steps = np.full(min(n_factors, _BLOCK_FACTORS), q)
    xq = x
    for start in range(0, n_factors, _BLOCK_FACTORS):
        m = min(_BLOCK_FACTORS, n_factors - start)
        steps[0] = xq
        powers = np.multiply.accumulate(steps[:m])
        yield powers
        xq = powers[-1] * q


def _product(x: complex, q: complex, n_factors: int) -> tuple[complex, int, complex]:
    """prod_{k < n_factors} (1 - x q^k), multiplied in order from k = 0, as
    value 2^shift, and the running power x q^{n_factors} it ends on, in the
    type of x and q: float64 for a real (x, q), whose value is the complex
    loop's real part, complex128 otherwise (times by length in the module
    docstring).  Of a product past _BLOCK_FACTORS factors it multiplies
    only the head, and at a complex q the power it ends on starts the
    tail's log series.

    Short products run as a plain loop.  Long ones run in numpy blocks
    whose first entry is the running value, so every product and power
    is the same floating-point operation on the same operands as in the
    loop, bit for bit wherever the loop's running value stays in the
    normal range (shift = 0).  From the first block whose product leaves
    the range on, every block is multiplied in stretches
    (_stretched_product), which never leave it, and the running value goes
    on as a mantissa and its binary exponent: a product that passes out of
    the range and back keeps the digits the loop loses.  Going back to
    plain blocks once the value is in range again lets a later block pass
    below the range and back unseen: at x = 0.99, q = 0.99995 e^{i pi/3000}
    that returned a value 3e-5 off, and starting every block from a
    mantissa one 300 times too large, where the loop refuses.  A dip below
    the range and back within one plain block still goes unseen, as in the
    loop: only the block's product is tested.  Starting each block from 1,
    or forming the powers as exp(k log q), would round differently, so
    every long product would move.
    """
    value = 1.0 if isinstance(x, float) else 1.0 + 0.0j
    if n_factors <= _LOOP_FACTORS:
        xq = x
        for _ in range(n_factors):
            value *= 1.0 - xq
            xq *= q
        return value, 0, xq
    factors = np.empty(min(n_factors, _BLOCK_FACTORS) + 1, dtype=type(x))
    shift, stretching = 0, False
    # an overflow or 0 * inf inside a block is caught by _finite afterwards
    with np.errstate(over="ignore", invalid="ignore"):
        for powers in _power_blocks(x, q, n_factors):
            m = len(powers)
            factors[0] = value
            np.subtract(1.0, powers, out=factors[1 : m + 1])
            if not stretching:
                value = np.multiply.reduce(factors[: m + 1])
                if _TINY <= abs(value) < math.inf:
                    continue
                stretching = True  # the loop leaves the range: stretches from here on
            value, e = _stretched_product(factors[: m + 1])
            value, e_value = _split_exponent(value)
            shift += e + e_value
        return value, shift, powers[-1] * q


def _stretched_product(factors: np.ndarray) -> tuple[complex, int]:
    """np.multiply.reduce(factors) as value 2^shift, for the blocks of
    _product from the first whose running value leaves the normal range on:
    each factor past the first
    (the running value) is scaled by a power of two into [1/2, 1) in its
    larger part, those powers go into shift, and the scaled factors are
    multiplied in the same order, in stretches (_BAND_BITS) each started
    from the last one's mantissa (_split_exponent): a few stretches per
    block.  A block with a factor 0 or not finite keeps its plain product.
    It overwrites factors."""
    rest = factors[1:]
    if not (rest.all() and np.isfinite(rest).all()):
        return np.multiply.reduce(factors), 0
    if rest.dtype.kind == "f":
        rest[:], exponents = np.frexp(rest)
    else:
        exponents = np.frexp(np.maximum(np.abs(rest.real), np.abs(rest.imag)))[1]
        rest *= np.ldexp(1.0, -exponents)  # exact
    bands = np.floor(np.cumsum(np.log2(np.abs(rest))) / _BAND_BITS)
    # the index in rest of each stretch's last factor
    ends = np.flatnonzero(np.diff(bands)).tolist() + [rest.size - 1]
    value, shift, start = factors[0], int(exponents.sum()), 0
    for end in ends:
        value, e = _split_exponent(value)
        shift += e
        factors[start] = value
        value = np.multiply.reduce(factors[start : end + 2])
        start = end + 1
    return value, shift


def _head_length(ax: float, aq: float) -> int:
    """The number K of factors 1 - x q^k with |x| |q|^k > _TAIL_RADIUS."""
    if ax <= _TAIL_RADIUS:
        return 0
    return math.ceil((math.log(ax) - math.log(_TAIL_RADIUS)) / -math.log(aq))


def _log_tail(y: complex, q: complex) -> complex:
    """log (y;q)_oo = sum_{m>=1} y^m / (m (q^m - 1)) for |y| <= _TAIL_RADIUS,
    in the type of y (float64 for a real (y, q)), its length from the tail
    rule: the m-th term is below |y|^m / (1 - |q|).  q^m - 1 is
    expm1(m log q), in real arithmetic for a real q (-(1 + |q|^m) at odd m
    where q < 0), so that it keeps its relative digits as q^m -> 1."""
    ay, aq = abs(y), abs(q)
    m = np.arange(1.0, _tail_length(ay / (1.0 - aq), ay, "(x;q)_oo tail series") + 1.0)
    if q.imag == 0.0:
        gap = np.expm1(m * math.log(aq))
        if q.real < 0.0:
            gap[::2] = -2.0 - gap[::2]
    else:
        gap = np.expm1(m * cmath.log(q))
    return np.sum(np.power(y, m) / (m * gap))


def _times_exp(head: complex, expo: complex, shift: int = 0) -> complex:
    """head e^expo 2^shift, in the type of head and expo.  Where shift is
    not 0 or e^expo alone leaves the normal range (|Re expo| >= _EXP_SAFE),
    the whole powers of two k of e^expo (k ln 2 taken off in two parts,
    _LN2_HI and _LN2_LO) and the head's binary exponent join shift, and
    2^shift comes last (_scale), so that a representable product is not
    refused and past the double range is a domain error."""
    if shift or not abs(expo.real) < _EXP_SAFE:
        k = round(_finite(expo, "exponent").real / _LN2_HI)
        expo = (expo - k * _LN2_HI) - k * _LN2_LO
        head, e = _split_exponent(head)
        shift += k + e
    growth = _exp(expo)
    with np.errstate(over="ignore", invalid="ignore"):  # head may be a numpy scalar
        value = head * (growth.real if isinstance(expo, float) else growth)
    return _scale(value, shift) if shift else value


def _has_zero_factor(x: complex, q: complex, n_factors: int) -> bool:
    """True iff some computed factor 1 - x q^k, k < n_factors, is 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return any((powers == 1.0).any() for powers in _power_blocks(x, q, n_factors))


def qpochhammer_with_count(x: complex, q: complex) -> tuple[complex, int]:
    """(x;q)_oo together with the number N of factors the tail rule asks for.

    N is fixed in advance from the tail bound |x q^N|/(1-|q|) < TERM_TOL.
    It sets the budget (ConvergenceError past MAX_TERMS) and the count
    returned, whichever way the product is formed.  Up to _BLOCK_FACTORS
    factors all N are multiplied, bit for bit the plain loop.  A longer
    product multiplies its head, the K factors with |x| |q|^k > _TAIL_RADIUS,
    by e^{log (y;q)_oo} at y = x q^K (_log_tail, _times_exp).  For a real q,
    y is x times pow(q, K); for a complex q it is the head's running power,
    since K log q would carry K roundings of arg q.  The value then moves
    from the loop's at rounding level (module docstring).
    A product below the normal double range with no factor 0 (0 or a
    subnormal) is a domain error.  The head carries its binary exponent
    (_product), so one below the range keeps its digits and its tail may
    lift it back (at x = 0.4548+0.0596i, q = 0.99989+0.00026i the head is
    about e^-1298 and the value 6.0e-194); a head that is 0 or subnormal
    even so is refused without its tail.  A factor past the head has
    |x q^k| <= _TAIL_RADIUS, so only the head is scanned for a factor 0.
    The rule for the real case is decided here: where x and q are both real
    (imaginary parts +-0.0) the product runs in float64, its real part the
    complex loop's bit for bit (an exact 0 up to its sign) and its
    imaginary part +0.0, 1.7-1.9x faster from 2,048 factors on (times by
    length in the module docstring).
    """
    x = complex(x)
    q = complex(q)
    aq = abs(q)
    if aq >= 1.0:
        raise DomainError(f"|q| must be < 1, got {aq}")
    n_factors = _tail_length(abs(x), aq, "(x;q)_oo", "factors")
    if x.imag == 0.0 and q.imag == 0.0:  # the real case, in float64
        x, q = x.real, q.real
    if n_factors <= _BLOCK_FACTORS:
        n_head = n_factors
        value, shift, _ = _product(x, q, n_factors)
        if shift:
            value = _scale(value, shift)
    else:
        n_head = _head_length(abs(x), aq)  # below n_factors: TERM_TOL < _TAIL_RADIUS
        value, shift, y = _product(x, q, n_head)
        if not _below_normal(value):
            if q.imag == 0.0:  # pow rounds about once, the running power ~sqrt(K) times
                y = x * q.real**n_head
            value = _times_exp(value, _log_tail(y, q), shift)
    value = _finite(complex(value))
    if _below_normal(value) and not _has_zero_factor(x, q, n_head):
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
