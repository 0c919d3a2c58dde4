"""Direct-evaluation layer: products, series, theta, Lambert sums."""

import cmath
import contextlib
import math
import random
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmod import qcore
from qmod.errors import ConvergenceError, DomainError
from qmod.raysum import M_almost_modular, stokes_sum
from qmod.qcore import (
    ModularPoint,
    eta,
    euler_series,
    lambert_L1,
    lambert_L2,
    q_gamma,
    qpochhammer,
    qpochhammer_with_count,
    theta_product,
    theta_product_tau,
)


def rel(got, want):
    got, want = complex(got), complex(want)
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# ModularPoint plumbing


def test_modular_point_requires_upper_half_plane():
    with pytest.raises(DomainError):
        ModularPoint(1.0)
    with pytest.raises(DomainError):
        ModularPoint(0.3 - 0.2j)


def test_modular_point_exact_star_coordinates():
    p = ModularPoint(0.2 + 0.9j, 0.1 + 0.3j)
    assert p.tau_star == -1.0 / p.tau
    assert p.nu_star == p.nu / p.tau
    assert rel(p.q, cmath.exp(2j * math.pi * p.tau)) < 1e-15
    assert rel(p.x, cmath.exp(2j * math.pi * p.nu)) < 1e-15
    assert rel(p.q_star, cmath.exp(-2j * math.pi / p.tau)) < 1e-15
    # log_q is 2*pi*i*tau by definition, not a principal log of q
    assert p.log_q == 2j * math.pi * p.tau
    assert abs(p.q) < 1.0 and abs(p.q_star) < 1.0


def test_admissibility_flag():
    assert ModularPoint(1j, 0.3j).admissible_thm29
    assert ModularPoint(1j, 1.5j).admissible_thm29
    assert ModularPoint(1j, 0.25).admissible_thm29
    # nu on the excluded real rays
    assert not ModularPoint(1j, 1.0).admissible_thm29
    assert not ModularPoint(1j, -2.5).admissible_thm29
    # s = nu/tau on (-oo, 0]
    assert not ModularPoint(1j, -0.3j).admissible_thm29
    assert not ModularPoint(1j, 0j).admissible_thm29


def test_real_case_embedding():
    p = ModularPoint.real_case(0.5, 0.3)
    assert rel(p.q, math.exp(-math.pi)) < 1e-15
    assert rel(p.x, math.exp(-math.pi) ** 0.3) < 1e-14
    with pytest.raises(DomainError):
        ModularPoint.real_case(-1.0, 0.0)


# ---------------------------------------------------------------------------
# qpochhammer / euler_series


def test_qpochhammer_trivial_and_frozen():
    assert qpochhammer(0.0, 0.9) == 1.0
    assert rel(qpochhammer(0.3, 0.5), 0.51011782663398757) < 1e-14
    assert rel(qpochhammer(0.5, 0.5), 0.28878809508660242) < 1e-14
    assert (
        rel(
            qpochhammer(0.2 + 0.4j, 0.3 - 0.2j),
            0.61767803217872966 - 0.36087799115180706j,
        )
        < 1e-14
    )


def test_qpochhammer_rejects_big_q():
    with pytest.raises(DomainError):
        qpochhammer(0.5, 1.0)
    with pytest.raises(DomainError):
        qpochhammer(0.5, -1.2)


def test_qpochhammer_budget_exhaustion():
    # the budget counts the factors the product forms: at q = 1 - 1e-7 the
    # head, the factors with |x q^k| > 1/4, is K = 6.9e6, past MAX_TERMS
    # (test_series_fail_fast times the refusal)
    with pytest.raises(ConvergenceError, match="needs 6931472 head factors, budget"):
        qpochhammer(0.5, 1.0 - 1e-7)
    # at q = 0.99999 the tail rule's N is 4.8e6 but K only 69,315: the
    # product is formed, and its value, about e^{-58,000}, underflows
    with pytest.raises(DomainError, match="value underflows"):
        qpochhammer(0.5, 0.99999)


def test_qpochhammer_of_zero_is_one_at_once():
    # every factor is 1: the modular route's q* product as x* q* underflows
    # to 0; |q| >= 1 is still refused first, and a nan q by the tail rule
    for q in (0.5, -0.9999999 + 0j, 0.3j, 1.0 - 2.0**-53, 0j):
        for x in (0.0, -0.0, 0j, complex(-0.0, -0.0)):
            got = qpochhammer_with_count(x, q)
            assert got == (1 + 0j, 0) and repr(got[0]) == "(1+0j)", (x, q)
    for q in (1.0, -1.2, 1j):
        with pytest.raises(DomainError, match=r"\|q\| must be < 1"):
            qpochhammer_with_count(0.0, q)
    with pytest.raises(DomainError, match="must be finite"):
        qpochhammer_with_count(0.0, math.nan)


def test_qpochhammer_with_an_empty_head_is_the_tail_series():
    # |x| <= 1/4 past 80 factors: no head factor, and L is the tail's log
    # series at y = x, as the head's (0, 1, x) left it
    for x, q in ((0.25, 0.995), (-0.2 + 0.1j, 0.999 + 0.001j), (0.1j, -0.99995 + 0j)):
        value, n = qpochhammer_with_count(x, q)
        assert qcore._head_length(abs(x), abs(q)) == 0 and n > qcore._LOOP_FACTORS
        assert value == qcore._exp(qcore._log_tail(x, q)), (x, q)


@pytest.mark.parametrize("q", [0.9995, -0.9995])
def test_real_tail_series_against_mpmath(q):
    # a real (y, q) sums the tail's log series in a float loop (Horner's
    # rule), at q < 0 with the gap -2 - expm1(m log|q|) at odd m: within
    # Horner's bound, 2m roundings of the sum of |terms| (and TERM_TOL), of
    # the series at 30 digits, and of its numpy form, which a complex y
    # takes.  (y; q)_oo itself is e^tail (an empty head), with N the tail
    # rule's and imaginary part +0.0
    mpmath = pytest.importorskip("mpmath")
    y = 0.2
    got = qcore._log_tail(y, q)
    assert type(got) is float
    n_terms = qcore._tail_length(y / (1.0 - abs(q)), y, "tail")
    with mpmath.workdps(30):
        terms = [mpmath.mpf(y) ** m / (m * (mpmath.mpf(q) ** m - 1)) for m in range(1, 200)]
        want, abs_sum = float(mpmath.fsum(terms)), float(mpmath.fsum(map(abs, terms)))
    tol = 2 * n_terms * 2.0**-53 * abs_sum + qcore.TERM_TOL
    assert abs(got - want) < tol, (got, want)
    assert abs(got - qcore._log_tail(complex(y), complex(q)).real) < 2.0 * tol
    value, n_factors = qpochhammer_with_count(y, q)
    assert n_factors == qcore._tail_count(y, abs(q), "(x;q)_oo") > qcore._LOOP_FACTORS
    assert type(value) is complex and repr(value.imag) == "0.0"
    assert value == qcore._exp(got)


def test_short_real_heads_on_both_sides_of_the_loop(monkeypatch):
    # real heads of 1 to _LOOP_HEAD + 2 factors past _LOOP_FACTORS, of both
    # signs of q and of the factors: a plain loop up to _LOOP_HEAD, numpy's
    # blocks past it.  Each product is within 1e-12 of a 30-digit one but for
    # the running powers' drift (at x = 3, K = 48 a factor 2.2e-5 from 0
    # turns it into 5.2e-12, as in the blocks), with N the tail rule's and
    # imaginary part +0.0; the loop's sum of logs is within K roundings of
    # their sum of |logs| of the blocks', with the same sign and next power
    mpmath = pytest.importorskip("mpmath")
    loop_head = qcore._LOOP_HEAD
    lengths = set()
    for n_head in range(1, loop_head + 3):
        for x, sign in ((0.3, 1.0), (-0.3, -1.0), (3.0, 1.0), (-3.0, -1.0)):
            q = sign * math.exp(-math.log(4.0 * abs(x)) / (n_head - 0.5))
            assert qcore._head_length(abs(x), abs(q)) == n_head
            n_factors = qcore._tail_count(abs(x), abs(q), "(x;q)_oo")
            if n_factors <= qcore._LOOP_FACTORS:
                continue
            value, n_got = qpochhammer_with_count(x, q)
            assert n_got == n_factors
            assert type(value) is complex and repr(value.imag) == "0.0", (x, q)
            tol = 1e-12 + 2.0 * _drift_error(x, q, n_head)
            assert rel(value, _mp_product(mpmath, x, q)) < tol, (x, q)
            expo, phase, y = qcore._log_head(x, q, n_head)
            monkeypatch.setattr(qcore, "_LOOP_HEAD", 0)
            blocks = qcore._log_head(x, q, n_head)
            monkeypatch.setattr(qcore, "_LOOP_HEAD", loop_head)
            power, abs_logs = x, 0.0
            for _ in range(n_head):
                abs_logs += abs(math.log(abs(1.0 - power)))
                power *= q
            assert abs(expo - blocks[0]) <= n_head * 2.0**-53 * abs_logs, (x, q)
            assert (phase, y) == blocks[1:] and y == power, (x, q)
            lengths.add(n_head)
    assert set(range(loop_head - 1, loop_head + 3)) <= lengths


def test_zero_factor_in_a_short_real_head():
    # the first factor vanishes, or the second at x = 1/q (1/q * q == 1.0)
    for x, q in ((1.0, 0.96), (1.0 / 0.96, 0.96), (1.0, -0.96), (1.0 / -0.9, -0.9)):
        assert 0 < qcore._head_length(abs(x), abs(q)) <= qcore._LOOP_HEAD
        value, n_factors = qpochhammer_with_count(x, q)
        assert n_factors == qcore._tail_count(abs(x), abs(q), "(x;q)_oo") > qcore._LOOP_FACTORS
        assert value == 0, (x, q)


@pytest.mark.parametrize(
    "series",
    [
        lambda: qpochhammer(0.5, 1.0 - 1e-7),
        lambda: lambert_L1(ModularPoint(1e-7j, 0.3)),
        lambda: lambert_L2(ModularPoint(1e-7j, 0.3)),
        lambda: euler_series(0.5, 1.0 - 1e-7),
        lambda: theta_product(1.0 - 1e-7, 0.5),
        lambda: M_almost_modular(1e8, 0.3),
        lambda: stokes_sum(ModularPoint(1j, 0.9999998 + 0.1j)),
    ],
    ids=["product", "L1", "L2", "euler", "theta", "M", "stokes"],
)
def test_series_fail_fast(series):
    # every series works out its length before its first term, so a length
    # past MAX_TERMS is refused without summing up to the budget
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError):
        series()
    assert time.perf_counter() - t0 < 0.05


# |x| ~ 385 and |q| ~ 0.977: (x;q)_oo is about e^798
_OVERFLOW = ModularPoint(
    0.49999717995524406 + 0.0036288135253091064j,
    0.7807952525094151 - 0.9480562284588814j,
)


def test_qpochhammer_overflow_is_a_domain_error():
    # the head's logs run in numpy blocks, which must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="value overflows: exponent"):
            qpochhammer(_OVERFLOW.x, _OVERFLOW.q)
    # e^(709.9 + i pi/4) = 1.3e308 (1 + i): its parts are doubles, its
    # modulus is not
    with pytest.raises(DomainError, match="value overflows: exponent"):
        qcore._exp(complex(709.9, math.pi / 4))


def test_tail_length_of_an_amplitude_past_2e307():
    # TERM_TOL (1 - ratio) / amplitude underflows to 0 there: the length
    # comes from the logs, and the product overflows as at 1e300
    assert qcore._tail_length(1e308, 0.5, "s") == math.ceil(
        (math.log(0.5e-16) - math.log(1e308)) / math.log(0.5))
    for x in (1e300, 1e308, -sys.float_info.max):
        with pytest.raises(DomainError, match="value overflows: exponent"):
            qpochhammer(x, 0.5)


def test_qpochhammer_count_grows_as_q_to_one():
    _, n1 = qpochhammer_with_count(0.5, 0.5)
    _, n2 = qpochhammer_with_count(0.5, 0.95)
    assert n2 > 4 * n1


def _reference_loop(x, q, n_factors):
    """The plain complex loop over the factors 1 - x q^k, k < n_factors: its
    value, and whether a factor is exactly 0 (its running power exactly 1)."""
    value, xq, zero = 1.0 + 0.0j, x, False
    for _ in range(n_factors):
        zero = zero or xq == 1.0
        value *= 1.0 - xq
        xq *= q
    return value, zero


def _mp_product(mpmath, x, q):
    """(x;q)_oo at 30 digits for the double inputs x and q: the factors with
    |x q^k| > 1/2 one by one, the rest as the log series
    -sum_m y^m / (m (1 - q^m)) at y = x q^K, to a term below 1e-35."""
    with mpmath.workdps(30):
        mq = mpmath.mpc(q)
        value, y = mpmath.mpc(1), mpmath.mpc(x)
        while abs(y) > 0.5:
            value *= 1 - y
            y *= mq
        log_q, total, power, m = mpmath.log(mq), 0, 1, 0
        while abs(power) >= mpmath.mpf(10) ** -35 * (1 - abs(mq)):
            m += 1
            power *= y
            total += power / (m * -mpmath.expm1(m * log_q))
        return value * mpmath.exp(-total)


def _log_product(mpmath, x, q, n_factors):
    """log prod_{k < n_factors} (1 - x q^k) for the double inputs x and q, up
    to a multiple of 2 pi i: its principal logs summed in long double where
    that carries a 64-bit mantissa (the powers drift by about sqrt(k) 1e-19),
    else the log of _mp_product, whose tail past n_factors is below
    TERM_TOL."""
    if np.finfo(np.longdouble).eps > 1e-18:
        with mpmath.workdps(30):
            return complex(mpmath.log(_mp_product(mpmath, x, q)))
    steps = np.full(n_factors, np.clongdouble(complex(q)))
    steps[:1] = np.clongdouble(complex(x))
    return complex(np.log(1.0 - np.multiply.accumulate(steps)).sum())


def _drift_error(x, q, n_factors):
    """2^-53 max_k sqrt(k + 1) |x q^k / (1 - x q^k)| over k < n_factors: about
    the error in log|1 - x q^k| of the k-th running power's drift, sqrt(k + 1)
    roundings, which every running product of the powers shares."""
    steps = np.full(n_factors, complex(q))
    steps[:1] = x
    powers = np.multiply.accumulate(steps)
    gain = np.sqrt(np.arange(1.0, n_factors + 1.0)) * np.abs(powers / (1.0 - powers))
    return 2.0**-53 * float(np.max(gain, initial=0.0))


def _points_with_length(n_factors, rng, count, real=False):
    """count random (x, q) whose tail rule asks for exactly n_factors: real
    ones (x and q of either sign, imaginary parts 0.0) if real."""
    points = []
    while len(points) < count:
        r = 1.0 - 10.0 ** rng.uniform(-4.5, -0.3)
        # |x| r^(N - 1/2) = TERM_TOL (1 - r) puts the tail rule's root mid-step
        log_ax = math.log(qcore.TERM_TOL * (1.0 - r)) - (n_factors - 0.5) * math.log(r)
        if not abs(log_ax) < 690.0:
            continue
        if real:
            x = complex(rng.choice((-1.0, 1.0)) * math.exp(log_ax))
            q = complex(rng.choice((-1.0, 1.0)) * r)
        else:
            x = cmath.rect(math.exp(log_ax), rng.uniform(-math.pi, math.pi))
            q = cmath.rect(r, rng.choice([0.0, rng.uniform(-math.pi, math.pi)]))
        if qcore._tail_length(abs(x), abs(q), "(x;q)_oo") == n_factors:
            points.append((x, q))
    return points


def test_products_of_every_length_against_a_reference():
    # on both sides of _LOOP_FACTORS and _BLOCK_FACTORS, real and complex,
    # qpochhammer_with_count has the reference's outcome: 0 where a factor
    # of the double loop is exactly 0, else a value, an overflow or an
    # underflow (0 or a subnormal) as the 30-digit reference's log says
    # (_log_product), and a value within 1e-12 of it but for the drift of
    # the running powers: at x = 3.378, q = -0.99966 a head factor 2.2e-4
    # from 0 turns it into 2.2e-11, as in the product the head multiplied.
    # Up to _LOOP_FACTORS, where the plain complex loop ends on a normal
    # double, the value is the loop's bit for bit: for a real (x, q), run in
    # float64, its real part
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    loop, block = qcore._LOOP_FACTORS, qcore._BLOCK_FACTORS
    lengths = [0, 1, loop - 1, loop, loop + 1, block - 1, block, block + 1]
    lengths += [2 * block - 1, 2 * block, 2 * block + 1, 100_003]
    points = [p for n in lengths for real in (False, True)
              for p in _points_with_length(n, rng, 3, real)]
    # a random box around the unit q-circle, its real axis, and the
    # refusals: a product that overflows, one that underflows to 0 or ends
    # on a subnormal, and short ones past the range
    for _ in range(60):
        q = cmath.rect(1.0 - 10.0 ** rng.uniform(-3.5, 0.0), rng.uniform(-math.pi, math.pi))
        x = cmath.rect(10.0 ** rng.uniform(-2.0, 2.5), rng.uniform(-math.pi, math.pi))
        real_x, real_q = math.copysign(abs(x), x.real), math.copysign(abs(q), q.real)
        points += [(x, q), (complex(real_x), complex(real_q))]
    points += [(_OVERFLOW.x, _OVERFLOW.q), (-60.0 + 0j, 0.9997 + 0j)]
    points += [(0.99 + 0j, 0.999 + 0j), (0.5 + 0.01j, cmath.rect(0.9999, 1e-5))]
    points += [(0.5 + 0j, 0.9999 + 0j), (0.5 + 1e-9j, 0.9999 + 0j)]
    points += [(1e200 + 0j, 1e-10 + 0j), (1e200j, 1e-10j), (1.0 + 1e-320j, 0.1 + 0j)]
    points += [(1.0 + 1e-320j, 0j), (1.0 + 0j, 0j)]  # (x;0)_oo = 1 - x
    # a short overflow whose parts lie within the double range, its modulus
    # 1.9e308 past it
    points += [(-1.2e308 - 1.2e308j, 1e-309 + 0j)]
    # exactly vanishing factors: the first, or the second at x = 1/q
    points += [(2.0 + 0j, 0.5 + 0j), (1.0 + 0j, 0.999 + 0j), (1.0 + 0j, -0.9999 + 0j)]
    points += [(-2j, 0.5j), (1.0 + 0j, 0.9999j)]
    points += [(complex(1.0 / q), complex(q)) for q in (0.999, 0.99995)]  # 1/q * q == 1.0
    outcomes = set()
    long_values = loop_values = 0
    for x, q in points:
        try:
            n_factors = qcore._tail_length(abs(x), abs(q), "(x;q)_oo")
        except ConvergenceError:
            continue
        real = x.imag == 0.0 and q.imag == 0.0
        loop_value, zero = _reference_loop(x, q, n_factors)
        if zero:
            outcome, log_want = "zero", None
        else:
            log_want = _log_product(mpmath, x, q, n_factors)
            if log_want.real > math.log(sys.float_info.max):
                outcome = "overflow"
            elif log_want.real < math.log(sys.float_info.min):
                outcome = "underflow"
            else:
                outcome = "value"
        if outcome == "overflow":
            with pytest.raises(DomainError, match="value overflows: exponent"):
                qpochhammer_with_count(x, q)
        elif outcome == "underflow":
            with pytest.raises(DomainError, match="underflows"):
                qpochhammer_with_count(x, q)
        else:
            got, n_got = qpochhammer_with_count(x, q)
            assert n_got == n_factors
            if real:
                assert repr(got.imag) == "0.0", (x, q, n_factors)
            if outcome == "zero":
                assert got == 0, (x, q, n_factors)
            else:
                miss = cmath.log(got) - log_want
                tol = 1e-12 + 2.0 * _drift_error(x, q, n_factors)
                assert abs(miss.real) < tol, (x, q, n_factors, miss)
                assert abs(math.remainder(miss.imag, 2.0 * math.pi)) < tol, (x, q, miss)
                long_values += n_factors > block
                if n_factors <= loop and cmath.isfinite(loop_value) and not qcore._below_normal(
                        loop_value):
                    loop_values += 1
                    if real:
                        assert repr(got.real) == repr(loop_value.real), (x, q, n_factors)
                    else:
                        assert repr(got) == repr(loop_value), (x, q, n_factors)
        outcomes.add(("real" if real else "complex", outcome, n_factors > loop))
    # every outcome, real and complex, past _LOOP_FACTORS; below it all but
    # a real underflow, which a real factor, 0 or at least 2^-53, cannot give
    kinds = {(kind, o) for kind in ("complex", "real")
             for o in ("value", "zero", "overflow", "underflow")}
    assert {(kind, o) for kind, o, long in outcomes if long} == kinds
    assert {(kind, o) for kind, o, long in outcomes if not long} == kinds - {("real", "underflow")}
    assert long_values > 30
    assert loop_values > 30


#: products past _BLOCK_FACTORS, through the head's logs and the tail's log series
_TAIL_VALUES = {
    "real q > 0": (0.3, 0.999),
    "real q < 0": (-0.4, -0.9999),
    "complex x, q on the axis": (0.3 + 0.2j, 0.9995 + 0j),
    "complex x, q < 0 on the axis": (0.6 - 0.3j, -0.999 + 0j),
    "q off the axis": (0.5 + 0.1j, cmath.rect(0.9995, 0.3)),
    "q near -1": (0.4 - 0.2j, cmath.rect(0.999, 2.9)),
    "empty head": (0.1 + 0.2j, cmath.rect(0.9999, 0.001)),
    # e^tail alone overflows, or underflows, where the product does not
    "e^tail past the double range": (
        0.2491544919732291 - 0.24247293854921717j,
        0.9998962087881065 - 0.00017976937126314269j,
    ),
    "e^tail below the double range": (
        -0.23401384337952988 + 0.2514827856215669j,
        0.9998972066159342 - 0.0003050657768199806j,
    ),
}
_TAIL_REFUSALS = {
    "overflow in the head": (-0.7, 0.9995, "value overflows: exponent"),
    "overflow in the tail": (-60.0, 0.9997, "overflows"),
    "overflow, empty head": (-0.25, 0.99995, "overflows"),
    "underflow in the head": (0.5, 0.9999, "underflows"),
    "underflow, empty head": (0.2, 0.9999, "underflows"),
}


@pytest.mark.parametrize("case", _TAIL_VALUES)
def test_tail_path_against_mpmath(case):
    mpmath = pytest.importorskip("mpmath")
    x, q = _TAIL_VALUES[case]
    value, n_factors = qpochhammer_with_count(x, q)
    assert n_factors > qcore._BLOCK_FACTORS
    assert rel(value, _mp_product(mpmath, x, q)) < 1e-12
    if x.imag == 0.0 and q.imag == 0.0:
        assert repr(value.imag) == "0.0"
    n_head = qcore._head_length(abs(x), abs(q))
    assert (n_head == 0) == (abs(x) <= qcore._TAIL_RADIUS)
    if case.startswith("e^tail"):  # e^tail is inf or 0 in double
        *_, powers = qcore._power_blocks(x, q, n_head)
        tail = qcore._log_tail(powers[-1] * q, q)
        assert abs(tail.real) > 745.0


@pytest.mark.parametrize("x, q, error", _TAIL_REFUSALS.values(), ids=_TAIL_REFUSALS.keys())
def test_tail_path_refusals(x, q, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=error):
            qpochhammer(x, q)


def test_tail_path_lifts_a_head_below_the_normal_range():
    # the first head's 5,731 factors take its running product down to about
    # e^-1311 and end it near e^-1298, and the tail, about e^853, lifts it
    # to 6.0e-194.  The other heads' running products fall below the normal
    # range within their first 4,096 factors (to about e^-971 at arg q =
    # pi/3000, and e^-750 to e^-724 at the last three) and climb back by the
    # end of them.  A head multiplied out in blocks of 4,096, each tested for
    # the range only at its end, returned the last three 65, 1.3e-3 and
    # 5.7e-9 off; a sum of logs never leaves the range.  The errors, up to
    # 6.3e-12, are the drift of the head's running
    # powers x q^k: at the first point about 5.9e-12 in the head's log and
    # 3e-12 in the tail, which starts from the last of them
    mpmath = pytest.importorskip("mpmath")
    points = [
        (0.45484262866015 + 0.059617468536143074j, 0.9998940468358095 + 0.0002576193697650165j),
        (0.99 + 0j, cmath.rect(0.99995, math.pi / 3000.0)),
    ] + [(0.99 + 0j, cmath.rect(0.99995, math.pi / theta)) for theta in (2320, 2280, 2240)]
    for (x, q), n_head in zip(points, (5731, 27525, 27525, 27525, 27525)):
        value, n_factors = qpochhammer_with_count(x, q)
        assert n_factors > qcore._BLOCK_FACTORS
        assert qcore._head_length(abs(x), abs(q)) == n_head
        assert rel(value, _mp_product(mpmath, x, q)) < 1e-11, (x, q)


def test_tail_path_zero_factor_in_the_head():
    # the first factor vanishes, or the second at x = 1/q (1/q * q == 1.0)
    for x, q in ((1.0, 0.9999), (1.0 + 0j, 0.9999j), (1.0 / 0.99995, 0.99995)):
        value, n_factors = qpochhammer_with_count(x, q)
        assert n_factors > qcore._BLOCK_FACTORS
        assert value == 0


def test_real_products_reach_the_blocks_as_float64(monkeypatch):
    # a real (x, q) must not fall back to complex arithmetic
    dtypes = []
    blocks = qcore._power_blocks

    def recording(x, q, n_factors):
        for powers in blocks(x, q, n_factors):
            dtypes.append(powers.dtype)
            yield powers

    monkeypatch.setattr(qcore, "_power_blocks", recording)
    for x, q in ((0.3, 0.999), (-0.3 - 0j, -0.999 + 0j), (0.5, 0.9999)):
        with contextlib.suppress(DomainError):  # (0.5; 0.9999) underflows
            qpochhammer(x, q)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}
    dtypes.clear()
    qpochhammer(0.3 + 1e-300j, 0.999)
    assert dtypes and set(dtypes) == {np.dtype(np.complex128)}


def test_qpochhammer_underflow_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # (x;q)_oo is about e^{-10000}: the product underflows to 0
        with pytest.raises(DomainError, match="underflows"):
            qpochhammer(math.exp(-0.2 * math.pi), math.exp(-2e-5 * math.pi))
        # an exactly vanishing factor is a true zero, not an underflow
        assert qpochhammer(1.0, 0.999) == 0


def test_qpochhammer_subnormal_is_a_domain_error():
    # (0.5; 0.9999)_oo is about e^{-5822}, where a running product would
    # stick at the smallest subnormal, 5e-324.  Its exponent takes the logs
    # of the head's 6,932 factors and the tail's series in place of all
    # 453,563 factors, and it is refused in about 0.13 ms
    seconds = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="underflows"):
            qpochhammer(0.5, 0.9999)
        seconds = min(seconds, time.perf_counter() - t0)
    assert seconds < 0.0015


def test_long_product_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x, q = math.exp(-math.pi), math.exp(-2e-5 * math.pi)
    value, n_factors = qpochhammer_with_count(x, q)
    assert n_factors > 600_000
    with mpmath.workdps(30):
        # log (x;q)_oo = -sum_k x^k / (k (1 - q^k)) at the same double inputs
        mx, mq = mpmath.mpf(x), mpmath.mpf(q)
        log_want = -mpmath.nsum(lambda k: mx**k / (k * (1 - mq**k)), [1, mpmath.inf])
        want = complex(mpmath.exp(log_want))
    assert rel(value, want) < 1e-12


def test_euler_series_refuses_cancellation():
    # the product is 4.89e-26 while the sum's terms reach ~1e10: the sum
    # read 481.3 here; at q = 0.9 its rounding bound is 9e-11 of the value
    for q in (0.99, 0.9):
        with pytest.raises(DomainError):
            euler_series(0.5, q)
    assert rel(euler_series(0.5, 0.8), qpochhammer(0.5, 0.8)) < 1e-13


def test_euler_series_trivial_points():
    assert euler_series(0.0, 0.5) == 1.0
    assert abs(euler_series(1.0, 0.4)) < 1e-12
    assert rel(euler_series(0.3, 0.5), 0.51011782663398757) < 1e-13


@given(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_euler_identity(x, q):
    lhs = qpochhammer(x, q)
    rhs = euler_series(x, q)
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


@given(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_functional_equation(x, q):
    lhs = qpochhammer(x, q)
    rhs = (1.0 - x) * qpochhammer(x * q, q)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# q-Gamma


def test_q_gamma_base_values():
    assert rel(q_gamma(1.0, 0.37), 1.0) < 1e-14
    assert rel(q_gamma(2.0, 0.5), 1.0) < 1e-14
    assert rel(q_gamma(3.0, 0.5), 1.5) < 1e-14


def test_q_gamma_functional_equation():
    rng = random.Random(7)
    for _ in range(40):
        q = complex(rng.uniform(0.05, 0.8), rng.uniform(-0.3, 0.3))
        if abs(q) >= 0.9:
            continue
        z = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
        lhs = q_gamma(z + 1.0, q)
        rhs = (1.0 - q**z) / (1.0 - q) * q_gamma(z, q)
        assert rel(lhs, rhs) < 1e-11


def test_q_gamma_pole_detection():
    # q^z = 1 at z = 0
    with pytest.raises(DomainError):
        q_gamma(0.0, 0.5)
    # q^z = q^{-2}
    with pytest.raises(DomainError):
        q_gamma(-2.0, 0.3)
    # q^z = q^{-40}, far down a slowly shrinking q^n
    with pytest.raises(DomainError):
        q_gamma(-40.0, 0.99)


def test_q_gamma_fails_fast_as_q_to_one():
    # the pole test costs O(1) steps, so the product's factor budget is
    # what refuses these points, at once
    for q in (1.0 - 1e-8, 1.0 - 1e-12):
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError):
            q_gamma(2.5, q)
        assert time.perf_counter() - t0 < 0.1


def test_q_gamma_overflow_is_a_domain_error():
    # |q^z| = 2^1100.5 is past the double range
    with pytest.raises(DomainError):
        q_gamma(-1100.5, 0.5)


def test_q_gamma_refuses_underflowed_products():
    # at q = 0.998 both products are subnormal (~1e-323) and their
    # quotient would read 11180 where Gamma_q(2.5) is about 1.33
    assert rel(q_gamma(2.5, 0.995), 1.3280929828096242) < 1e-12
    for q in (0.998, 0.999):
        with pytest.raises(DomainError):
            q_gamma(2.5, q)


# ---------------------------------------------------------------------------
# eta


def test_eta_frozen():
    # eta(i) = Gamma(1/4) / (2 pi^{3/4})
    closed = math.gamma(0.25) / (2.0 * math.pi**0.75)
    assert rel(eta(1j), closed) < 1e-13
    assert rel(eta(1j), 0.76822542232605666) < 1e-13
    assert rel(eta(2j), 0.59238278133241589) < 1e-13


def test_eta_fixed_point():
    assert eta(-1.0 / 1j) == eta(1j)


def test_eta_domain():
    with pytest.raises(DomainError):
        eta(1.0)


# ---------------------------------------------------------------------------
# theta


def test_theta_product_frozen():
    assert rel(theta_product(0.2, 1.0), 1.9758633981696138) < 1e-13
    q = 0.25
    byhand = qpochhammer(q, q) * qpochhammer(-0.5, q) ** 2
    assert rel(theta_product(q, 1.0), byhand) < 1e-14


def test_theta_inversion_symmetry():
    q, x = 0.3, 0.7 + 0.2j
    assert rel(theta_product(q, x), theta_product(q, 1.0 / x)) < 1e-12


def test_theta_q_difference_equation():
    rng = random.Random(11)
    for _ in range(30):
        q = complex(rng.uniform(0.05, 0.6), rng.uniform(-0.2, 0.2))
        x = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(q) >= 0.7 or abs(q) < 1e-3 or abs(x) < 0.1:
            continue
        lhs = theta_product(q, q * x)
        rhs = theta_product(q, x) / (cmath.sqrt(q) * x)
        assert rel(lhs, rhs) < 1e-11


def _theta_laurent(q: complex, x: complex) -> complex:
    """sum_{|n| <= 40} q^{n^2/2} x^n with the principal q^{1/2}: the Laurent
    side of the triple product.  For |q| <= 0.6 and 1/20 <= |x| <= 3 the
    terms past |n| = 40 are below 1e-100."""
    half = cmath.sqrt(q)
    return sum(half ** (n * n) * x**n for n in range(-40, 41))


def test_theta_laurent_agreement():
    assert (
        rel(theta_product(0.2, 0.7 + 0.3j), 1.9170270360658229 - 0.13152263594631412j)
        < 1e-13
    )
    rng = random.Random(23)
    done = 0
    while done < 50:
        q = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        x = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if not 1e-3 < abs(q) <= 0.6 or q.real <= 0 and abs(q.imag) < 1e-6:
            continue
        if abs(x) < 0.05:
            continue
        a = theta_product(q, x)
        b = _theta_laurent(q, x)
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a))
        done += 1


def test_theta_vanishes_on_spiral():
    q = 0.5
    assert abs(_theta_laurent(q, -math.sqrt(q))) < 1e-10
    assert abs(theta_product(q, -math.sqrt(q))) < 1e-15


def test_theta_rejects_cut_and_zero():
    with pytest.raises(DomainError):
        theta_product(-0.3, 1.0)
    with pytest.raises(DomainError):
        theta_product(0.3, 0.0)


def test_theta_product_tau_off_axis_branch():
    # On Re tau = 1/2 the half-period e^{pi i tau} is not the principal
    # sqrt of q; the tau entry point must still match the Laurent sum
    # built from the same half-period.
    tau = 0.5 + 1.0j
    x = 0.8 + 0.1j
    half = cmath.exp(1j * math.pi * tau)
    direct = sum(half ** (n * n) * x**n for n in range(-40, 41))
    assert rel(theta_product_tau(tau, x), direct) < 1e-13
    # and on the imaginary axis it agrees with the q entry point
    assert rel(theta_product_tau(0.4j, 0.7), theta_product(math.exp(-0.8 * math.pi), 0.7)) < 1e-14


# ---------------------------------------------------------------------------
# Lambert sums


def _point_for(q: float, x: float) -> ModularPoint:
    tau = cmath.log(q) / (2j * math.pi)
    nu = cmath.log(x) / (2j * math.pi)
    return ModularPoint(tau, nu)


def test_lambert_frozen():
    assert rel(lambert_L1(ModularPoint(1j, 0.2j)), 0.39837081774345928) < 1e-13
    assert rel(lambert_L2(ModularPoint(1j, 0.2j)), 0.39890458303868785) < 1e-13


def test_lambert_expanded_forms():
    p = _point_for(0.4, 0.3)
    l1 = sum(0.3 ** (n + 1) / (1.0 - 0.4 ** (n + 1)) for n in range(200))
    l2 = sum(0.3 ** (n + 1) / (1.0 - 0.4 ** (n + 1)) ** 2 for n in range(200))
    assert rel(lambert_L1(p), l1) < 1e-12
    assert rel(lambert_L2(p), l2) < 1e-12


def test_lambert_recurrences():
    tau, nu = 0.8j, 0.2j
    p = ModularPoint(tau, nu)
    shifted = ModularPoint(tau, nu + tau)
    x = p.x
    assert abs(lambert_L1(shifted) - lambert_L1(p) + x / (1.0 - x)) < 1e-12
    assert abs(lambert_L2(shifted) - lambert_L2(p) + lambert_L1(p)) < 1e-12


def test_lambert_recurrences_on_grid():
    for tau in (0.6j, 0.15 + 0.9j, -0.2 + 1.3j):
        for nu in (0.1j, 0.3 + 0.2j, -0.25 + 0.4j):
            p = ModularPoint(tau, nu)
            shifted = ModularPoint(tau, nu + tau)
            x = p.x
            scale = max(1.0, abs(lambert_L1(p)), abs(lambert_L2(p)))
            assert (
                abs(lambert_L1(shifted) - lambert_L1(p) + x / (1.0 - x))
                < 1e-11 * scale
            )
            assert (
                abs(lambert_L2(shifted) - lambert_L2(p) + lambert_L1(p))
                < 1e-11 * scale
            )


def test_lambert_pole_rejection():
    # x = q^{-1} makes the n = 1 denominator vanish
    with pytest.raises(DomainError):
        lambert_L1(ModularPoint(0.5j, -0.5j))
