"""Oracle and property tests for the scalar special functions.

Frozen reference values were computed with mpmath at 50 digits and
pasted in as literals, so these tests run without mpmath installed.
"""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmod import specialfns
from qmod.errors import DomainError
from qmod.specialfns import (
    TWO_PI,
    b2,
    binet,
    dilog,
    fn_f,
    log_gamma,
)

EULER_GAMMA = 0.5772156649015328606


def rel(got, want):
    got, want = complex(got), complex(want)
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# Bernoulli numbers


def test_bernoulli_small_values():
    assert b2(1) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert b2(2) == pytest.approx(-1.0 / 30.0, rel=1e-15)
    assert b2(3) == pytest.approx(1.0 / 42.0, rel=1e-15)
    assert b2(4) == pytest.approx(-1.0 / 30.0, rel=1e-15)
    assert b2(5) == pytest.approx(5.0 / 66.0, rel=1e-15)


def test_bernoulli_b20():
    # B_20 = -174611/330
    assert b2(10) == pytest.approx(-174611.0 / 330.0, rel=1e-14)


def test_bernoulli_signs_alternate():
    for n in range(1, 61):
        assert math.copysign(1.0, b2(n)) == (1.0 if n % 2 == 1 else -1.0)


def test_bernoulli_defining_recurrence():
    # sum_{j=0}^{m} C(m+1, j) B_j = 0, with B_0 = 1, B_1 = -1/2 and odd
    # indices > 1 vanishing.
    def b(j):
        if j == 0:
            return 1.0
        if j == 1:
            return -0.5
        if j % 2 == 1:
            return 0.0
        return b2(j // 2)

    for m in range(1, 50):
        terms = [math.comb(m + 1, j) * b(j) for j in range(m + 1)]
        scale = max(abs(t) for t in terms)
        assert abs(sum(terms)) <= 1e-12 * scale


def test_bernoulli_cap():
    with pytest.raises(DomainError):
        b2(201)
    for n in (0, -1):
        with pytest.raises(DomainError):
            b2(n)


def test_bernoulli_overflow_band():
    # B_258 is the last even Bernoulli number representable in a double.
    assert math.isfinite(b2(129))
    with pytest.raises(DomainError):
        b2(130)


# ---------------------------------------------------------------------------
# fn_f, and B as f rotated


def fn_B(t):
    """The exponential-remainder kernel 1/(e^{2 pi t} - 1) - 1/(2 pi t) + 1/2,
    which fn_f evaluates rotated: B(t) = f(-2 pi i t)/(2i)."""
    return fn_f(-1j * TWO_PI * t) / 2j


def test_fn_B_frozen():
    assert rel(fn_B(0.5), 0.22685581917989344) < 1e-13
    assert rel(fn_B(0.01), 0.0052356432741774917) < 1e-13
    assert rel(fn_B(0.1 + 0.2j), 0.056280974307725087 + 0.10527662361765303j) < 1e-13


def test_fn_B_removable_zero():
    assert fn_B(0.0) == 0.0


def test_fn_B_matches_direct_formula_in_switchover_band():
    # |2 pi t| in [0.4, 0.6] straddles the series/closed-form boundary.
    for r in (0.4, 0.45, 0.5, 0.55, 0.6):
        for phase in (0.0, 0.7, 2.1, -1.3):
            t = r / TWO_PI * cmath.exp(1j * phase)
            direct = 1.0 / (cmath.exp(TWO_PI * t) - 1.0) - 1.0 / (TWO_PI * t) + 0.5
            assert rel(fn_B(t), direct) < 1e-12


def test_fn_f_frozen():
    assert rel(fn_f(1.0), -0.16951227828754808) < 1e-13
    assert rel(fn_f(math.pi), -2.0 / math.pi) < 1e-13
    assert fn_f(0.0) == 0.0


def test_fn_f_is_rotated_fn_B():
    # f(t) = 2i B(it/2pi), with B(it/2pi) = 1/(e^{it} - 1) - 1/(it) + 1/2
    for t in (1 + 0.5j, 0.3, -2.0 + 1j, 4.0):
        direct = 1.0 / (cmath.exp(1j * t) - 1.0) - 1.0 / (1j * t) + 0.5
        assert rel(fn_f(t), 2j * direct) < 1e-12


def test_fn_B_pole_guard():
    with pytest.raises(DomainError):
        fn_B(1j)
    with pytest.raises(DomainError):
        fn_f(2.0 * math.pi)


@given(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
)
@settings(max_examples=300)
def test_fn_B_odd(t):
    # stay away from the poles at nonzero integer multiples of i
    if min(abs(t - 1j * k) for k in (-3, -2, -1, 1, 2, 3)) < 1e-3:
        return
    lhs, rhs = fn_B(-t), -fn_B(t)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
)
@settings(max_examples=300)
def test_fn_f_odd(t):
    if abs(t) > 2.0 * math.pi - 1e-3:
        return
    lhs, rhs = fn_f(-t), -fn_f(t)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# log_gamma, and digamma from Binet's mu'


def digamma(z: complex) -> complex:
    """psi(z) = log z - 1/(2z) + mu'(z)."""
    return cmath.log(z) - 0.5 / z + binet(z, True)


def test_log_gamma_exact_points():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(2.0)) < 1e-14
    assert rel(log_gamma(0.5), 0.5 * math.log(math.pi)) < 1e-13
    assert rel(log_gamma(5.0), math.log(24.0)) < 1e-13


def test_log_gamma_reflection_region():
    # values with Re z < 0.5 route through the reflection formula;
    # Gamma(-1/2) = -2 sqrt(pi), so the log picks up an i*pi
    assert rel(cmath.exp(log_gamma(-0.5)), -2.0 * math.sqrt(math.pi)) < 1e-12
    z = -1.5 + 2.0j
    lhs = log_gamma(z) + log_gamma(1.0 - z)
    rhs = cmath.log(math.pi / cmath.sin(math.pi * z))
    # compare mod 2 pi i
    assert abs(cmath.exp(lhs - rhs) - 1.0) < 1e-11


def test_log_gamma_duplication():
    for z in (0.3, 1.7, 0.8 + 1.2j, 2.5 - 0.4j):
        lhs = log_gamma(2.0 * z)
        rhs = (
            (2.0 * z - 1.0) * math.log(2.0)
            - 0.5 * math.log(math.pi)
            + log_gamma(z)
            + log_gamma(z + 0.5)
        )
        assert abs(cmath.exp(lhs - rhs) - 1.0) < 1e-11


def test_log_gamma_pole():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.0)


def test_digamma_exact_points():
    assert rel(digamma(1.0), -EULER_GAMMA) < 1e-13
    assert rel(digamma(2.0), 1.0 - EULER_GAMMA) < 1e-13
    assert rel(digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0)) < 1e-13


def test_digamma_vs_log_gamma_difference():
    h = 1e-5
    for z in (1.3, 2.0 + 1.5j, 0.7 - 0.3j, 5.0):
        fd = (log_gamma(z + h) - log_gamma(z - h)) / (2.0 * h)
        assert abs(fd - digamma(z)) < 1e-8


# ---------------------------------------------------------------------------
# Binet's function mu and mu'


def test_binet_against_mpmath():
    # log-uniform |s| in [1e-3, 1e7] with arg s up to pi - 1e-3 either way,
    # so Re s < 0 (the reflection) is half the sample; the shift covers
    # |s| < 10 and the plain series the rest
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(5)
    for _ in range(400):
        s = cmath.rect(
            10.0 ** rng.uniform(-3.0, 7.0),
            rng.uniform(-(math.pi - 1e-3), math.pi - 1e-3),
        )
        with mpmath.workdps(40):
            z = mpmath.mpc(s.real, s.imag)
            log_z = mpmath.log(z)
            mu = complex(
                mpmath.loggamma(z) - (z - 0.5) * log_z + z - mpmath.log(2 * mpmath.pi) / 2
            )
            dmu = complex(mpmath.digamma(z) - log_z + 1 / (2 * z))
        err = abs(binet(s) - mu)
        assert err <= 2e-14, f"s = {s}: |error| {err:.2e}"
        if abs(s) >= 1e3:
            assert err <= 1e-15 * abs(mu), f"s = {s}: rel error {err / abs(mu):.2e}"
        derr = abs(binet(s, True) - dmu)
        assert derr <= 2e-14 * max(1.0, abs(dmu)), f"s = {s}: mu' error {derr:.2e}"


def test_binet_pole():
    for z in (0.0, -2.0):
        with pytest.raises(DomainError):
            binet(z)


# ---------------------------------------------------------------------------
# dilog


def test_dilog_frozen():
    assert dilog(0.0) == 0.0
    assert rel(dilog(1.0), math.pi**2 / 6.0) < 1e-13
    assert rel(dilog(0.5), math.pi**2 / 12.0 - 0.5 * math.log(2.0) ** 2) < 1e-13
    assert rel(dilog(-1.0), -math.pi**2 / 12.0) < 1e-13
    assert rel(dilog(0.3), 0.32612951007547607) < 1e-13
    assert rel(dilog(0.8 + 0.9j), 0.52391410442035049 + 1.2280199768041639j) < 1e-12
    assert rel(dilog(-2.5 + 0.4j), -1.7057619909466304 + 0.20005718955511855j) < 1e-12


def test_dilog_branch_cut_upper_limit():
    # real x > 1 takes the limit from above: Im Li2(3) = -pi*log(3) would be
    # the lower limit; upper gives +pi*log(3) ... with our convention the
    # frozen value pins it down.
    got = dilog(3.0)
    assert rel(got, 2.3201804233130984 + 3.4513922952232027j) < 1e-12
    assert got.imag > 0
    # 1 < x <= 2 reflects into the disk around 1 (the series up to 1.5,
    # the Bernoulli series in -log(1 - x) past it)
    mpmath = pytest.importorskip("mpmath")
    for x in (1.2, 1.5, 1.7, 2.0):
        with mpmath.workdps(30):
            want = complex(mpmath.polylog(2, mpmath.mpc(x, 1e-40)))
        assert abs(dilog(x) - want) <= 1e-15 * abs(want), x


def test_dilog_of_a_real_x_in_the_series_disk_is_the_complex_series():
    # a real x (imaginary part +0.0) with |x| <= 1/2 is summed in float: bit
    # for bit the complex series, whose imaginary part stays +0.0; at -0.0
    # the complex series runs as before
    rng = random.Random(20261022)
    xs = [rng.uniform(-0.5, 0.5) for _ in range(2000)] + [0.5, -0.5, 1e-300, -2.0**-1074]
    for a in xs:
        for x in (complex(a, 0.0), complex(a, -0.0)):
            assert repr(dilog(x)) == repr(specialfns._dilog_series(x)), x


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
@settings(max_examples=200)
def test_dilog_landen(x):
    res = dilog(1.0 - x) + dilog(1.0 - 1.0 / x) + 0.5 * cmath.log(x) ** 2
    assert abs(res) < 1e-11


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200)
def test_dilog_inversion(x):
    res = (
        dilog(-x)
        + dilog(-1.0 / x)
        + math.pi**2 / 6.0
        + 0.5 * cmath.log(x) ** 2
    )
    assert abs(res) < 1e-11


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
@settings(max_examples=200)
def test_dilog_euler_reflection(x):
    res = (
        dilog(x)
        + dilog(1.0 - x)
        - math.pi**2 / 6.0
        + math.log(x) * math.log(1.0 - x)
    )
    assert abs(res) < 1e-11


@given(
    st.complex_numbers(max_magnitude=0.45, allow_nan=False, allow_infinity=False)
)
@settings(max_examples=200)
def test_dilog_square_identity(x):
    # Li2(x) + Li2(-x) = Li2(x^2)/2, safe inside the series disk
    res = dilog(x) + dilog(-x) - 0.5 * dilog(x * x)
    assert abs(res) < 1e-12
