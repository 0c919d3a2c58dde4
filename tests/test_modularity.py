"""Identity residual layer: every transformation law as a checked equation.

Most tests here assert a ResidualReport passes at its registered
tolerance; the measured residuals are typically 5 to 8 orders of
magnitude below those tolerances, so failures mean real regressions,
not noise.
"""

import cmath
import inspect
import math
import random
from dataclasses import astuple

import numpy as np
import pytest

import qmod
from qmod.errors import ConvergenceError, DomainError
from qmod.qcore import ModularPoint, qpochhammer, qpochhammer_with_count
from qmod.raysum import (
    A_N_MAX,
    K_N,
    N_MAX,
    A_n,
    P_minus,
    _de_sum,
    _p_series,
    _p_weighted,
    choose_ray,
    dP_dnu,
    dP_dtau,
    pv_M_direct,
    stokes_sum,
    theta_series_table,
)
from qmod.specialfns import binet, dilog
from qmod.modularity import (
    TOLERANCES,
    binet74_residual,
    binet75_residual,
    compare,
    eta_modular_residual,
    euler_residual,
    lambert_relation_residuals,
    mpv_residual,
    q_gamma_modular,
    qpochhammer_modular,
    qpochhammer_modular_with_count,
    ramanujan_completed,
    ramanujan_residual,
    reflection_residual,
    skipped_report,
    stokes_residual,
    theta_modular_residual,
    thm29_residual,
)

GRID_TAUS = (0.3j, 0.7j, 1j, 0.2 + 0.8j, -0.3 + 1.2j)
GRID_NUS = (0.1j, 0.3j, 0.5j, 0.1 + 0.2j, 0.25)


# ---------------------------------------------------------------------------
# report plumbing


def test_compare_relative_mode():
    r = compare("euler-identity", {"x": 1.0}, 2.0, 2.0 + 1e-14, 1e-11)
    assert r.passed and not r.skipped
    assert r.rel_residual == pytest.approx(5e-15, rel=0.5)


def test_compare_absolute_mode_for_tiny_sides():
    # both sides below 1e-8: relative residual of garbage digits must not
    # fail the check, the absolute residual decides
    r = compare("euler-identity", {}, 1e-13, 3e-13, 1e-11)
    assert r.passed
    r2 = compare("euler-identity", {}, 1e-13, 1e-3, 1e-11)
    assert not r2.passed


def test_skipped_report_shape():
    r = skipped_report("thm29", {"tau": 1j, "nu": 1.0}, 1e-8, "inadmissible")
    assert r.skipped and not r.passed
    assert r.skip_reason == "inadmissible"
    assert math.isnan(r.abs_residual)


def test_skipped_report_after_a_failed_cmath_call():
    # CPython's abs of a NaN complex keeps the errno a failed cmath call
    # left, and so raised OverflowError on a skipped report's NaN sides
    with pytest.raises(OverflowError):
        cmath.exp(1735 - 367j)
    r = skipped_report("ramanujan47", {"tau": 1j}, None, "value overflows")
    assert r.skipped and not r.passed
    assert math.isnan(r.abs_residual) and math.isnan(r.rel_residual)
    assert r.tolerance == TOLERANCES["ramanujan47"]


# ---------------------------------------------------------------------------
# thm29 residual family: the q-Pochhammer transformation law


def test_thm29_grid():
    valid = 0
    for tau in GRID_TAUS:
        for nu in GRID_NUS:
            p = ModularPoint(tau, nu)
            if not p.admissible_thm29:
                continue
            r = thm29_residual(p)
            assert r.passed, f"tau={tau}, nu={nu}: rel={r.rel_residual:.3e}"
            assert r.rel_residual < 1e-8
            valid += 1
    assert valid >= 15


def test_thm29_inadmissible_raises():
    with pytest.raises(DomainError):
        qpochhammer_modular(ModularPoint(1j, -0.3j))


def test_thm29_near_q_to_one():
    # q ~ 0.73: the transformed product needs almost no terms
    p = ModularPoint(0.05j, 0.015j)
    r = thm29_residual(p)
    assert r.passed and r.rel_residual < 1e-8
    _, n_star_terms = qpochhammer_modular_with_count(p)
    assert n_star_terms <= 1000


def test_modular_where_x_star_alone_overflows():
    # near the real axis: x* = e^{2 pi i nu/tau} overflows, while
    # x* q* = e^{2 pi i (nu - 1)/tau} is 2.4e-161; the constant is
    # 30-digit mpmath.qp
    p = ModularPoint(
        0.0004913359880447388 + 0.003271669453081849j,
        0.8013655072078107 - 0.011487124487757683j,
    )
    want = 2.3011881961525763e-05 + 1.7321288237519562e-05j
    for f in (qpochhammer_modular, ramanujan_completed):
        got = f(p)
        assert abs(got - want) < 1e-11 * abs(want), f.__name__


@pytest.mark.parametrize(
    "tau, nu",
    [
        # domain-fuzz census seeds 4 and 5: the admissible lower arc is
        # (-5.0, 0) degrees, and a ray at -5 degrees, beside the cone's
        # edge, ran out of nodes
        (
            -0.2759397039189935 + 0.05845833800397404j,
            0.3784855131991207 + 0.07583940029144287j,
        ),
        (
            -0.15925175603479147 + 0.6978255612535618j,
            0.8839863680303097 + 0.3598329443484545j,
        ),
    ],
)
def test_modular_where_the_admissible_arc_is_narrow(tau, nu):
    mpmath = pytest.importorskip("mpmath")
    want = _qp_mpmath(mpmath, tau, nu)
    got = qpochhammer_modular(ModularPoint(tau, nu))
    assert abs(got - want) <= 1e-12 * abs(want)


def _qp_mpmath(mpmath, tau, nu):
    """(x; q)_oo at 30 digits."""
    with mpmath.workdps(30):
        return complex(
            mpmath.qp(mpmath.expjpi(2 * mpmath.mpc(nu)), mpmath.expjpi(2 * mpmath.mpc(tau)))
        )


@pytest.mark.parametrize(
    "tau, nu",
    [
        # Re tau > 0, nu between the cuts of Li_2 (nu in -i (0, oo)) and of
        # G (nu in -tau (0, oo)): the value was off by -e^{2 pi i nu/tau}
        (0.23982859142074187 + 2.6742701839441563j, -0.011497320186277027 - 0.23487904553503003j),
        # Re tau < 0, the same wedge at the mirror point
        (-0.31927 + 0.17571j, 0.26394 - 0.2552j),
    ],
)
def test_modular_across_the_branch_wedge(tau, nu):
    mpmath = pytest.importorskip("mpmath")
    want = _qp_mpmath(mpmath, tau, nu)
    for f in (qpochhammer_modular, ramanujan_completed):
        got = f(ModularPoint(tau, nu))
        assert abs(got - want) <= 1e-14 * abs(want), f.__name__


def test_modular_forms_against_mpmath_on_the_fuzz_box():
    # every value both forms return on seeded points of the domain-fuzz
    # box, Re tau < 0 and Im nu < 0 included; a refusal must be a domain
    # or convergence error (on this sample only a value past the double
    # range is refused)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261020)
    checked = mirrored = wedge = 0
    for _ in range(120):
        tau = complex(rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(-2.5, 0.5))
        nu = complex(rng.uniform(-0.95, 0.95), rng.uniform(-1.0, 1.0))
        point = ModularPoint(tau, nu)
        want = None
        for f in (qpochhammer_modular, ramanujan_completed):
            try:
                got = f(point)
            except (DomainError, ConvergenceError):
                continue
            if want is None:
                want = _qp_mpmath(mpmath, tau, nu)
            assert abs(got - want) <= 1e-10 * abs(want), (f.__name__, tau, nu)
            checked += 1
        if want is not None:
            mirrored += tau.real < 0.0
            wedge += nu.imag < 0.0
    assert checked >= 230 and mirrored >= 50 and wedge >= 50


def test_modular_forms_past_re_nu_one():
    # |Re nu| >= 1, where the principal Li_2 and sqrt(1 - x) have further
    # cuts (Re nu = +-1, +-2, ... at Im nu < 0): at 60 seeded points both
    # forms return a value within 1e-10 of mpmath.qp (measured: 8.4e-14)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261021)
    checked = below = 0
    for _ in range(60):
        tau = complex(rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(-1.5, 0.3))
        nu = complex(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.5), rng.uniform(-1.0, 1.0))
        want = _qp_mpmath(mpmath, tau, nu)
        for f in (qpochhammer_modular, ramanujan_completed):
            got = f(ModularPoint(tau, nu))
            assert abs(got - want) <= 1e-10 * abs(want), (f.__name__, tau, nu)
            checked += 1
            below += nu.imag < 0.0
    assert checked == 120 and below >= 50


def test_modular_overflow_is_a_domain_error():
    # Li2(x)/log q is ~1e4 at tau = 1e-5 i: e^expo leaves the double range.
    # At Re tau < 0 the mirror point overflows, and the error names both
    p = ModularPoint(1e-5j, 0.3 + 0.1j)
    m = ModularPoint(-1e-6 + 1e-5j, 0.3 + 0.1j)
    for f in (qpochhammer_modular, ramanujan_completed):
        with pytest.raises(DomainError):
            f(p)
        with pytest.raises(DomainError, match="value overflows") as info:
            f(m)
        assert str(info.value).startswith(
            f"tau = {m.tau}, nu = {m.nu} evaluated at tau = {m.mirror.tau}, nu = {m.mirror.nu}: "
        )


def test_modular_underflow_is_a_domain_error():
    # (x;q)_oo ~ e^{-Li2(x)/(2 pi alpha)} at x ~ e^{-2 pi 3e-6}, alpha = 1e-5,
    # far below the double range: e^expo underflows to 0
    p = ModularPoint(1e-5j, 1e-7 + 3e-6j)
    for f in (qpochhammer_modular, ramanujan_completed):
        with pytest.raises(DomainError, match="underflows"):
            f(p)


def test_q_gamma_modular_underflow_is_a_domain_error():
    # both products underflow to 0 at alpha = 1e-4
    with pytest.raises(DomainError):
        q_gamma_modular(2.5, 1e-4j)


def test_ramanujan_algebraic_equivalence():
    rng = random.Random(470)
    checked = 0
    while checked < 20:
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 1.5))
        nu = complex(rng.uniform(-0.25, 0.25), rng.uniform(0.05, 0.45))
        p = ModularPoint(tau, nu)
        if not p.admissible_thm29:
            continue
        r = ramanujan_residual(p)
        assert r.passed and r.rel_residual < 1e-12
        checked += 1


def test_ramanujan_vs_direct_product():
    p = ModularPoint(0.1j, 0.05j)
    direct = qpochhammer(p.x, p.q)
    completed = ramanujan_completed(p)
    assert abs(direct - completed) / abs(direct) < 1e-8


def test_ramanujan_at_s_equal_one():
    # nu = tau makes x = q, so the completed form must reproduce (q;q)_oo
    p = ModularPoint(0.5j, 0.5j)
    direct = qpochhammer(p.q, p.q)
    assert abs(ramanujan_completed(p) - direct) / abs(direct) < 1e-9


def test_euler_residual_report():
    r = euler_residual(1.3 - 0.4j, 0.45 + 0.1j)
    assert r.identity_id == "euler-identity"
    assert r.passed and r.rel_residual < 1e-11


# ---------------------------------------------------------------------------
# eta / theta


def test_eta_modular_examples():
    assert eta_modular_residual(1j).rel_residual < 1e-12
    assert eta_modular_residual(0.3j).passed
    assert eta_modular_residual(0.4 + 0.8j).passed


def test_eta_modular_random():
    rng = random.Random(52)
    for _ in range(10):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0))
        r = eta_modular_residual(tau)
        assert r.passed and r.rel_residual < 1e-10


def test_theta_modular_examples():
    assert theta_modular_residual(1j, 0.0).passed
    assert theta_modular_residual(0.8j, 0.2).passed


def test_theta_modular_random():
    rng = random.Random(58)
    for _ in range(10):
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.5))
        nu = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.15, 0.15))
        r = theta_modular_residual(tau, nu)
        assert r.passed and r.rel_residual < 1e-10


# ---------------------------------------------------------------------------
# Stokes / reflection


def test_stokes_relation():
    rng = random.Random(28)
    for _ in range(10):
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.5))
        c = rng.uniform(0.05, 0.45)
        r = stokes_residual(ModularPoint(tau, c * tau))
        assert r.passed and r.rel_residual < 1e-9


def test_reflection_both_sides():
    assert reflection_residual(ModularPoint(1j, 0.25)).passed  # Im s < 0
    assert reflection_residual(ModularPoint(1j, -0.25)).passed  # Im s > 0


def test_reflection_random():
    rng = random.Random(34)
    for _ in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0))
        nu = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.05, 0.5))
        p = ModularPoint(tau, nu)
        if p.nu_star.imag == 0.0:
            continue
        r = reflection_residual(p)
        assert r.passed and r.rel_residual < 1e-10


def test_reflection_boundary_rejected():
    with pytest.raises(DomainError):
        reflection_residual(ModularPoint(1j, 0.3j))  # s real


# ---------------------------------------------------------------------------
# Lambert relations


def test_lambert_72_pure_sums():
    for tau in (0.3j, 0.5j, 0.8j, 1.2j, 2.0j):
        r = lambert_relation_residuals(ModularPoint(tau), 72)
        assert r.passed and r.rel_residual < 1e-10


def test_lambert_71():
    r = lambert_relation_residuals(ModularPoint(0.5j), 71)
    assert r.passed and r.rel_residual < 1e-7


def test_lambert_67_68():
    p = ModularPoint(1j, 0.2j)
    r67 = lambert_relation_residuals(p, 67)
    assert r67.passed and r67.rel_residual < 1e-7
    r68 = lambert_relation_residuals(p, 68)
    assert r68.passed and r68.rel_residual < 1e-6
    p2 = ModularPoint(0.8j, 0.3j)
    assert lambert_relation_residuals(p2, 67).passed
    assert lambert_relation_residuals(p2, 68).passed


def test_lambert_domain():
    with pytest.raises(DomainError):
        lambert_relation_residuals(ModularPoint(1j, 0.2j), 66)
    with pytest.raises(DomainError):
        lambert_relation_residuals(ModularPoint(1j, 0), 67)  # nu = 0
    with pytest.raises(DomainError):
        lambert_relation_residuals(ModularPoint(1j, -0.5j), 68)  # s < 0


# ---------------------------------------------------------------------------
# Binet integrals, M decomposition


# the last: sin(lam u) alone overflows before the integrand decays
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 1 + 1j, -3.2494634273541285 + 5.748565251512438j])
def test_binet_integrals(lam):
    assert binet74_residual(lam).passed
    assert binet75_residual(lam).passed


def test_binet75_far_left():
    # the closed form's cexpm1(-lam) at Re(-lam) < -1420, where sinh(-lam/2)
    # overflows and e^{-lam} - 1 is -1
    assert binet75_residual(-15378.359443602436 - 5.4e-244j).passed


@pytest.mark.parametrize("lam", [-4 + 5j, -0.5 + 6.2j, -1 - 1j])
def test_binet75_at_negative_real_part_against_mpmath(lam):
    # the integral is even in lam; the closed form's principal branch holds
    # for Re lam >= 0 and was off by pi i at the reflected lam.  The oracle
    # expands 1/(e^{2 pi u} - 1) = sum_k e^{-2 pi k u}, each term integrating
    # to log(1 + (lam/(2 pi k))^2)/2 on its principal branch for |Im lam| <
    # 2 pi: quad converges slowly where |Im lam| is near 2 pi
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ml = mpmath.mpc(lam)
        want = complex(mpmath.nsum(
            lambda k: mpmath.log(1 + (ml / (2 * mpmath.pi * k)) ** 2), [1, mpmath.inf]
        ) / 2)
    r = binet75_residual(lam)
    assert r.passed
    assert abs(r.rhs - want) < 1e-13 * max(abs(want), 1.0)
    assert abs(r.lhs - want) < 1e-10 * max(abs(want), 1.0)


def test_binet_divergence_guard():
    with pytest.raises(DomainError):
        binet74_residual(7j)
    with pytest.raises(DomainError):
        binet75_residual(-8j)


@pytest.mark.parametrize("alpha", [1.0, 0.7])
@pytest.mark.parametrize("xi", [0.2, 0.4])
def test_m_decomposition(alpha, xi):
    r = mpv_residual(alpha, xi)
    assert r.passed and r.abs_residual < 1e-6


# ---------------------------------------------------------------------------
# asymptotic table


def test_table_error_within_bound():
    rows = theta_series_table(0.3, [0.1j], n_max=4)
    assert len(rows) == 5
    for row in rows:
        assert row.error <= row.bound_rhs


def test_table_scaling_law():
    rows_a = theta_series_table(0.3, [0.1j], n_max=2)
    rows_b = theta_series_table(0.3, [0.05j], n_max=2)
    for N in (1, 2):
        ra = next(r for r in rows_a if r.N == N)
        rb = next(r for r in rows_b if r.N == N)
        expected = 0.5 ** (2 * N + 1)
        assert expected / 2.0 < rb.error / ra.error < expected * 2.0


def test_table_N0_error_linear_in_tau():
    e1 = theta_series_table(0.3, [0.05j], n_max=0)[0].error
    e2 = theta_series_table(0.3, [0.025j], n_max=0)[0].error
    assert 1.4 < e1 / e2 < 2.9


def test_table_divergence_signature():
    rows = theta_series_table(0.5, [0.3j], n_max=8)
    errors = [r.error for r in rows]
    n_star = errors.index(min(errors))
    assert 0 < n_star < 8
    assert errors[-1] > errors[n_star]


def test_table_reference_is_the_lower_ray():
    # the table checks the series against -P from the ray, bit for bit,
    # also where P_minus itself would take the series; its partial sums
    # are the production series', so the sum P_minus takes is among them
    for tau in (0.01j, 0.02 + 0.05j):
        point = ModularPoint(tau, 0.3)
        assert _p_series(point) is not None
        ray = _de_sum(_p_weighted(point, choose_ray(point))).value
        rows = theta_series_table(0.3, [tau], n_max=N_MAX)
        for row in rows:
            assert row.minus_P == -ray
        assert -P_minus(point) in [row.theta_partial for row in rows]


def test_modular_mirrors_past_an_empty_lower_cone():
    # domain-fuzz seed 1312: the lower cone is empty, so P_minus refuses,
    # but Re tau < 0 sends the modular route to the mirror point, whose
    # lower cone is the conjugate of this point's upper one
    mpmath = pytest.importorskip("mpmath")
    p = ModularPoint(
        -0.011245422065258026 + 0.01998320998098329j,
        0.5375601444393396 + 0.9095536004751921j,
    )
    with pytest.raises(DomainError, match="empty admissible cone"):
        P_minus(p)
    want = _qp_mpmath(mpmath, p.tau, p.nu)
    for f in (qpochhammer_modular, ramanujan_completed):
        assert abs(f(p) - want) <= 1e-12 * abs(want), f.__name__


def test_table_validation():
    with pytest.raises(DomainError):
        theta_series_table(1.5, [0.1j])
    with pytest.raises(DomainError):
        theta_series_table(0.3, [0.1j], n_max=-1)
    with pytest.raises(DomainError):
        # arg tau = 0.01 lies outside the series' sector (pi/4, 3 pi/4)
        theta_series_table(0.3, [1.0 + 0.01j])


# ---------------------------------------------------------------------------
# q -> 1 limits through the transformed side


def test_q_gamma_limit_z_15():
    tau = 0.02j  # q = e^{-0.04 pi} ~ 0.8819
    got = q_gamma_modular(1.5, tau)
    want = math.gamma(1.5)
    assert abs(got - want) / want < 0.01


def test_q_gamma_limit_z_25():
    # First-order q -> 1 law, with eps = -log q = 2 pi alpha:
    #   log Gamma_q(z) = log Gamma(z) - (z - 1)(z - 2) eps / 4 + O(eps^2),
    # because psi_q'(z) = psi'(z) - eps/2 + O(eps^2) and Gamma_q(1) =
    # Gamma_q(2) = 1 for every q.  At z = 2.5 the leading term is -2.36%,
    # so the deviation must match it up to a relative O(eps) remainder
    # (a wrong sign or rate fails this).
    z, alpha = 2.5, 0.02
    eps = 2.0 * math.pi * alpha
    got = q_gamma_modular(z, 1j * alpha)
    dev = got / math.gamma(z) - 1.0
    lead = -(z - 1.0) * (z - 2.0) * eps / 4.0
    assert abs(dev / lead - 1.0) < eps
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = complex(mpmath.qgamma(z, mpmath.exp(-eps)))
    assert abs(got - want) / abs(want) < 1e-12


def test_q_gamma_limit_tightens_as_alpha_shrinks():
    want = math.gamma(2.5)
    devs = [
        abs(q_gamma_modular(2.5, 1j * alpha) - want) / want
        for alpha in (0.04, 0.02, 0.01)
    ]
    assert devs[0] > devs[1] > devs[2]


def test_P_vanishes_linearly_in_alpha():
    # fixed nu: the N = 0 bound is C K_0(nu) |tau|, so halving alpha
    # should roughly halve |P|
    vals = [abs(P_minus(ModularPoint(1j * a, 0.3))) for a in (0.08, 0.04, 0.02)]
    assert vals[0] > vals[1] > vals[2]
    assert 1.5 < vals[0] / vals[1] < 2.5
    assert 1.5 < vals[1] / vals[2] < 2.5


def test_log_expansion_near_q_one():
    # log (x;q)_oo approaches log sqrt(1-x) - Li2(x)/(2 pi alpha)
    from qmod.specialfns import dilog

    x = 0.5
    gaps = []
    for alpha in (0.01, 0.005):
        q = math.exp(-2.0 * math.pi * alpha)
        lead = 0.5 * math.log(1.0 - x) - dilog(x) / (2.0 * math.pi * alpha)
        gaps.append(abs(math.log(qpochhammer(x, q).real) - lead))
    assert gaps[0] < 1e-2
    assert gaps[1] < gaps[0]


@pytest.mark.parametrize("alpha, c", [(1e-4, 0.2), (1e-5, 0.55), (1e-6, 0.9)])
def test_modular_accuracy_as_q_to_one(alpha, c):
    # tau = i alpha, nu = i c, with c near the smallest value that keeps
    # |log (x; q)_oo| <= 600 (about 490, 506 and 558 here); the reference
    # is the log series -sum x^k / (k (1 - q^k)) in 40-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.exp(-2 * mpmath.pi * mpmath.mpf(c))
        log_q = -2 * mpmath.pi * mpmath.mpf(alpha)
        total, k, xk = mpmath.mpf(0), 0, mpmath.mpf(1)
        while k == 0 or term > mpmath.mpf(10) ** -45 * total:
            k += 1
            xk *= x
            term = xk / (k * -mpmath.expm1(k * log_q))
            total += term
        want = complex(mpmath.exp(-total))
    p = ModularPoint(1j * alpha, 1j * c)
    for f in (qpochhammer_modular, ramanujan_completed):
        got = f(p)
        assert abs(got - want) <= 1e-12 * abs(want), (f.__name__, abs(got / want - 1))


def test_modular_route_is_cheap_where_direct_is_not():
    p = ModularPoint(0.01j, 0.003j)
    _, n_direct = qpochhammer_with_count(p.x, p.q)
    _, n_modular = qpochhammer_modular_with_count(p)
    assert n_direct > 100 * max(n_modular, 1)


def test_tolerance_registry_covers_cli_targets():
    for key in (
        "euler-identity",
        "thm29",
        "ramanujan47",
        "eta-modular",
        "theta-modular",
        "stokes28",
        "reflection34",
        "lambert67",
        "lambert68",
        "lambert71",
        "lambert72",
        "binet74",
        "binet75",
        "M-pv",
    ):
        assert key in TOLERANCES


# ---------------------------------------------------------------------------
# every evaluator over the double range


def _part(rng: random.Random) -> float:
    """A real of either sign, its modulus log-uniform in [1e-300, 1e300]."""
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)


def _wide(rng: random.Random) -> complex:
    return complex(_part(rng), _part(rng))


def _upper(rng: random.Random) -> complex:
    return complex(_part(rng), abs(_part(rng)))


def _wide_point(rng: random.Random) -> ModularPoint:
    return ModularPoint(_upper(rng), _wide(rng))


#: every function of qmod.__all__ and the evaluators the CLI reaches past
#: it -> its call on one seeded draw
_DIRECT = {
    "qpochhammer": lambda r: qmod.qpochhammer(_wide(r), _wide(r)),
    "euler_series": lambda r: qmod.euler_series(_wide(r), _wide(r)),
    "q_gamma": lambda r: qmod.q_gamma(_wide(r), _wide(r)),
    "eta": lambda r: qmod.eta(_upper(r)),
    "big_G": lambda r: qmod.big_G(_wide_point(r)),
    "P_minus": lambda r: qmod.P_minus(_wide_point(r)),
    "P_plus": lambda r: qmod.P_plus(_wide_point(r)),
    "choose_ray": lambda r: complex(*astuple(qmod.choose_ray(_wide_point(r)))),
    "dP_dnu": lambda r: dP_dnu(_wide_point(r)),
    "dP_dtau": lambda r: dP_dtau(_wide_point(r)),
    "stokes_sum": lambda r: stokes_sum(_wide_point(r)),
    "K_N": lambda r: K_N(r.randint(0, 60), _wide(r)),
    "A_n": lambda r: A_n(r.randint(1, A_N_MAX), _wide(r)),
    "binet": lambda r: binet(_wide(r)),
    "binet'": lambda r: binet(_wide(r), True),
    "dilog": lambda r: dilog(_wide(r)),
    "q_gamma_modular": lambda r: q_gamma_modular(_wide(r), _upper(r)),
    # about 0.6 s a call where xi is huge: few draws
    "pv_M_direct": lambda r: pv_M_direct(abs(_part(r)), _part(r)),
}


def test_no_direct_call_ends_in_an_exception_or_a_non_finite_value():
    # each call returns a finite value or refuses with DomainError or
    # ConvergenceError; a numpy warning is an error under the test suite's
    # filterwarnings, so it fails the test too
    public = {name for name in qmod.__all__ if inspect.isfunction(getattr(qmod, name))}
    assert public <= set(_DIRECT)
    for name, call in _DIRECT.items():
        rng = random.Random(name)
        for _ in range(3 if name == "pv_M_direct" else 40):
            try:
                value = call(rng)
            except (DomainError, ConvergenceError):
                continue
            assert cmath.isfinite(complex(value)), name
