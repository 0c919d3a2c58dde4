"""Quadrature engine and the integral-defined quantities built on it.

The frozen complex constants below were produced by 50-digit mpmath
quadrature with explicit pole-avoiding breakpoints, cross-run on two
different ray directions; they agree with each other to ~1e-30 and are
quoted here to full double precision.  The q -> 1 and small-slack P
constants come the same way from 30-digit mpmath.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from qmod.errors import ConvergenceError, DomainError
from qmod.qcore import ModularPoint
from qmod.raysum import (
    A_N_MAX,
    ABS_FLOOR,
    DE_SPAN,
    FIRST_STEP,
    MAX_NODES,
    A_n,
    K_N,
    M_almost_modular,
    P_minus,
    P_plus,
    RAY_GRID_STEP,
    RAY_REL_TOL,
    RayResult,
    RaySpec,
    _de_sum,
    _grid,
    _p_integrand,
    _p_series,
    _slack,
    big_G,
    choose_ray,
    dP_dnu,
    dP_dtau,
    g_plus,
    integrate_ray,
    pv_M_direct,
    stokes_sum,
)
from qmod._stability import sin_ratio
from qmod.specialfns import SERIES_RADIUS, fn_B, fn_f


def rel(got, want):
    got, want = complex(got), complex(want)
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# the engine itself


def test_integrate_ray_known_integrals():
    spec = RaySpec(direction_d=0.0)
    val, err = integrate_ray(lambda t: np.exp(-t), spec)
    assert abs(val - 1.0) <= err + 1e-15
    assert err <= RAY_REL_TOL * abs(val) + 1e-15
    val2, _ = integrate_ray(lambda t: t * np.exp(-t), spec)
    assert rel(val2, 1.0) < 1e-11
    # Gaussian: int_0^oo e^{-t^2} = sqrt(pi)/2
    val3, _ = integrate_ray(lambda t: np.exp(-t * t), spec)
    assert rel(val3, 0.5 * math.sqrt(math.pi)) < 1e-11


def test_integrate_ray_rotation_invariance():
    # e^{-t} is entire and decays in |arg t| < pi/2, so the rotated ray
    # must reproduce the same value
    for d in (-math.pi / 6.0, math.pi / 8.0, -math.pi / 3.0):
        val, _ = integrate_ray(lambda t: np.exp(-t), RaySpec(direction_d=d))
        assert rel(val, 1.0) < 1e-11


def test_integrate_ray_flags_nondecaying():
    with pytest.raises(ConvergenceError):
        integrate_ray(lambda t: 1.0 / (1.0 + t * t), RaySpec(direction_d=0.0))


def test_integrate_ray_failure_is_bounded():
    # an integrand that never decays fails within the node budget
    nodes = []

    def flat(t):
        nodes.append(t.size)
        return np.ones_like(t)

    with pytest.raises(ConvergenceError):
        integrate_ray(flat, RaySpec(direction_d=0.0))
    assert 0 < sum(nodes) <= MAX_NODES


def test_integrate_ray_flags_non_finite():
    with pytest.raises(ConvergenceError):
        integrate_ray(
            lambda t: np.where(t.real > 1.0, np.nan, np.exp(-t)), RaySpec(direction_d=0.0)
        )


def _ladder_de_sum(weighted, rel_tol):
    """_de_sum's ladder with one integrand call per level: the reference
    the batched first call must reproduce bit for bit."""
    half = round(DE_SPAN / FIRST_STEP)
    h = FIRST_STEP
    values = weighted(h * np.arange(-half, half + 1))
    ends = np.abs(values[[0, -1]]).max()
    total = h * values.sum()
    change = math.inf
    while True:
        h *= 0.5
        half *= 2
        if 2 * half + 1 > MAX_NODES:
            raise ConvergenceError(f"DE quadrature has not converged within {MAX_NODES} nodes")
        prev, total = total, 0.5 * total + h * weighted(h * np.arange(1 - half, half, 2)).sum()
        if not np.isfinite(total):
            raise ConvergenceError("non-finite integrand value")
        tol = rel_tol * abs(total) + ABS_FLOOR
        prev_change, change = change, abs(total - prev)
        if change <= tol and prev_change <= tol / math.sqrt(rel_tol):
            if ends > tol:
                raise ConvergenceError(
                    f"integrand has not decayed at the ends of the range: "
                    f"{ends:.3e} > {tol:.3e}"
                )
            return RayResult(complex(total), float(change))


def _on_ray(f):
    """weighted(u) of int_0^oo f(t) dt on the real ray with decay 1."""

    def weighted(u):
        r = np.exp(u - np.exp(-u))
        return f(r) * (r * (1.0 + np.exp(-u)))

    return weighted


def _counted(f, calls):
    def wrapped(x):
        calls.append(x.size)
        return f(x)

    return wrapped


# int_0^oo e^{-t} cos(k t) dt = 1/(1 + k^2): k = 20 is accepted at level 8
_FAST = _on_ray(lambda t: np.exp(-t))
_SLOW = _on_ray(lambda t: np.exp(-t) * np.cos(20.0 * t))


def test_de_sum_first_call_covers_five_levels():
    calls = []
    val, _ = integrate_ray(_counted(lambda t: np.exp(-t), calls), RaySpec(direction_d=0.0))
    assert rel(val, 1.0) < 1e-11
    assert calls == [289]


def test_de_sum_one_call_per_level_past_the_batch():
    ladder, batched = [], []
    want = _ladder_de_sum(_counted(_SLOW, ladder), 1e-11)
    got = _de_sum(_counted(_SLOW, batched), 1e-11)
    assert got == want
    assert rel(got.value, 1.0 / 401.0) < 1e-11
    assert len(ladder) > 5  # accepted past level 4
    assert batched == [289] + ladder[5:]


@pytest.mark.parametrize(
    "weighted",
    [
        _FAST,
        _SLOW,
        _on_ray(lambda t: np.exp(-t) * np.sin(3.0 * t) / t),
        _on_ray(lambda t: np.exp((-1.0 + 0.7j) * t)),
        # NaN only on the nodes of levels 3 and 4, which the ladder never
        # reaches: the first call sees them, the sum must not
        lambda u: np.where(u * 8.0 % 1.0 == 0.0, _FAST(u), np.nan),
        # failures: not decayed at the ends, a NaN on the first level, and
        # no settling within MAX_NODES
        lambda u: np.exp(-u * u),
        lambda u: np.where(u > 1.0, np.nan, _FAST(u)),
        lambda u: np.cos(1e5 * u) * np.exp(-u * u),
    ],
)
def test_de_sum_matches_the_level_by_level_ladder(weighted):
    try:
        want = _ladder_de_sum(weighted, 1e-11)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as info:
            _de_sum(weighted, 1e-11)
        assert str(info.value) == str(exc)
    else:
        assert _de_sum(weighted, 1e-11) == want


def test_rayspec_validation():
    with pytest.raises(DomainError):
        RaySpec(direction_d=0.0, decay=0.0)
    with pytest.raises(DomainError):
        RaySpec(direction_d=0.0, decay=-1.0)


# ---------------------------------------------------------------------------
# ray selection


def test_choose_ray_lower_half():
    spec = choose_ray(ModularPoint(1j, 0.25), "lower")
    assert -math.pi < spec.direction_d < 0.0


def test_choose_ray_inside_cone():
    # the chosen ray decays, keeps clear of the pole ray arg(tau) - pi, and
    # has the largest slack of every lower grid angle that keeps clear too
    p = ModularPoint(1j, 0.25)
    d = choose_ray(p, "lower").direction_d
    pole = cmath.phase(p.tau) - math.pi
    assert _slack(p, d) > 0.0
    assert abs(d - pole) >= 0.999 * RAY_GRID_STEP
    grid = [-k * RAY_GRID_STEP for k in range(1, 36)]
    admissible = [a for a in grid if abs(a - pole) >= 0.999 * RAY_GRID_STEP]
    assert len(admissible) == len(grid) - 1
    assert _slack(p, d) == max(_slack(p, a) for a in admissible)


def _argmax_slack(point, half):
    """The first grid angle of largest slack that keeps clear of the pole
    ray, by the scalar _slack, and that slack (-inf if every angle is
    excluded)."""
    pole = cmath.phase(point.tau) - (math.pi if half == "lower" else 0.0)
    best_d, best = None, -math.inf
    for d in _grid(half)[0]:
        d = float(d)
        if abs(d - pole) < 0.999 * RAY_GRID_STEP:
            continue
        s = _slack(point, d)
        if s > best:
            best_d, best = d, s
    return best_d, best


def _domain_fuzz_points(n, seed):
    """(tau, nu) from the domain-fuzz box; every fourth tau is turned so
    that its pole ray lies on a grid angle or at the edge of the
    exclusion radius around one."""
    rng = np.random.default_rng(seed)
    offsets = (0.0, 0.999, -0.999, 0.999 * (1 - 1e-12), 0.999 * (1 + 1e-12), 0.5)
    points = []
    for k in range(n):
        tau = complex(rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(-2.5, 0.5))
        nu = complex(rng.uniform(-0.95, 0.95), rng.uniform(-1.0, 1.0))
        if k % 4 == 0:
            angle = (rng.integers(1, 35) + offsets[k // 4 % len(offsets)]) * RAY_GRID_STEP
            tau = abs(tau) * cmath.exp(1j * angle)
        points.append(ModularPoint(tau, nu))
    return points


@pytest.mark.parametrize("half", ["lower", "upper"])
def test_choose_ray_is_the_scalar_argmax(half):
    chosen = empty = 0
    for p in _domain_fuzz_points(200, seed=5):
        best_d, best = _argmax_slack(p, half)
        if best > 0.0:
            spec = choose_ray(p, half)
            assert (spec.direction_d, spec.decay) == (best_d, best)
            chosen += 1
        else:
            message = f"empty admissible cone (tau = {p.tau}, nu = {p.nu}, {half})"
            with pytest.raises(DomainError) as info:
                choose_ray(p, half)
            assert str(info.value) == message
            empty += 1
    assert chosen > 50 and empty > 20


def test_choose_ray_empty_cone():
    with pytest.raises(DomainError):
        choose_ray(ModularPoint(1j, 1.2), "lower")


def test_choose_ray_bad_half_label():
    with pytest.raises(DomainError):
        choose_ray(ModularPoint(1j, 0.2), "sideways")


# ---------------------------------------------------------------------------
# g^+ and G


def test_g_plus_frozen():
    assert rel(g_plus(1.0), -0.081061466795327258) < 1e-11
    assert rel(g_plus(10.0), -0.0083305634333628713) < 1e-11
    assert rel(g_plus(1 + 1j), -0.042249635750932902 + 0.040912992446230007j) < 1e-11
    assert rel(g_plus(5 - 2j), -0.014360359684293145 - 0.0057311169424152241j) < 1e-11


def test_g_plus_cut():
    with pytest.raises(DomainError):
        g_plus(-1.0)
    with pytest.raises(DomainError):
        g_plus(0.0)


def test_big_G_equals_g_plus():
    # closed Stirling-remainder form against the Laplace integral
    for tau, nu in ((1j, 0.3j), (1j, 0.25), (0.2 + 0.9j, 0.1 + 0.2j), (0.5j, 0.2 + 0.1j)):
        p = ModularPoint(tau, nu)
        assert abs(big_G(p) - g_plus(p.s)) < 1e-10


def test_big_G_frozen_and_domain():
    assert rel(big_G(ModularPoint(1j, 0.3j)), -0.23606490074821558) < 1e-12
    with pytest.raises(DomainError):
        big_G(ModularPoint(1j, -0.3j))  # s = -0.3 on the cut


# ---------------------------------------------------------------------------
# P and friends


def test_P_minus_frozen():
    assert (
        rel(
            P_minus(ModularPoint(1j, 0.3j)),
            -0.083788203310897402 + 0.0017783402628787179j,
        )
        < 1e-10
    )
    assert (
        rel(
            P_minus(ModularPoint(1j, 0.25)),
            0.0043258432497058847 + 0.078272349147541367j,
        )
        < 1e-10
    )
    assert (
        rel(
            P_minus(ModularPoint(0.2 + 0.9j, 0.1 + 0.2j)),
            -0.044693787881103022 + 0.037461840907119918j,
        )
        < 1e-10
    )


@pytest.mark.parametrize(
    "alpha, xi, want",
    [
        (1e-4, 0.1, -2.7415567797038626e-10),
        (1e-5, 0.5, -1.3707783890266599e-11),
        (1e-6, 0.7, -1.9190897446557715e-13),
    ],
)
def test_P_minus_q_to_one_frozen(alpha, xi, want):
    # x -> 1 as q -> 1: the whole integrand lives on the scale alpha
    assert rel(P_minus(ModularPoint.real_case(alpha, xi)), want) < 1e-10


@pytest.mark.parametrize(
    "tau, nu, want",
    [
        (
            -0.4753407435491681 + 0.09001202712039458j,
            0.5094670551829039 - 0.13324891030788422j,
            -0.12472513319505745 - 0.095982489806883749j,
        ),
        (
            -0.19109885580837727 + 0.039974647242647876j,
            0.7446870944462716 - 0.1898923572152853j,
            -0.043756257450762377 + 0.046777899414515946j,
        ),
        (
            -0.2801596997305751 + 0.5807073931193638j,
            -0.4215445762500166 - 0.9428442362695932j,
            0.24652078284832173 + 0.32434491377149222j,
        ),
    ],
)
def test_P_minus_small_slack_frozen(tau, nu, want):
    # rays with decay slack 0.02-0.1 that pass close to the poles of f:
    # the costliest integrals of a domain-wide sample
    assert rel(P_minus(ModularPoint(tau, nu)), want) < 1e-11


def test_P_ray_independence():
    p = ModularPoint(1j, 0.3j)
    a = P_minus(p, RaySpec(direction_d=-math.pi / 3.0))
    b = P_minus(p, RaySpec(direction_d=-math.pi / 5.0))
    assert abs(a - b) < 1e-10


def test_P_odd_in_nu():
    for tau, nu in ((1j, 0.3j), (0.8j, 0.2 + 0.1j), (0.3 + 1.1j, 0.15j)):
        pm = P_minus(ModularPoint(tau, nu))
        mm = P_minus(ModularPoint(tau, -nu))
        assert abs(pm + mm) < 1e-10


def test_P_vanishes_at_zero():
    assert P_minus(ModularPoint(1j, 0)) == 0
    assert P_plus(ModularPoint(0.7j, 0)) == 0


def test_stokes_jump_matches_discrete_sum():
    p = ModularPoint(1j, 0.3j)
    jump = P_minus(p) - P_plus(p)
    assert abs(jump - stokes_sum(p)) < 1e-9


def test_stokes_sum_divergence_guard():
    with pytest.raises(DomainError):
        stokes_sum(ModularPoint(1j, -1.5))  # nu/tau = 1.5i decays too slowly


def test_dP_dnu_matches_finite_difference():
    p = ModularPoint(1j, 0.3j)
    assert (
        rel(dP_dnu(p), -0.0036503250209654966 + 0.24354910549802818j) < 5e-8
    )
    h = 1e-5
    fd = (
        P_minus(ModularPoint(0.8j, 0.2 + h)) - P_minus(ModularPoint(0.8j, 0.2 - h))
    ) / (2.0 * h)
    assert abs(dP_dnu(ModularPoint(0.8j, 0.2)) - fd) < 1e-7


def test_dP_dtau_matches_finite_difference():
    p = ModularPoint(1j, 0.3j)
    assert (
        rel(dP_dtau(p), 0.012283200426329947 + 0.095902661875876106j) < 5e-8
    )
    h = 1e-5
    fd = (
        P_minus(ModularPoint(1j * (1.0 + h), 0.3j))
        - P_minus(ModularPoint(1j * (1.0 - h), 0.3j))
    ) / (2j * h)
    assert abs(dP_dtau(p) - fd) < 1e-7


def _P_mpmath(mpmath, tau, nu):
    """P at 30 digits along the lower ray d = -1/10, admissible for
    tau = i alpha and nu = i c while c < cot(1/10) = 9.97."""
    with mpmath.workdps(30):
        mt, mn, e = mpmath.mpc(tau), mpmath.mpc(nu), mpmath.expj(-0.1)

        def integrand(r):
            t = r * e
            w = t / mt
            with mpmath.extradps(20):  # cot(t/2) - 2/t cancels near 0
                f = mpmath.cot(t / 2) - 2 / t
            return mpmath.sin(mn * w) / mpmath.expm1(1j * w) * f / t * e

        splits = [0] + [abs(tau) * 10.0**k for k in range(-2, 3)] + [mpmath.inf]
        return complex(mpmath.quad(integrand, splits))


def test_P_minus_series_against_mpmath():
    # fixed x (nu = i c) and x -> 1 (real_case) for alpha in [1e-6, 0.1],
    # where the series replaces the ray; the ray itself was off by up to
    # 3e-11 on such x -> 1 points
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    for k in range(8):
        alpha = 10.0 ** rng.uniform(-6.0, -1.0)
        if k % 2:
            point = ModularPoint.real_case(alpha, rng.uniform(0.1, 0.9))
        else:
            point = ModularPoint(1j * alpha, 1j * rng.uniform(0.05, 1.5))
        assert _p_series(point) is not None
        assert rel(P_minus(point), _P_mpmath(mpmath, point.tau, point.nu)) <= 1e-14


def test_P_minus_takes_the_ray_where_the_stokes_sum_counts():
    # Re tau < 0 puts the series' ray in the upper half-plane, so it sums
    # P_plus = P_minus - stokes_sum.  Here the Stokes sum is ~4e-6 against
    # |P| ~ 7e-3, and the bound alone (the same at -conj(tau)) would take it
    tau = -0.014410381229193893 + 0.024693004618361783j
    nu = -0.7301091219703506 - 0.3504649730058935j
    p = ModularPoint(tau, nu)
    assert _p_series(ModularPoint(-tau.conjugate(), nu)) is not None
    assert abs(stokes_sum(p)) > 1e-4 * abs(P_plus(p))
    ray = integrate_ray(_p_integrand(p), choose_ray(p, "lower")).value
    assert P_minus(p) == ray


def test_P_minus_series_keeps_the_lower_cone_refusal():
    # the lower cone is empty, while the series' own ray (Re tau < 0: the
    # upper half-plane) converges
    p = ModularPoint(
        -0.011245422065258026 + 0.01998320998098329j,
        0.5375601444393396 + 0.9095536004751921j,
    )
    with pytest.raises(DomainError):
        P_minus(p)


def test_p_integrand_matches_the_two_kernels():
    # the fused integrand against sin_ratio and fn_f node by node, on the
    # lower and upper rays of seeded points of the domain-fuzz box, on
    # integrate_ray's nodes (ascending |t|) at step h = 1/64: weighted as
    # the trapezoid sum weighs them, the differences add up to at most
    # 1e-13 |I| (measured: 2.5e-14).  Single nodes may carry more where
    # the weighted integrand is 66 |I| and both kernels round to 5e-15
    rng = np.random.default_rng(20261019)
    h = 1.0 / 64.0
    u = np.arange(-DE_SPAN, DE_SPAN + 1e-9, h)
    rays = 0
    for _ in range(60):
        tau = complex(rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(-2.5, 0.5))
        nu = complex(rng.uniform(-0.95, 0.95), rng.uniform(-1.0, 1.0))
        point = ModularPoint(tau, nu)

        def reference(t):
            return sin_ratio(nu, t / tau) * fn_f(t) / t

        for half in ("lower", "upper"):
            try:
                spec = choose_ray(point, half)
            except DomainError:
                continue
            r = np.exp(u - np.exp(-u)) / spec.decay
            radii = (SERIES_RADIUS, abs(tau) / (1.0 + abs(nu)))
            assert r[0] < min(radii) and r[-1] > max(radii)
            e_id = cmath.exp(1j * spec.direction_d)
            t = r * e_id
            weight = h * r * (1.0 + np.exp(-u))
            value = integrate_ray(reference, spec).value
            diff = np.abs(_p_integrand(point)(t) - reference(t)) * weight
            assert diff.sum() <= 1e-13 * abs(value), (tau, nu, half)
            rays += 1
    assert rays >= 60


@pytest.mark.parametrize("d", [0.0, 1e-13, -1e-13])
def test_P_minus_along_the_real_axis_raises(d):
    # the real axis runs through the poles 2 pi k of f: no value may come back
    with pytest.raises((ConvergenceError, DomainError)):
        P_minus(ModularPoint(1j, 0.1j), RaySpec(d))


# ---------------------------------------------------------------------------
# A_n, K_N


def test_A_n_frozen():
    assert rel(A_n(1, 0.1), 0.008331944775049624) < 1e-11
    assert rel(A_n(2, 1.5), -0.010507913575224247) < 1e-11
    assert rel(A_n(1, 2j * math.pi * 0.3), 0.16724521297030401j) < 1e-11
    assert rel(A_n(3, 3 - 2j), 0.0011727430574080582 + 0.0060207215413734799j) < 1e-11


def test_A_1_is_fn_B():
    # the n = 1 moment reproduces B(z/2pi) for |z| < 2 pi
    for z in (0.7, 1.9, 0.5 + 0.5j):
        assert abs(A_n(1, z) - fn_B(z / (2.0 * math.pi))) < 1e-11


def test_A_n_rotated_continuation():
    # |Im z| > 2 pi forces the tilted ray; frozen value from the same
    # 50-digit adjudication as the P constants
    assert rel(A_n(1, 1 + 7j), 0.72457259773197002 - 0.27624721037460656j) < 1e-10


def test_A_n_domain():
    with pytest.raises(DomainError):
        A_n(0, 1.0)
    with pytest.raises(DomainError):
        A_n(1, 7j)  # z^2 on the cut
    with pytest.raises(DomainError):
        A_n(A_N_MAX + 1, 1.0)


def _a_n_ray(n, z):
    """A_n by its defining integral, the implementation the closed forms
    replaced: the real axis for |Im z| < 2 pi, else turned by
    -sign(Im z) pi/4; None where that ray diverges."""
    d = 0.0 if abs(z.imag) < 2.0 * math.pi else -math.copysign(math.pi / 4.0, z.imag)
    margin = 2.0 * math.pi * math.cos(d) - abs((1j * z * cmath.exp(1j * d)).real)
    if not margin > 1e-9:
        return None
    sign = 2.0 if n % 2 else -2.0
    nu_eff = 1j * z / (2.0 * math.pi)

    def integrand(t):
        return sign * t ** (2 * n - 2) * sin_ratio(nu_eff, -2j * math.pi * t)

    try:
        return integrate_ray(integrand, RaySpec(direction_d=d, decay=margin)).value
    except ConvergenceError:
        return None


def _a_n_mpmath(mpmath, n, z):
    """(2n-2)! sum_{k != 0} (z - 2 pi i k)^{1-2n} through Hurwitz zeta, and
    coth(z/2)/2 - 1/z for n = 1."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z.real, z.imag)
        if n == 1:
            return complex(mpmath.coth(z / 2) / 2 - 1 / z)
        s = 2 * n - 1
        two_pi_i = 2j * mpmath.pi
        total = mpmath.zeta(s, 1 - z / two_pi_i) * (-two_pi_i) ** (-s)
        total += mpmath.zeta(s, 1 + z / two_pi_i) * two_pi_i ** (-s)
        return complex(mpmath.factorial(2 * n - 2) * total)


#: small |z|, |z| near pi (where the Taylor series hands over, on and off
#: the real axis), large real z, and complex points past |Im z| = 2 pi
A_N_POINTS = (
    [1e-3, 0.05 + 0.02j, 0.3 - 0.2j, 0.9j, -1.1]
    + [s * math.pi * cmath.exp(1j * a) for s in (0.999, 1.001) for a in (0.0, 0.4, 1.2, 1.57)]
    + [7.0, -12.0, 25.0, 60.0]
    + [1 + 7j, -2.5 + 9j, 0.4 - 13j]
)


@pytest.mark.parametrize("n", [*range(1, 13), 15, 20, 30, 45, A_N_MAX])
def test_A_n_against_mpmath(n):
    # near a zero of A_n on the real axis no form keeps its relative digits,
    # so the error is judged against |A_n| + (2n-2)!/d^{2n-1}, d the distance
    # to the nearest pole: the size of the partial fraction's largest terms.
    # Past n = 12 the s-th powers' rounding, about 9e-16 n, sets the bound
    mpmath = pytest.importorskip("mpmath")
    tol = max(5e-14, 2e-15 * n)
    for z in A_N_POINTS:
        z = complex(z)
        want = _a_n_mpmath(mpmath, n, z)
        d = min(abs(z - 2j * math.pi * k) for k in (-3, -2, -1, 1, 2, 3))
        scale = abs(want) + math.factorial(2 * n - 2) / d ** (2 * n - 1)
        assert abs(A_n(n, z) - want) < tol * scale, z
        # the defining ray integral, where it converges (and before its
        # integrand underflows); past n = 12 it soon stops converging
        ray = _a_n_ray(n, z) if abs(z.real) < 20.0 and n <= 12 else None
        if ray is not None:
            assert abs(ray - want) < 1e-9 * scale, z


def test_A_n_frozen_values_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for n, z in ((1, 0.1), (2, 1.5), (1, 2j * math.pi * 0.3), (3, 3 - 2j), (1, 1 + 7j)):
        assert rel(A_n(n, z), _a_n_mpmath(mpmath, n, complex(z))) < 5e-15


def test_K_N_values():
    assert K_N(0, 0.5) == pytest.approx(1.0, rel=1e-11)
    assert K_N(0, 0.3) == pytest.approx(0.52541633241556748, rel=1e-11)
    assert K_N(1, 0.3) == pytest.approx(2.618265179769483, rel=1e-11)
    assert K_N(1, 0.6) == pytest.approx(15.767778172847079, rel=2e-11)
    assert K_N(2, 0.0) == 0.0


def _k_n_mpmath(mpmath, N, nu):
    """K_N for N >= 1 at real or imaginary nu from Hurwitz zeta values:
    1/(e^t - 1) = sum_k e^{-kt} gives (2N)!/2 [zeta(s, 1 - nu) - zeta(s, 1 + nu)],
    s = 2N + 1, for real nu, and the Fourier series of |sin| gives the
    imaginary case."""
    s = 2 * N + 1
    if nu.imag == 0:
        a = abs(nu.real)
        return mpmath.factorial(2 * N) / 2 * (mpmath.zeta(s, 1 - a) - mpmath.zeta(s, 1 + a))
    # |sin x| = 2/pi - 4/pi sum_m cos(2 m x) / (4 m^2 - 1)
    b = abs(nu.imag)
    cosines = mpmath.nsum(
        lambda m: mpmath.re(mpmath.zeta(s, 1 - 2j * m * b)) / (4 * m * m - 1), [1, mpmath.inf]
    )
    return mpmath.factorial(2 * N) * (2 * mpmath.zeta(s) - 4 * cosines) / mpmath.pi


@pytest.mark.parametrize("nu", [0.3, 0.9, 0.5j])
def test_K_N_large_N_against_mpmath(nu):
    # the peak of t^{2N} e^{-(1 - |Re nu|) t} sits at 2N/(1 - |Re nu|), past
    # a range sized for small N; at Re nu = 0, |sinh(nu t)| has kinks at
    # t = k pi/|Im nu|
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(25):
        for N in (15, 20, 30):
            assert rel(K_N(N, nu), _k_n_mpmath(mpmath, N, complex(nu))) < 1e-13, N


def test_K_N_to_the_end_of_the_double_range():
    # K_58(0.9) = 1.6966e307 sums nodes past the double range unless its
    # integrand is scaled; K_59(0.9) ~ 2e313 is a domain error, not a
    # ConvergenceError or an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rel(K_N(58, 0.9), 1.69655434222599317575555e307) < 1e-13
        with pytest.raises(DomainError, match="double range"):
            K_N(59, 0.9)


def test_K_N_domain():
    with pytest.raises(DomainError):
        K_N(-1, 0.5)
    with pytest.raises(DomainError):
        K_N(0, 1.0)


# ---------------------------------------------------------------------------
# M, two routes


def test_M_frozen():
    assert rel(M_almost_modular(1.0, 0.0), -0.0018726824497685461) < 1e-10
    assert rel(M_almost_modular(1.0, 0.2), -0.058493667858903305) < 1e-10
    assert rel(M_almost_modular(1.0, 0.4), -0.10491384310598428) < 1e-10
    assert rel(M_almost_modular(0.7, 0.2), -0.027646438961262311) < 1e-10


def test_M_routes_agree():
    for alpha, xi in ((1.0, 0.4), (0.7, 0.2)):
        assert abs(M_almost_modular(alpha, xi) - pv_M_direct(alpha, xi)) < 1e-6


def test_M_domain():
    with pytest.raises(DomainError):
        M_almost_modular(0.0, 0.2)
