"""Quadrature engine and the integral-defined quantities built on it.

The frozen complex constants below were produced by 50-digit mpmath
quadrature with explicit pole-avoiding breakpoints, cross-run on two
different ray directions; they agree with each other to ~1e-30 and are
quoted here to full double precision.  The q -> 1 and small-slack P
constants come the same way from 30-digit mpmath.
"""

import cmath
import contextlib
import math
import warnings

import numpy as np
import pytest

from qmod.errors import ConvergenceError, DomainError
from qmod.qcore import ModularPoint
from qmod.raysum import (
    A_N_MAX,
    ABS_FLOOR,
    BATCH_LEVELS,
    DE_SPAN,
    FIRST_STEP,
    MAX_NODES,
    N_MAX,
    A_n,
    K_N,
    M_almost_modular,
    P_minus,
    P_plus,
    RAY_MIN_ARC,
    RAY_REL_TOL,
    RayResult,
    RaySpec,
    _ARC_MARGIN,
    _EXP_LIMIT,
    _a_values,
    _admissible_arc,
    _de_sum,
    _interval_nodes,
    _level_order,
    _p_nodes,
    _p_series,
    _p_weighted,
    _ray_nodes,
    _series_arc_bound,
    _series_scalars,
    _slack,
    _u_nodes,
    big_G,
    choose_ray,
    dP_dnu,
    dP_dtau,
    integrate_ray,
    pv_M_direct,
    stokes_sum,
    theta_series_table,
)
from qmod._stability import cos_ratio, direct_side, sin_ratio
from qmod.specialfns import SERIES_RADIUS, TWO_PI, fn_f


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


def _ladder_de_sum(weighted):
    """_de_sum's ladder with one integrand call per level, each summed by
    np.add.reduceat as _de_sum sums a level: the reference the batched
    first call must reproduce bit for bit."""

    def level_sum(values):
        return np.add.reduceat(values, [0])[0]

    half = round(DE_SPAN / FIRST_STEP)
    h = FIRST_STEP
    values = weighted(h * np.arange(-half, half + 1))
    ends = np.abs(values[[0, -1]]).max()
    total = h * level_sum(values)
    change = math.inf
    while True:
        h *= 0.5
        half *= 2
        if 2 * half + 1 > MAX_NODES:
            raise ConvergenceError(f"DE quadrature has not converged within {MAX_NODES} nodes")
        prev, total = total, 0.5 * total + h * level_sum(weighted(h * np.arange(1 - half, half, 2)))
        if not np.isfinite(total):
            raise ConvergenceError("non-finite integrand value")
        tol = RAY_REL_TOL * abs(total) + ABS_FLOOR
        prev_change, change = change, abs(total - prev)
        if change <= tol and prev_change <= tol / math.sqrt(RAY_REL_TOL):
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
    """f, recording the size of each array it returns: the nodes of an
    integrand or of a weighted(u) or weighted(level, full) of _de_sum."""

    def wrapped(*args):
        values = f(*args)
        calls.append(values.size)
        return values

    return wrapped


def _by_level(weighted):
    """weighted(u) as _de_sum calls it: on the nodes of one call."""
    return lambda level, full: weighted(_u_nodes(level, full))


# int_0^oo e^{-t} cos(k t) dt = 1/(1 + k^2): k = 20 is accepted at level 8
_FAST = _on_ray(lambda t: np.exp(-t))
_SLOW = _on_ray(lambda t: np.exp(-t) * np.cos(20.0 * t))


def test_de_sum_first_call_covers_five_levels():
    calls = []
    val, _ = integrate_ray(_counted(lambda t: np.exp(-t), calls), RaySpec(direction_d=0.0))
    assert rel(val, 1.0) < 1e-11
    assert calls == [289]


#: the first levels of a DE sum: BATCH_LEVELS and those of P_minus's rays,
#: and level 2, whose first call misses nodes that every other one sees
FIRST_LEVELS = range(2, 8)


def test_de_sum_one_call_per_level_past_the_batch():
    ladder = []
    want = _ladder_de_sum(_counted(_SLOW, ladder))
    assert rel(want.value, 1.0 / 401.0) < 1e-11
    assert len(ladder) == 9  # accepted at level 8, past every first level
    for first in FIRST_LEVELS:
        batched = []
        assert _de_sum(_by_level(_counted(_SLOW, batched)), first) == want
        assert batched == [18 * 2**first + 1] + ladder[first + 1 :], first


@pytest.mark.parametrize(
    "weighted",
    [
        _FAST,
        _SLOW,
        _on_ray(lambda t: np.exp(-t) * np.sin(3.0 * t) / t),
        _on_ray(lambda t: np.exp((-1.0 + 0.7j) * t)),
        # NaN only on the nodes of levels 3 and 4, which the ladder never
        # reaches: a first call past level 2 sees them, the sum must not
        lambda u: np.where(u * 8.0 % 1.0 == 0.0, _FAST(u), np.nan),
        # failures: not decayed at the ends, a NaN on the first level, and
        # no settling within MAX_NODES
        lambda u: np.exp(-u * u),
        lambda u: np.where(u > 1.0, np.nan, _FAST(u)),
        lambda u: np.cos(1e5 * u) * np.exp(-u * u),
    ],
)
def test_de_sum_matches_the_level_by_level_ladder(weighted):
    # at every first level: the call that computes a node does not matter
    try:
        want = _ladder_de_sum(weighted)
    except ConvergenceError as exc:
        for first in FIRST_LEVELS:
            with pytest.raises(ConvergenceError) as info:
                _de_sum(_by_level(weighted), first)
            assert str(info.value) == str(exc), first
    else:
        for first in FIRST_LEVELS:
            assert _de_sum(_by_level(weighted), first) == want, first


def test_de_node_tables_are_read_only():
    # the tables are cached and shared by every integral: none may change,
    # the full grid of any first level nor the new nodes of a later one
    for level in range(FIRST_LEVELS.stop + 1):
        for full in (True, False):
            key = (level, full)
            assert _u_nodes(*key).size == (18 * 2**level + 1 if full else 9 * 2**level)
            tables = (_u_nodes(*key), *_ray_nodes(*key), *_interval_nodes(*key), *_p_nodes(*key))
            for table in tables:
                with pytest.raises(ValueError):
                    table[0] = 0.0
    # and the regrouping of a first call's grid by level, from which one
    # reduction sums every level: a permutation whose groups are level 0's
    # nodes and then each later level's new ones, in ascending order
    for first in FIRST_LEVELS:
        order, starts = _level_order(first)
        for table in (order, starts):
            with pytest.raises(ValueError):
                table[0] = 0
        u = _u_nodes(first, True)
        assert np.array_equal(np.sort(order), np.arange(u.size))
        groups = np.split(order, starts[1:])
        assert len(groups) == first + 1
        for level, group in enumerate(groups):
            want = _u_nodes(0, True) if level == 0 else _u_nodes(level, False)
            assert np.array_equal(u[group], want), (first, level)


def test_rayspec_validation():
    with pytest.raises(DomainError):
        RaySpec(direction_d=0.0, decay=0.0)
    with pytest.raises(DomainError):
        RaySpec(direction_d=0.0, decay=-1.0)


# ---------------------------------------------------------------------------
# ray selection


def test_choose_ray_lower_half():
    spec = choose_ray(ModularPoint(1j, 0.25))
    assert -math.pi < spec.direction_d < 0.0


def test_choose_ray_inside_cone():
    # the chosen ray decays, keeps clear of the pole ray arg(tau) - pi, and
    # is the clearest lower angle: at tau = i the cone's edges are the real
    # axis and the pole ray -pi/2, so that is -pi/4
    p = ModularPoint(1j, 0.25)
    spec = choose_ray(p)
    d = spec.direction_d
    assert spec.decay == _slack(p, d) > 0.0
    assert abs(_clearance(p, d) - _mesh_clearance(p)) <= 1e-4
    assert d == -0.25 * math.pi


def _clearance(point, d):
    """The angle from the lower angle d (a float or an array) to the
    nearest obstacle of the ray integral: the real axis, the pole ray, and
    the edges of the cone, where Re(e^{id} (1 -/+ nu) i/tau) changes sign
    (negative outside it)."""
    pole = cmath.phase(point.tau) - math.pi
    edges = [
        0.5 * np.pi
        - np.abs(np.remainder(d + cmath.phase(e * 1j / point.tau) + np.pi, 2.0 * np.pi) - np.pi)
        for e in (1.0 - point.nu, 1.0 + point.nu)
    ]
    return np.minimum.reduce([np.abs(d), np.pi - np.abs(d), np.abs(d - pole), *edges])


#: the dense mesh of the lower half-plane: MESH angles, each angle of the
#: half-plane within half a step of one of them
MESH = 20_000


def _mesh_clearance(point):
    """The largest _clearance on the dense mesh of the lower half-plane,
    which is within half a mesh step below the largest of all."""
    d = (np.arange(MESH) + 0.5) * (-math.pi / MESH)
    return float(_clearance(point, d).max())


def _domain_fuzz_points(n, seed):
    """(tau, nu) from the domain-fuzz box; every fourth tau is turned so
    that its pole ray lies on a multiple of pi/36 or just beside one."""
    step = math.pi / 36.0
    rng = np.random.default_rng(seed)
    offsets = (0.0, 0.999, -0.999, 0.999 * (1 - 1e-12), 0.999 * (1 + 1e-12), 0.5)
    points = []
    for k in range(n):
        tau = complex(rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(-2.5, 0.5))
        nu = complex(rng.uniform(-0.95, 0.95), rng.uniform(-1.0, 1.0))
        if k % 4 == 0:
            angle = (rng.integers(1, 35) + offsets[k // 4 % len(offsets)]) * step
            tau = abs(tau) * cmath.exp(1j * angle)
        points.append(ModularPoint(tau, nu))
    return points


def _series_branch_points(n, seed):
    """(tau, nu) with Re tau >= 0 and |Re nu| < 1, as on P's series branch:
    arg tau in (0, pi/2], every fourth tau on the imaginary axis (the real
    case, where _series_arc_bound is the arc itself), and
    atan2(|Im nu|, 1 - |Re nu|) drawn in [60, 90) degrees, so that the bound
    crosses RAY_MIN_ARC inside the sample."""
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n):
        size = 10.0 ** rng.uniform(-3.0, 0.5)
        tau = 1j * size if k % 4 == 0 else cmath.rect(size, rng.uniform(1e-3, 0.5 * math.pi))
        re_nu = rng.uniform(-0.999, 0.999)
        im_nu = (1.0 - abs(re_nu)) * math.tan(math.radians(rng.uniform(60.0, 90.0)))
        points.append(ModularPoint(tau, complex(re_nu, rng.choice((-1.0, 1.0)) * im_nu)))
    return points


@pytest.mark.parametrize("half", ["lower", "upper", "series branch"])
def test_choose_ray_is_the_scalar_argmax(half):
    # the ray is the clearest angle of the lower half-plane, and the
    # refusals are exactly the points whose admissible arc, twice the
    # largest clearance, is narrower than RAY_MIN_ARC; the upper
    # half-plane is the lower one at the mirror point.  On the series
    # branch's half-plane (Re tau >= 0, |Re nu| < 1) the arc is never
    # narrower than _series_arc_bound, up to the arc's rounding (the bound
    # is the arc itself at Re tau = 0, Re nu = 0), and no point the bound
    # clears is refused: P_minus forms the arc there only where it does not
    chosen = empty = 0
    if half == "series branch":
        points = _series_branch_points(400, seed=31)
    else:
        points = _domain_fuzz_points(200, seed=5)
    for p in points:
        if half == "upper":
            p = p.mirror
        best = _mesh_clearance(p)
        bound = _series_arc_bound(p.nu)
        try:
            spec = choose_ray(p)
        except DomainError as exc:
            assert str(exc) == f"empty admissible cone (tau = {p.tau}, nu = {p.nu})"
            assert 2.0 * (best + 0.5 * math.pi / MESH) < RAY_MIN_ARC
            if half == "series branch":
                assert bound < RAY_MIN_ARC + _ARC_MARGIN, p
            empty += 1
            continue
        clear = _clearance(p, spec.direction_d)
        assert abs(clear - best) <= 1e-4
        assert 2.0 * clear >= RAY_MIN_ARC
        assert spec.decay == _slack(p, spec.direction_d)
        if half == "series branch":
            assert spec.arc >= bound - _ARC_MARGIN, p
        chosen += 1
    assert chosen > 50 and empty > 20


def test_choose_ray_keeps_the_P_integrals_short():
    # a ray beside a pole or a cone edge needs a finer trapezoid step: the
    # nodes of every P ray integral at the seed-5 fuzz points and their
    # mirrors (the upper rays) total 139,114 on the clearest ray, against
    # 210,248 on the ray of largest slack
    nodes = []
    integrals = 0
    for p in _domain_fuzz_points(200, seed=5):
        for q in (p, p.mirror):
            try:
                spec = choose_ray(q)
            except DomainError:
                continue
            _de_sum(_counted(_p_weighted(q, spec), nodes))
            integrals += 1
    assert integrals > 200
    assert sum(nodes) <= 157_000


def test_choose_ray_empty_cone():
    with pytest.raises(DomainError):
        choose_ray(ModularPoint(1j, 1.2))


@pytest.mark.parametrize("nu", [1.0, -1.0])
@pytest.mark.parametrize("half", ["lower", "upper"])
def test_choose_ray_empty_cone_at_a_vanishing_edge(nu, half):
    # (1 -/+ nu) i/tau, the normal of one cone edge, is 0: no angle
    # converges, in the lower half-plane or in the upper (at the mirror)
    p = ModularPoint(0.3 + 1j, nu)
    with pytest.raises(DomainError, match="empty admissible cone"):
        choose_ray(p if half == "lower" else p.mirror)


# ---------------------------------------------------------------------------
# g^+ and G


def _fn_B(t):
    """B(t) = 1/(e^{2 pi t} - 1) - 1/(2 pi t) + 1/2, as f(-2 pi i t)/(2i)."""
    return fn_f(-2j * math.pi * t) / 2j


def _g_plus(z: complex) -> complex:
    """g^+(z) = -int_0^{oo e^{id}} B(t) e^{-2 pi z t} dt/t, z off (-oo, 0]: the
    Laplace integral big_G evaluates in closed form.  The ray d = -arg(z)/2
    keeps clear of B's poles on the imaginary axis and decays at the rate
    2 pi |z| cos(arg(z)/2)."""
    arg = cmath.phase(z)
    spec = RaySpec(-0.5 * arg, decay=2.0 * math.pi * abs(z) * math.cos(0.5 * arg))
    return integrate_ray(lambda t: -_fn_B(t) * np.exp(-2.0 * math.pi * z * t) / t, spec).value


def test_g_plus_frozen():
    # big_G at s = nu/tau = z is g^+(z)
    for z, want in (
        (1.0, -0.081061466795327258),
        (10.0, -0.0083305634333628713),
        (1 + 1j, -0.042249635750932902 + 0.040912992446230007j),
        (5 - 2j, -0.014360359684293145 - 0.0057311169424152241j),
    ):
        assert rel(big_G(ModularPoint(1j, 1j * z)), want) < 1e-11
        assert rel(_g_plus(z), want) < 1e-11


def test_big_G_equals_g_plus():
    # closed Stirling-remainder form against the Laplace integral
    for tau, nu in ((1j, 0.3j), (1j, 0.25), (0.2 + 0.9j, 0.1 + 0.2j), (0.5j, 0.2 + 0.1j)):
        p = ModularPoint(tau, nu)
        assert abs(big_G(p) - _g_plus(p.nu_star)) < 1e-10


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


def test_P_minus_where_the_admissible_arc_is_narrow(monkeypatch):
    # domain-fuzz seed 201: the admissible lower arc is (-5.05, 0) degrees;
    # its midpoint keeps clear of both ends, where a ray at -5 degrees,
    # beside the cone's edge, took 147,457 nodes
    nodes = []
    monkeypatch.setattr(
        "qmod.raysum._de_sum",
        lambda weighted, first: _de_sum(_counted(weighted, nodes), first),
    )
    P_minus(ModularPoint(-0.1191 + 0.1034j, -0.1846 + 0.8580j))
    assert sum(nodes) <= 5_000


def _p_along(point, d):
    """P's ray integral along direction d, its decay rate the slack there:
    the kernel P_minus runs on its own ray, on any other."""
    return _de_sum(_p_weighted(point, RaySpec(d, _slack(point, d)))).value


def _ray_points(points):
    """The points where P_minus takes its ray: no series, and a lower arc."""
    rays = []
    for p in points:
        with contextlib.suppress(DomainError):
            if _p_series(p) is None and choose_ray(p):
                rays.append(p)
    return rays


def test_p_kernel_does_not_depend_on_the_first_level():
    # P_minus starts its DE sum at any level 3 to 7: the table product and
    # the slice splits must give a node the same value whatever the size
    # of the call that holds it, so that every level sums the same numbers
    # and every integral, or its refusal, is that of level BATCH_LEVELS
    def outcome(weighted, first):
        try:
            return _de_sum(weighted, first)
        except ConvergenceError as exc:
            return str(exc)

    points = _ray_points(_domain_fuzz_points(200, seed=11))
    assert len(points) == 140
    for p in points:
        weighted = _p_weighted(p, choose_ray(p))
        want = outcome(weighted, BATCH_LEVELS)
        for first in FIRST_LEVELS:
            assert outcome(weighted, first) == want, (p, first)


def test_P_minus_sizes_its_first_call_by_the_arc(monkeypatch):
    # at the 140 ray points of _domain_fuzz_points(200, seed=11) P_minus,
    # its first level sized by the admissible arc, takes 49,244 nodes, where
    # a first call of level BATCH_LEVELS (every P ray before the arc sized
    # it) takes 58,316; the accepted levels themselves, each in one call and
    # none below 3, would take 46,364.  A point takes more nodes only where
    # its first call, past level BATCH_LEVELS, is past the accepted level
    # too: 5 of the 140 (and 7 pay a second call where the first fell short)
    calls, firsts = [], []

    def counted_de_sum(weighted, first):
        firsts.append(first)
        return _de_sum(_counted(weighted, calls), first)

    monkeypatch.setattr("qmod.raysum._de_sum", counted_de_sum)
    total = batch_total = more = 0
    for p in _ray_points(_domain_fuzz_points(200, seed=11)):
        calls.clear()
        firsts.clear()
        P_minus(p)
        batch = []
        _de_sum(_counted(_p_weighted(p, choose_ray(p)), batch), BATCH_LEVELS)
        if sum(calls) > sum(batch):
            assert firsts[0] > BATCH_LEVELS and calls == [18 * 2 ** firsts[0] + 1], p
            more += 1
        total += sum(calls)
        batch_total += sum(batch)
    assert batch_total == 58_316
    assert total <= 0.85 * batch_total
    assert more <= 5


# P_minus at points of _domain_fuzz_points(40, seed=11), by index, along
# the lower ray -k pi/36 given with each (k = 6, 22, 14, 1, 11, 2, 3, 4):
# point 5 takes 2,305 nodes, 20 takes 1,153, 24 takes 577, the others 289
_P_RAY_BITS = {
    0: (-0.5235987755982988, 0.0686148979073497 + 0.0001177162559988855j),
    1: (-1.9198621771937625, -0.021383082388815693 + 0.08701571088971993j),
    2: (-1.2217304763960306, -0.002784327371774762 + 0.010390839647920196j),
    5: (-0.08726646259971647, -0.031068904252464488 + 0.011200780014580525j),
    9: (-0.9599310885968813, -0.026463181554081148 - 0.09302669048291179j),
    20: (-0.17453292519943295, -0.005681584233614739 - 0.024990176507798566j),
    24: (-0.2617993877991494, -0.013425048977291486 - 0.010258639972661344j),
    27: (-0.3490658503988659, 0.1921299170354815 + 0.12542179081873173j),
}


def test_de_values_to_the_last_bit():
    # every DE path, compared with ==: P's fused kernel on the ray, the
    # generic ray integrand (dP_dnu), K_N's ray and tanh-sinh branches and
    # the principal-value route, where a floating-point operation done in
    # another order moves the last bits of some of these values.  They are
    # those of numpy 2.4.6 on x86-64 with AVX-512; another build or CPU may
    # round differently
    points = _domain_fuzz_points(40, seed=11)
    for k, (d, want) in _P_RAY_BITS.items():
        assert _p_along(points[k], d) == want, k
    assert dP_dnu(ModularPoint(0.8j, 0.2)) == 0.007667053723447635 + 0.25551511002857974j
    assert K_N(3, 0.3) == 4321.9902467784195
    assert K_N(2, 0.5j) == 17.217548299683028
    assert K_N(1, 0.25j) == 1.3430798568016316
    assert pv_M_direct(0.8, 0.3) == -0.05319109389520646
    assert pv_M_direct(0.5, 0.1) == -0.006975220518611532


def test_dP_dnu_against_the_binet_sum():
    # the pinned dP_dnu of test_de_values_to_the_last_bit against
    # -(1/tau) sum_k [mu'((k - nu)/tau) + mu'((k + nu)/tau)] at 30 digits,
    # mu' = psi - log + 1/(2z) the derivative of Binet's function: no ray
    mpmath = pytest.importorskip("mpmath")
    tau, nu = 0.8j, 0.2
    with mpmath.workdps(30):
        mt, mn = mpmath.mpc(tau), mpmath.mpc(nu)

        def dmu(z):
            return mpmath.digamma(z) - mpmath.log(z) + 1 / (2 * z)

        want = -mpmath.nsum(lambda k: dmu((k - mn) / mt) + dmu((k + mn) / mt), [1, mpmath.inf])
        want = complex(want / mt)
    assert rel(dP_dnu(ModularPoint(tau, nu)), want) <= 3e-16


def test_P_ray_independence():
    p = ModularPoint(1j, 0.3j)
    a = _p_along(p, -math.pi / 3.0)
    b = _p_along(p, -math.pi / 5.0)
    assert abs(a - b) < 1e-10


def test_P_odd_in_nu():
    for tau, nu in ((1j, 0.3j), (0.8j, 0.2 + 0.1j), (0.3 + 1.1j, 0.15j)):
        pm = P_minus(ModularPoint(tau, nu))
        mm = P_minus(ModularPoint(tau, -nu))
        assert abs(pm + mm) < 1e-10


def test_P_vanishes_at_zero():
    assert P_minus(ModularPoint(1j, 0)) == 0
    assert P_plus(ModularPoint(0.7j, 0)) == 0


def test_P_ray_refuses_where_its_first_node_underflows():
    # at |tau| ~ 1e-290 the ray's scale rho = e^{id}/decay is of the order
    # of |tau|, so its smallest nodes t = rho r0 are 0 in doubles, where
    # sin(nu w)/expm1(iw) would be 0/0: a refusal, raised before the kernel
    # runs, not an invalid-value warning from numpy (an error under the
    # test suite's filterwarnings) followed by a non-finite sum
    with pytest.raises(ConvergenceError, match="underflows"):
        P_minus(ModularPoint(1e-290j, 3e-291j))
    with pytest.raises(ConvergenceError, match="underflows"):
        theta_series_table(0.3, [1e-300j], n_max=1)


def test_quantities_past_the_double_range_refuse_before_any_work():
    # each once ended otherwise: complex abs raised OverflowError on P's end
    # node at tau = 1e20 i (its series scalar rho^19 overflows), float ** int
    # on the table's |tau|^{2N+1}, the table's partial sums turned nan where
    # (log q)^{2N-1} overflows first and its bound inf where its product
    # does, dP_dtau's 1/(tau tau) divided by 0, and
    # K_N at imaginary nu integrated one piece per zero of sin(t Im nu), for
    # minutes at Im nu = 1e5
    with pytest.raises(ConvergenceError, match="rho\\^19"):
        P_minus(ModularPoint(1e20j, 0.1j))
    with pytest.raises(DomainError, match="overflows"):
        theta_series_table(0.3, [1e15j], n_max=12)
    with pytest.raises(DomainError, match="value is not finite"):
        theta_series_table(0.3, [1e4j], n_max=36)
    with pytest.raises(DomainError, match="bound is not finite"):
        theta_series_table(0.3, [1e2j], n_max=60)
    with pytest.raises(DomainError, match="not finite"):
        dP_dtau(ModularPoint(-9.18e-250 + 8.99e-227j, 1.02e162 - 1.38e73j))
    assert K_N(0, 31j) == pytest.approx(3.2990777635612836, rel=1e-12)
    for nu in (40j, 1e5j, 1e300j):
        with pytest.raises(ConvergenceError, match="pieces"):
            K_N(0, nu)


@pytest.mark.parametrize("tau, nu", [(1.895e-6j, 3.280e-7j), (2.867e-6j, 4.691e-7j)])
def test_P_plus_takes_the_series_through_the_mirror(tau, nu):
    # x -> 1 points where the Stokes sum is below 1e-300: P_plus is P_minus
    # at the mirror, here the point itself, and so the certified series;
    # an upper ray of its own was 8.7e-11 and 3.0e-11 off
    p = ModularPoint(tau, nu)
    assert _p_series(p.mirror) is not None
    assert abs(P_plus(p) - P_minus(p)) <= 1e-15 * abs(P_minus(p))


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


def _P_binet(mpmath, tau, nu):
    """P_minus(tau, nu) = sum_{k>=1} [mu((k - nu)/tau) - mu((k + nu)/tau)]
    at 25 digits, mu Binet's function from mpmath.loggamma: no ray and no
    quadrature.  At Re tau < 0 the arguments lie beside the cut of mu,
    where its terms carry e^{-2 pi i z}, which falls only like
    e^{-2 pi k |Im(1/tau)|} and which nsum's extrapolation does not model:
    those terms are summed one by one until it is below 1e-40."""
    with mpmath.workdps(25):
        mt, mn = mpmath.mpc(tau), mpmath.mpc(nu)

        def mu(z):  # less its constant log(2 pi)/2, which each term cancels
            return mpmath.loggamma(z) - (z - 0.5) * mpmath.log(z) + z

        def term(k):
            return mu((k - mn) / mt) - mu((k + mn) / mt)

        head = 1
        if tau.real < 0.0:
            head = math.ceil(40.0 * math.log(10.0) / (2.0 * math.pi * abs((1.0 / tau).imag)))
        tail = mpmath.nsum(term, [head, mpmath.inf])
        return complex(mpmath.fsum(term(k) for k in range(1, head)) + tail)


def test_P_against_the_binet_sum():
    # the pinned rays of test_de_values_to_the_last_bit, and P_minus and
    # P_plus (P_minus at the mirror point, the other sign of Re tau) at the
    # first two ray points and the first series point of seeded fuzz points
    mpmath = pytest.importorskip("mpmath")
    points = _domain_fuzz_points(40, seed=11)
    for k, (d, _) in _P_RAY_BITS.items():
        p = points[k]
        assert rel(_p_along(p, d), _P_binet(mpmath, p.tau, p.nu)) <= 1e-14, k
    left = {"ray": 2, "series": 1}
    for p in _domain_fuzz_points(300, seed=13):
        try:
            got = P_minus(p), P_plus(p)
        except DomainError:
            continue
        kind = "ray" if _p_series(p) is None else "series"
        if not left[kind]:
            continue
        left[kind] -= 1
        assert rel(got[0], _P_binet(mpmath, p.tau, p.nu)) <= 1e-14, p
        q = p.mirror
        assert rel(got[1], _P_binet(mpmath, q.tau, q.nu).conjugate()) <= 1e-14, p
        if not any(left.values()):
            break
    assert not any(left.values())


@pytest.mark.parametrize(
    "tau, nu", [(0.1 + 0.5j, 0.001 + 0.001j), (0.1 + 0.5j, 1e-6j), (0.4 + 0.05j, 1e-4j)]
)
def test_P_minus_keeps_its_digits_as_nu_goes_to_zero(tau, nu):
    # P ~ nu as nu -> 0: its sine ratio as (e^{i(nu-1)w} - e^{-i(nu+1)w}) /
    # (2i (1 - e^{-iw})) cancels like 1/|nu| and left P 2.9e-14, 6.5e-12
    # and 4.0e-14 off here; sin(nu w)/expm1(iw) keeps every digit, in P's
    # fused kernel and in sin_ratio, through the generic ray integrand
    mpmath = pytest.importorskip("mpmath")
    p = ModularPoint(tau, nu)
    assert _p_series(p) is None
    want = _P_binet(mpmath, tau, nu)
    assert rel(P_minus(p), want) <= 1e-14
    generic = integrate_ray(lambda t: sin_ratio(nu, t / tau) * fn_f(t) / t, choose_ray(p))
    assert rel(generic.value, want) <= 1e-14


def test_sine_and_cosine_ratios_against_mpmath():
    # sin(nu w)/expm1(iw) and cos(nu w)/expm1(iw) on admissible rays,
    # |Im(nu w)| < -Im w, at radii either side of direct_side's limit
    # -Im w = _EXP_LIMIT and of the split |w|(1 + |nu|) = 1 that cos_ratio
    # took before, for |nu| down to 1e-6, against 40-digit mpmath at the
    # same doubles.  Rounding nu w and i(nu -/+ 1)w costs about
    # eps |w|(1 + |nu|) of the value (measured: at most 4.3e-16 times
    # 1 + |w|(1 + |nu|))
    mpmath = pytest.importorskip("mpmath")
    sides = set()
    nus = (0.3 + 0.2j, -0.7 + 0.4j, 0.5 - 0.45j, 0.9, 0.25j, 1e-3j, 1e-6, 1e-6j, -1e-6 + 1e-6j)
    for nu in nus:
        for phi in math.pi * np.array([-0.5, -1 / 3, -2 / 3, -0.2, -0.9]):
            e = cmath.exp(1j * phi)
            if not abs((nu * e).imag) < -e.imag:
                continue
            radii = [1e-3, 0.5, 5.0, 60.0, 1300.0]
            radii += [(1.0 + k) / (1.0 + abs(nu)) for k in (-1e-3, 1e-3)]
            radii += [(_EXP_LIMIT + k) / -e.imag for k in (-0.5, 0.5)]
            for w in (r * e for r in radii):
                with mpmath.workdps(40):
                    mnu, mw = mpmath.mpc(nu), mpmath.mpc(w)
                    den = mpmath.expm1(1j * mw)
                    want = [mpmath.sin(mnu * mw) / den, mpmath.cos(mnu * mw) / den]
                if abs(want[0]) < 1e-300:  # past the double range
                    continue
                sides.add(bool(direct_side(nu, np.array(w))))
                tol = 1e-15 * (1.0 + abs(w) * (1.0 + abs(nu)))
                assert rel(sin_ratio(nu, w), complex(want[0])) <= tol, (nu, w)
                assert rel(cos_ratio(nu, w), complex(want[1])) <= tol, (nu, w)
    assert sides == {True, False}


def test_series_scalars_are_the_powers():
    # _p_weighted's ten series scalars, formed by products in the order
    # CPython's complex ** int takes them: bit for bit the powers
    rng = np.random.default_rng(20261020)
    for _ in range(2000):
        rho = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-2.0, 1.0)
        assert _series_scalars(rho) == tuple(rho * (-rho * rho) ** j for j in range(10)), rho


def test_P_minus_past_the_overflow_radius(monkeypatch):
    # points 88 and 162 of _domain_fuzz_points(200, seed=11), at Re tau >= 0:
    # their rays reach -Im w = _EXP_LIMIT, w = t/tau, inside P's first DE
    # call (at node 1,090 of 1,153 and 546 of 577), past which sin(nu w) and
    # expm1(iw) overflow and the sine ratio takes its three-exponential form
    mpmath = pytest.importorskip("mpmath")
    firsts = []

    def first_level(weighted, first):
        firsts.append(first)
        return _de_sum(weighted, first)

    monkeypatch.setattr("qmod.raysum._de_sum", first_level)
    points = _domain_fuzz_points(200, seed=11)
    for k in (88, 162):
        p = points[k] if points[k].tau.real >= 0.0 else points[k].mirror
        firsts.clear()
        value = P_minus(p)
        spec = choose_ray(p)
        r0, _ = _ray_nodes(firsts[0], True)
        reach = -(cmath.exp(1j * spec.direction_d) / spec.decay * r0 / p.tau).imag
        assert reach[0] < _EXP_LIMIT < reach[-1], k
        assert rel(value, _P_binet(mpmath, p.tau, p.nu)) <= 1e-14, k


def _series_terms(point):
    """_p_series at point and the number of A_n it forms (a spy on
    _a_terms counts the terms drawn)."""
    from qmod import raysum

    drawn = []
    real = raysum._a_terms

    def counted(*args):
        for value in real(*args):
            drawn.append(value)
            yield value

    raysum._a_terms = counted
    try:
        return _p_series(point), len(drawn)
    finally:
        raysum._a_terms = real


def _series_point(kind, target, rng):
    """A seeded fixed-x (tau = i alpha, nu = i c) or x -> 1 (real_case)
    point where P's series takes target terms, its alpha found by bisection
    on log alpha (N grows with alpha up to the ray), or None."""
    c = rng.uniform(0.05, 1.5) if kind == "fixed-x" else rng.uniform(0.1, 0.9)

    def point(log_alpha):
        alpha = 10.0**log_alpha
        if kind == "fixed-x":
            return ModularPoint(1j * alpha, 1j * c)
        return ModularPoint.real_case(alpha, c)

    lo, hi = -6.0, -0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        value, n = _series_terms(point(mid))
        if value is not None and n == target:
            return point(mid)
        if value is None or n > target:
            hi = mid
        else:
            lo = mid
    return None


def test_P_series_against_the_binet_sum_at_every_N():
    # P's series (one pass of _a_terms, N by the bound's search) against the
    # 25-digit Binet sum at seeded q -> 1 points, fixed x and x -> 1, that
    # take every N from 2 to N_MAX between them
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261021)
    covered = set()
    for target in range(2, N_MAX + 1):
        for kind in ("fixed-x", "x -> 1"):
            p = _series_point(kind, target, rng)
            if p is None:
                continue
            value, n = _series_terms(p)
            assert n == target
            assert rel(value, _P_binet(mpmath, p.tau, p.nu)) <= 1e-14, (kind, target, p)
            covered.add(target)
    assert covered == set(range(2, N_MAX + 1))


def _p_series_by_scan(point):
    """P's series with N from a scan of b_1, b_2, ..., b_{N_MAX}, the search
    _p_series replaced, and A_1, ..., A_N from _a_values: the same terms
    summed in the same order, None where no N <= N_MAX certifies P."""
    from qmod.qcore import TERM_TOL
    from qmod.raysum import SERIES_EPS, _series_constants

    tau, nu = point.tau, point.nu
    a, abs_tau = abs(nu.real), abs(tau)
    if not (abs_tau < 1.0 - a and tau.real >= 0.0 and math.atan2(tau.imag, tau.real) > SERIES_EPS):
        return None
    consts = _series_constants(N_MAX)
    inv = 1.0 / (1.0 - a)

    def bound(n):
        _, _, e, f1, f1_z1, f2, f2_z2 = consts[n]
        t, x = abs_tau**e, (inv * abs_tau) ** e
        return min(f1 * x + f1_z1 * t, abs(nu) * (f2 * inv * x + f2_z2 * t))

    z = TWO_PI * 1j * nu
    first = consts[1][0] * _a_values(range(1, 2), z)[0] * point.log_q
    tol = TERM_TOL * (abs(first) - bound(1))
    n_terms = next((n for n in range(1, N_MAX + 1) if bound(n) < tol), None)
    if n_terms is None:
        return None
    total, power = 0j + first, point.log_q**3
    for n, a_n in enumerate(_a_values(range(1, n_terms + 1), z)[1:], 2):
        total += consts[n][0] * a_n * power
        power *= point.log_q**2
    return -total


def test_P_series_search_is_the_scan_it_replaced():
    # the reject at b_{N_MAX} and the probes b_2, b_4, b_8 with bisection
    # find the N a scan from N = 1 finds, bit for bit the same value, at
    # seeded q -> 1 points of every N and at ray points
    rng = np.random.default_rng(20261024)
    points = []
    for _ in range(150):
        alpha = 10.0 ** rng.uniform(-6.0, -0.3)
        points.append(ModularPoint.real_case(alpha, rng.uniform(0.1, 0.9)))
        points.append(ModularPoint(1j * alpha, 1j * rng.uniform(0.05, 1.5)))
    points += [_series_point(kind, n, rng) for n in (10, 11, 12) for kind in ("fixed-x", "x -> 1")]
    points += _domain_fuzz_points(60, seed=11)
    lengths = set()
    for p in filter(None, points):
        value, n = _series_terms(p)
        want = _p_series_by_scan(p)
        assert (value is None) == (want is None), p
        if value is not None:
            assert repr(value) == repr(complex(want)), p
            lengths.add(n)
    assert lengths >= set(range(2, N_MAX + 1))


def test_P_series_rejects_a_ray_point_on_its_first_term():
    # where b_{N_MAX} does not certify P the series is rejected on A_1
    # alone: no A_n past the first is formed (the early reject that keeps
    # the ray points' cost), at the ray points of q -> 1 (x -> 1 and fixed x
    # at larger alpha) and of the domain-fuzz box
    rng = np.random.default_rng(20261022)
    points = []
    for _ in range(40):
        alpha = 10.0 ** rng.uniform(-1.5, -0.3)
        points.append(ModularPoint.real_case(alpha, rng.uniform(0.1, 0.9)))
        points.append(ModularPoint(1j * alpha, 1j * rng.uniform(0.05, 1.5)))
    points += _domain_fuzz_points(100, seed=11)
    rejected = 0
    for p in points:
        value, n = _series_terms(p)
        if value is None:
            assert n <= 1, p
            rejected += n  # those that formed A_1, the others no A_n at all
    assert rejected >= 30


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


@pytest.mark.parametrize(
    "tau, nu",
    [
        (0.19911922170236368j, 0.12377042585726984j),
        (0.23220679077247164j, 0.08805372619198726j),
    ],
)
def test_P_minus_ray_against_mpmath_near_the_real_axis(tau, nu):
    # the ray of largest slack here is d = -5 degrees, beside f's real
    # poles, where the ray integral was off by 5.8e-14 and 9.1e-14
    mpmath = pytest.importorskip("mpmath")
    point = ModularPoint(tau, nu)
    assert _p_series(point) is None
    assert rel(P_minus(point), _P_mpmath(mpmath, tau, nu)) <= 1e-14


def test_P_minus_takes_the_ray_where_the_stokes_sum_counts():
    # at Re tau < 0 the series' ray is in the upper half-plane, where it
    # sums P_plus = P_minus - stokes_sum, so P_minus takes the ray.  Here
    # the Stokes sum is ~4e-6 against |P| ~ 7e-3, while the bound alone
    # (the same at -conj(tau)) would take the series
    tau = -0.014410381229193893 + 0.024693004618361783j
    nu = -0.7301091219703506 - 0.3504649730058935j
    p = ModularPoint(tau, nu)
    assert _p_series(p) is None
    assert _p_series(ModularPoint(-tau.conjugate(), nu)) is not None
    assert abs(stokes_sum(p)) > 1e-4 * abs(P_plus(p))
    ray = _de_sum(_p_weighted(p, choose_ray(p))).value
    assert P_minus(p) == ray


def test_P_minus_series_forms_the_arc_only_below_its_bound(monkeypatch):
    # at tau = i alpha, nu = i c the arc is _series_arc_bound itself: the
    # series returns without forming it up to c = 11.4, where the bound
    # clears RAY_MIN_ARC, and past it the arc is formed and refuses
    formed = []

    def arc(point):
        formed.append(point)
        return _admissible_arc(point)

    monkeypatch.setattr("qmod.raysum._admissible_arc", arc)
    for c in (0.01, 2.0, 11.4):
        p = ModularPoint(1e-3j, c * 1j)
        assert _series_arc_bound(p.nu) >= RAY_MIN_ARC + _ARC_MARGIN
        assert P_minus(p) == _p_series(p)
    assert not formed
    p = ModularPoint(1e-3j, 11.5j)
    assert _p_series(p) is not None
    with pytest.raises(DomainError, match="empty admissible cone"):
        P_minus(p)
    assert formed == [p]


def test_P_minus_series_keeps_the_lower_cone_refusal():
    # the lower cone is empty, while the series' own ray (Re tau < 0: the
    # upper half-plane) converges.  At the second point the series' bound
    # would certify P (it does at the mirror, for P_plus), and the lower
    # arc, (-3.6, 0) degrees, is narrower than RAY_MIN_ARC: the series is
    # not tried at Re tau < 0, so it cannot stand in for the refusal
    p = ModularPoint(
        -0.011245422065258026 + 0.01998320998098329j,
        0.5375601444393396 + 0.9095536004751921j,
    )
    with pytest.raises(DomainError):
        P_minus(p)
    p = ModularPoint(
        -0.002368844413071383 + 0.0027548278201332366j,
        -0.3367407374526491 - 0.6800050053083299j,
    )
    assert _p_series(p) is None
    assert _p_series(p.mirror) is not None
    with pytest.raises(DomainError, match="empty admissible cone"):
        P_minus(p)
    # Re tau > 0, where the series is tried: its bound certifies P, while
    # the edge (1 + nu) i/tau, with 1 + nu = 0.05 - i close to -i (0, oo),
    # leaves a lower arc narrower than RAY_MIN_ARC: only P_minus's own
    # check refuses
    p = ModularPoint(2e-05 + 0.001j, -0.95 - 1j)
    assert _p_series(p) is not None
    assert _series_arc_bound(p.nu) < RAY_MIN_ARC  # so P_minus forms the arc
    with pytest.raises(DomainError, match="empty admissible cone"):
        _admissible_arc(p)
    with pytest.raises(DomainError, match="empty admissible cone"):
        P_minus(p)


def test_p_integrand_matches_the_two_kernels():
    # the fused weighted integrand against sin_ratio and fn_f node by node,
    # on the lower and upper rays of seeded points of the domain-fuzz box
    # (an upper ray is the conjugate of the mirror point's lower ray), at
    # the kernel's nodes t = (e^{id}/decay) r0 of the levels BATCH_LEVELS
    # and BATCH_LEVELS + 1, which make up the step h = 1/64: weighted as the
    # trapezoid sum weighs them, the differences add up to at most
    # 1e-13 |I| (measured: 4.6e-14).  Single nodes may carry more where the
    # weighted integrand is 66 |I| and both kernels round to 5e-15.  Every
    # ray's nodes straddle the series' radius; the rays of points 88 and 162
    # of _domain_fuzz_points(200, seed=11), and three seeded ones, also
    # cross the end of the sine ratio's direct side, past which it decays
    rng = np.random.default_rng(20261019)
    points = [
        ModularPoint(
            complex(rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(-2.5, 0.5)),
            complex(rng.uniform(-0.95, 0.95), rng.uniform(-1.0, 1.0)),
        )
        for _ in range(60)
    ]
    fuzz = _domain_fuzz_points(200, seed=11)
    points += [fuzz[k] if fuzz[k].tau.real >= 0.0 else fuzz[k].mirror for k in (88, 162)]
    h = FIRST_STEP / 2 ** (BATCH_LEVELS + 1)
    rays = past_direct_end = 0
    for point in points:
        tau, nu = point.tau, point.nu

        def reference(t):
            return sin_ratio(nu, t / tau) * fn_f(t) / t

        for half in ("lower", "upper"):
            try:
                spec = choose_ray(point if half == "lower" else point.mirror)
            except DomainError:
                continue
            if half == "upper":  # the conjugate of the mirror's lower ray
                spec = RaySpec(-spec.direction_d, spec.decay)
            weighted = _p_weighted(point, spec)
            value = integrate_ray(reference, spec).value
            rho = cmath.exp(1j * spec.direction_d) / spec.decay
            diff = 0.0
            for key in ((BATCH_LEVELS, True), (BATCH_LEVELS + 1, False)):
                r0, one_plus_e_u = _ray_nodes(*key)
                t = rho * r0
                diff += h * np.abs(weighted(*key) - reference(t) * t * one_plus_e_u).sum()
            # the kernel's two splits, on r0 as _p_weighted takes them
            assert r0[0] < SERIES_RADIUS * spec.decay < r0[-1]
            direct_end = _EXP_LIMIT / -(rho / tau).imag
            if direct_end < r0[-1]:
                assert r0[0] < direct_end
                past_direct_end += 1
            assert diff <= 1e-13 * abs(value), (tau, nu, half)
            rays += 1
    assert rays >= 60
    assert past_direct_end >= 2


@pytest.mark.parametrize("d", [0.0, 1e-13, -1e-13])
def test_P_minus_along_the_real_axis_raises(d):
    # the real axis runs through the poles 2 pi k of f: no value may come back
    with pytest.raises((ConvergenceError, DomainError)):
        _p_along(ModularPoint(1j, 0.1j), d)


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
        assert abs(A_n(1, z) - _fn_B(z / (2.0 * math.pi))) < 1e-11


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
    # (2n-2)!/d^{2n-1} overflows next to the pole 2 pi i, and z^{2n-1} far out
    for z in (6.28j, 6.2831j, 1000.0):
        with pytest.raises(DomainError):
            A_n(A_N_MAX, z)


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


def test_A_n_pass_agrees_with_A_n_in_every_branch(monkeypatch):
    # one pass of _a_terms from n = 1 (as _a_values and P's series take
    # it), which steps the partial fractions' powers by g^2 and shares the
    # Taylor series' powers, against A_n, which sets up each n on its own,
    # within rounding of the size of the largest terms, |A_n| +
    # (2n-2)!/d^{2n-1}: at seeded z, q -> 1's real negative z = -2 pi c
    # among them, through every branch (a spy records which)
    from qmod import raysum

    seen = set()
    taylor, poles, coth = raysum._a_taylor, raysum._poles, raysum._coth_derivative
    monkeypatch.setattr(raysum, "_a_taylor", lambda *a: seen.add("taylor") or taylor(*a))
    monkeypatch.setattr(raysum, "_poles", lambda k: seen.add("partial fractions") or poles(k))
    monkeypatch.setattr(
        raysum, "_coth_derivative", lambda m, c: seen.add(f"coth, centre {c}") or coth(m, c)
    )
    rng = np.random.default_rng(20261023)
    zs = [-TWO_PI * c for c in rng.uniform(0.02, 3.0, 12)]
    zs += [complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-2.0, 1.3) for _ in range(12)]
    zs += [complex(rng.uniform(-3.0, 3.0), rng.uniform(-12.0, 12.0)) for _ in range(6)]
    n_max = 16
    for z in zs:
        z = complex(z)
        if z.real == 0.0 and abs(z.imag) >= TWO_PI:
            continue
        d = min(abs(z - 2j * math.pi * k) for k in (-3, -2, -1, 1, 2, 3))
        for n, value in enumerate(_a_values(range(1, n_max + 1), z), 1):
            want = A_n(n, z)
            scale = abs(want) + math.factorial(2 * n - 2) / d ** (2 * n - 1)
            assert abs(value - want) <= 5e-16 * n * scale, (z, n)  # measured: 8.3e-17 n
    assert seen == {"taylor", "partial fractions", "coth, centre 0", "coth, centre 1"}


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
