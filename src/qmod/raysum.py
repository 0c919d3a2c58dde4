"""Ray-integral engine and every integral-defined quantity.

The module owns one double-exponential (DE) quadrature.  A ray
t = r e^{id} is mapped to the u-line by r = exp(u - e^{-u}) / lambda,
lambda being the integrand's decay rate along the ray (RaySpec.decay); a
finite interval by the tanh-sinh map.  Either way the mapped integrand
decays double-exponentially in u, so trapezoid sums over
[-DE_SPAN, DE_SPAN] converge geometrically in the node count.  The step
halves on nested nodes until two successive sums agree to RAY_REL_TOL,
the one tolerance of every DE sum.  Only integrate_ray takes a RaySpec
from its caller; everything else picks its own ray.
Integrands are evaluated on numpy arrays of nodes: the first call covers
the full grid of one level, which holds every coarser level, and each
later level costs one call on its new nodes.  The first call is the 289
nodes of step 1/32 (level BATCH_LEVELS), except on P_minus's own ray,
where the width of the admissible arc predicts the accepted level and
the first call takes 145 to 2,305 nodes (P_FIRST_ARC).  One
np.add.reduceat sums every level of the first call, its grid regrouped by
level (_level_order), and the same reduceat sums each later level, so the
sums, and so every value, are the same whichever call computes a node.
The nodes of a level do not depend on the integral, so they and the
point-free parts of both maps (exp(u - e^{-u}) and 1 + e^{-u} for a
ray; 1 + e^{-2s}, cosh u and cosh(s)^2 for an interval) are read-only
tables built once per level and kind (full grid or new nodes), as is
the regrouping: an integral pays for its integrand and a few array
products.  P's integrand hands _de_sum its weighted values itself
(_p_weighted): its nodes are one scalar times the ray table, so its
Bernoulli series is one matrix product with a per-level table of the
series' terms.  An integral that has not
converged within MAX_NODES nodes, has not decayed at the ends of the
range, or meets a non-finite value raises ConvergenceError.
On it the module builds:

* big_G  -- the Stirling-remainder Laplace integral g^+ in closed form,
  minus Binet's function;
* P_minus and its nu- and tau-derivatives -- the oscillatory ray sums
  along the lower ray farthest from the integrand's poles and the cone's
  edges, the midpoint of the admissible arc (choose_ray), since a
  trapezoid sum converges like e^{-2 pi a/h} in the half-width a of the
  strip of analyticity about the ray; P's own integrand is one fused
  numpy kernel that takes the point and the ray as scalars, splits the
  ascending nodes by slices and works in place on its output.  Its sine
  ratio is sin_ratio's two forms: sin(nu w)/expm1(iw), w = t/tau, up to
  the radius where -Im w, which bounds |Im(nu w)| on an admissible ray,
  reaches _EXP_LIMIT, and decaying exponentials past it, which most rays
  never reach.  The derivatives multiply the masked
  kernels fn_f and sin_ratio (or cos_ratio) through integrate_ray.  The
  upper ray sum P_plus is the conjugate of P_minus at the mirror point
  (-conj tau, -conj nu);
* A_n and K_N -- the coefficients of P's divergent series at q -> 1, in
  closed form, and the norm integrals of its remainder bound;
* the series itself, which P_minus sums instead of its ray integral at
  Re tau >= 0 wherever the proven bound (with K_N bounded in closed form)
  certifies it to TERM_TOL, and the asymptotic table, which sets each of
  its partial sums against the lower ray integral and the bound with the
  exact K_N: one set of constants (_series_constants) and one pass over
  the A_n (_a_terms) serve both, and the table keeps every partial sum
  (_partial_sums) where P keeps its last;
* M_almost_modular and pv_M_direct -- two genuinely independent routes
  to the real-case almost-modular term (the second never touches the
  ray sums: it integrates over finite intervals, and its only
  refinement is a closed-form trigamma tail).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ._stability import _EXP_LIMIT, cos_ratio, inv_expm1, sin_ratio
from ._stability import sin_ratio_decaying, sin_ratio_direct
from .errors import ConvergenceError, DomainError, _finite
from .qcore import TERM_TOL, ModularPoint, _tail_length, qpochhammer
from .specialfns import (
    _BOSE_COEFFS,
    PI_SQ_OVER_6,
    SERIES_RADIUS,
    TWO_PI,
    b2,
    binet,
    fn_f,
)
from .specialfns import log_gamma  # noqa: F401  (perfbench's tracer wraps this name)

ABS_FLOOR = 1e-15
#: half-width of the u-range and the first trapezoid step; past |u| = 4.5
#: a ray integrand has decayed by e^{-89} and tanh-sinh weights are < 1e-60
DE_SPAN = 4.5
_DE_END = math.exp(DE_SPAN - math.exp(-DE_SPAN))  # r at u = DE_SPAN, decay 1
_DE_START = math.exp(-DE_SPAN - math.exp(DE_SPAN))  # r at u = -DE_SPAN, decay 1
FIRST_STEP = 0.5
#: the level of _de_sum's first call, whose full grid holds the levels
#: 0..BATCH_LEVELS, unless its caller sizes that call (P_minus)
BATCH_LEVELS = 4
#: integrand nodes one integral may spend before it fails
MAX_NODES = 2**18
#: the narrowest admissible arc a P ray is taken from: in a narrower one
#: every ray passes so near an obstacle that the trapezoid step must
#: shrink until the integral runs out of nodes
RAY_MIN_ARC = math.pi / 36.0
#: P's series branch forms the admissible arc only where _series_arc_bound
#: falls below RAY_MIN_ARC + _ARC_MARGIN, a margin far above the arc's
#: rounding (a few ulps of pi), and where Im tau < _SMALL_TAU, below which
#: the arc's edges (1 -/+ nu) i/tau may overflow and round its ends
_ARC_MARGIN = 1e-12
_SMALL_TAU = 1e-300
#: P_minus's ray makes the first DE call at the smallest level L >= 3
#: with arc 2^L >= P_FIRST_ARC, at most 7 (where RAY_MIN_ARC is 640
#: degrees), arc the width of the admissible arc.  The step a trapezoid
#: sum needs shrinks with the strip about the ray, and the accepted level
#: follows the arc: on the rays of seeded domain-fuzz points its median is
#: 159, 98, 61, 33, 21 and 14 degrees at accepted levels 2 to 7.  A first
#: level short of the accepted one pays a call per level more, one past it
#: computes nodes no sum reads
P_FIRST_ARC = math.radians(580.0)
#: relative tolerance of every DE sum, ray or interval
RAY_REL_TOL = 1e-11
#: the principal-value route's truncation of both sums and the half-width
#: of its symmetric window around t = 1
PV_TERMS = 40
PV_DELTA = 0.1
#: A_n: the largest n (the largest tested against mpmath; the ray integral
#: it replaced stopped converging near n = 15), the most pole pairs its
#: partial fractions sum, the most terms its Taylor series takes, and the
#: log of the cancellation past which its closed forms give way to the others
A_N_MAX = 60
A_PF_PAIRS = 128
A_TAYLOR_TERMS = 64
LOG_A_LOSS_MAX = math.log(16.0)
_LOG_2_53 = 53.0 * math.log(2.0)
#: a reach past e^_LOG_PF_REACH > 2 pi (A_PF_PAIRS + 1) takes more pole pairs
#: than A_PF_PAIRS, so the partial fractions are not tried there
_LOG_PF_REACH = math.log(TWO_PI * (A_PF_PAIRS + 1))
#: P's divergent series: the sector margin eps of its bound and the most
#: terms P_minus takes (the asymptotic table takes as many as it is asked)
SERIES_EPS = math.pi / 4
N_MAX = 12


@dataclass(frozen=True)
class RaySpec:
    """Direction and decay rate of one ray integral, which runs to
    RAY_REL_TOL, and the width of the admissible arc whose midpoint the
    direction is, where choose_ray chose it (0 where the caller did)."""

    direction_d: float
    decay: float = 1.0
    arc: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.decay < math.inf:
            raise DomainError(f"decay must be finite and positive, got {self.decay}")


class RayResult(NamedTuple):
    value: complex
    error: float


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def _u_nodes(level: int, full: bool) -> np.ndarray:
    """The u-nodes of step FIRST_STEP / 2^level on [-DE_SPAN, DE_SPAN],
    read-only: all 18 * 2^level + 1 of them if full (a first call of
    _de_sum), else the 9 * 2^level new (odd) ones of the level."""
    h = FIRST_STEP / 2**level
    half = round(DE_SPAN / FIRST_STEP) * 2**level
    if full:
        return _frozen(h * np.arange(-half, half + 1))
    return _frozen(h * np.arange(1 - half, half, 2))


@functools.cache
def _level_order(first: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices of _u_nodes(first, True) grouped by level, and where
    each group starts, read-only: level 0's nodes, then each later level's
    new ones, each group ascending."""
    index = np.arange(18 * 2**first + 1)
    groups = [index[:: 2**first]]
    groups += [index[2**j :: 2 ** (j + 1)] for j in reversed(range(first))]
    starts = np.cumsum([0] + [g.size for g in groups[:-1]])
    return _frozen(np.concatenate(groups)), _frozen(starts)


def _de_sum(weighted: Callable[[int, bool], np.ndarray], first: int = BATCH_LEVELS) -> RayResult:
    """Integral over the u-line of a double-exponentially decaying weighted
    function, which weighted(level, full) returns on the nodes
    _u_nodes(level, full).

    Trapezoid sums on [-DE_SPAN, DE_SPAN]; each level halves the step and
    adds only the new (odd) nodes.  Levels 0..first come from one call on
    the full grid of level first (18 * 2^first + 1 nodes), regrouped by
    level (_level_order) and summed group by group in one np.add.reduceat;
    every level after that costs one call on its new nodes, summed by the
    same np.add.reduceat.  A group's sum depends only on its values, not
    on where it lies in the array, so each level sums the same numbers in
    the same order as a call of its own would: the value, the error and
    every refusal are the same whatever first is, which decides only the
    calls that compute the nodes.  (ndarray.sum rounds differently from
    reduceat, so every level takes reduceat.)  A first level past the
    accepted one computes nodes that no sum reads; one short of it pays a
    call per level after it, and a call costs a fixed part besides its
    nodes.  The node tables do not depend on the integrand, so callers
    keep theirs per level behind functools.cache.
    Accepts the first sum within tol = RAY_REL_TOL |I| + ABS_FLOOR of the
    one before, reporting that distance as its error, provided the end
    nodes are below tol too: a DE sum's error roughly squares as the step
    halves, so a small distance right after one above tol / sqrt(RAY_REL_TOL)
    is a coincidence, not convergence.  A non-finite sum, or a node or sum
    whose modulus passes the double range, is a ConvergenceError.
    """
    half = round(DE_SPAN / FIRST_STEP)
    bulk = weighted(first, True)
    order, starts = _level_order(first)
    level_sums = np.add.reduceat(bulk.take(order), starts).tolist()
    h = FIRST_STEP
    total = h * complex(level_sums[0])
    change = math.inf
    level = 0
    try:
        ends = max(abs(bulk[0].item()), abs(bulk[-1].item()))
        while True:
            level += 1
            h *= 0.5
            half *= 2
            if 2 * half + 1 > MAX_NODES:  # nodes in the sum after this level
                raise ConvergenceError(
                    f"DE quadrature has not converged within {MAX_NODES} nodes"
                )
            if level <= first:
                new_sum = level_sums[level]
            else:
                new_sum = np.add.reduceat(weighted(level, False), [0]).item()
            prev, total = total, 0.5 * total + h * new_sum
            if not cmath.isfinite(total):
                break
            tol = RAY_REL_TOL * abs(total) + ABS_FLOOR
            prev_change, change = change, abs(total - prev)
            if change <= tol and prev_change <= tol / math.sqrt(RAY_REL_TOL):
                if ends > tol:
                    raise ConvergenceError(
                        f"integrand has not decayed at the ends of the range: "
                        f"{ends:.3e} > {tol:.3e}"
                    )
                return RayResult(total, change)
    except OverflowError:  # complex abs, where a modulus passes the double range
        pass
    raise ConvergenceError("non-finite integrand value")


@functools.cache
def _ray_nodes(level: int, full: bool) -> tuple[np.ndarray, np.ndarray]:
    """exp(u - e^{-u}) and 1 + e^{-u} on _u_nodes(level, full), read-only:
    the radii of integrate_ray's map at decay 1, and dr/du over r."""
    u = _u_nodes(level, full)
    e_u = np.exp(-u)
    return _frozen(np.exp(u - e_u)), _frozen(1.0 + e_u)


def integrate_ray(
    integrand: Callable[[np.ndarray], np.ndarray], spec: RaySpec
) -> RayResult:
    """Integrate along t = r e^{id}, r in (0, oo), with an error estimate.

    The integrand takes a complex array of nodes t.  It must be analytic
    on the open ray, no worse than O(r^{-1+eps}) at 0, and decay like
    e^{-spec.decay r}; the map r = exp(u - e^{-u}) / decay puts the
    nodes where that decay happens.  Its point-free part comes from the
    per-level tables of _ray_nodes, so a level costs the integrand and
    four array operations.  _de_sum passes u in ascending order and the
    map is increasing, so every call's nodes come in ascending |t|.
    """
    e_id = cmath.exp(1j * spec.direction_d)
    decay = spec.decay

    def weighted(level: int, full: bool) -> np.ndarray:
        r0, one_plus_e_u = _ray_nodes(level, full)
        t = r0 / decay * e_id
        return integrand(t) * (t * one_plus_e_u)

    return _de_sum(weighted)


@functools.cache
def _interval_nodes(level: int, full: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1 + e^{-2s}, cosh u and cosh(s)^2, s = (pi/2) sinh u, on
    _u_nodes(level, full), read-only: the point-free part of the tanh-sinh
    map."""
    u = _u_nodes(level, full)
    s = 0.5 * math.pi * np.sinh(u)
    return _frozen(1.0 + np.exp(-2.0 * s)), _frozen(np.cosh(u)), _frozen(np.cosh(s) ** 2)


def _integrate_interval(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> complex:
    """int_a^b f(t) dt to RAY_REL_TOL relative, as every DE sum, by the
    tanh-sinh map t = a + (b - a)/(1 + e^{-pi sinh u}).

    Nodes are offsets from a, so near a they keep their full relative
    precision; f must be finite on (a, b].
    """

    def weighted(level: int, full: bool) -> np.ndarray:
        one_plus_e_2s, cosh_u, cosh_s_sq = _interval_nodes(level, full)
        t = a + (b - a) / one_plus_e_2s
        return f(t) * ((b - a) * 0.25 * math.pi * cosh_u / cosh_s_sq)

    return _de_sum(weighted).value


# ---------------------------------------------------------------------------
# admissible cones and ray choice for the P integrals


def _slack(point: ModularPoint, d: float) -> float:
    e_id = cmath.exp(1j * d)
    return (e_id * 1j / point.tau).real - abs((e_id * point.nu * 1j / point.tau).real)


def _admissible_arc(point: ModularPoint) -> tuple[float, float]:
    """The admissible arc (lo, hi) of the lower half-plane; a domain error
    where it is narrower than RAY_MIN_ARC.

    A ray converges where Re(e^{id} e) > 0 for both cone edges
    e = (1 -/+ nu) i/tau, the half-circle |d + arg e| < pi/2 each, and
    within the half-plane both leave one arc.  Its ends are the obstacles
    of the ray integral: the real axis, where f has its poles, and the
    edges.  The poles 2 pi k tau of 1/(e^{it/tau} - 1) lie on no
    admissible ray: the two conditions add up to Re(e^{id} i/tau) > 0,
    which fails on arg t = arg tau and arg tau - pi.  The upper half-plane
    is the lower one at the mirror point (P_plus).
    """
    mid, lo, hi = -0.5 * math.pi, -math.pi, 0.0
    edges = ((1.0 - point.nu) * 1j / point.tau, (1.0 + point.nu) * 1j / point.tau)
    for e in edges:
        # the centre -arg e of e's half-circle, turned to within pi of mid
        centre = mid + math.remainder(-math.atan2(e.imag, e.real) - mid, TWO_PI)
        lo, hi = max(lo, centre - 0.5 * math.pi), min(hi, centre + 0.5 * math.pi)
    # at nu = +-1 an edge vanishes and no angle converges
    if not (hi - lo >= RAY_MIN_ARC and all(edges)):
        raise DomainError(f"empty admissible cone (tau = {point.tau}, nu = {point.nu})")
    return lo, hi


def _series_arc_bound(nu: complex) -> float:
    """pi/2 - atan2(|Im nu|, 1 - |Re nu|), a lower bound of the admissible
    arc's width wherever Re tau >= 0 and |Re nu| < 1, as on P's series
    branch (P_minus).

    There theta = arg tau lies in (0, pi/2], and each edge
    e = (1 -/+ nu) i/tau has its half-circle d in (theta - a - pi, theta - a),
    a = arg(1 -/+ nu).  As Re(1 -/+ nu) > 0, both |a| are at most
    beta = atan2(|Im nu|, 1 - |Re nu|) < pi/2, and their signs are those of
    -Im nu and Im nu, so the larger, A, is >= 0 and the smaller, B, <= 0.
    The arc is then (theta - B - pi, min(0, theta - A)), inside (-pi, 0),
    of width pi - max(theta, A) + B >= pi - pi/2 - beta.
    """
    return 0.5 * math.pi - math.atan2(abs(nu.imag), 1.0 - abs(nu.real))


def choose_ray(point: ModularPoint) -> RaySpec:
    """The lower ray farthest from every obstacle of the DE trapezoid
    rule, with its slack as the decay rate.

    A trapezoid sum converges like e^{-2 pi c/h}, c the half-width of the
    strip about the ray in which the integrand stays analytic and bounded,
    so the ray keeps away from the real axis (f's poles 2 pi k) and the
    two edges of the cone, the ends of the admissible arc (_admissible_arc).
    Its clearance, the sine of the angle to the nearer end, peaks at the
    arc's midpoint, which is the ray.  Raises a domain error where the arc
    is narrower than RAY_MIN_ARC (the point lies outside the relevant
    analyticity domain, or every ray passes too close to an obstacle).
    """
    lo, hi = _admissible_arc(point)
    d = 0.5 * (lo + hi)
    return RaySpec(direction_d=d, decay=_slack(point, d), arc=hi - lo)


# ---------------------------------------------------------------------------
# G


def big_G(point: ModularPoint) -> complex:
    """G(tau, nu) = -mu(s), minus Binet's function at s = nu/tau.

    Defined for s off (-oo, 0], where it equals the paper's Laplace
    integral g^+(s) = -int_0^oo B(t) e^{-2 pi s t} dt/t, with
    B(t) = 1/(e^{2 pi t} - 1) - 1/(2 pi t) + 1/2.
    """
    s = point.nu_star
    if s.imag == 0.0 and s.real <= 0.0:
        raise DomainError(f"big_G needs nu/tau off (-oo, 0], got s = {s}")
    return -binet(s)


# ---------------------------------------------------------------------------
# the P integrals and their derivatives


@functools.cache
def _p_nodes(level: int, full: bool) -> tuple[np.ndarray, ...]:
    """exp(u - e^{-u}), as float64 and as complex128, 1 + e^{-u} as
    complex128, and the terms of fn_f's Bernoulli series
    -2 B_{2j+2}/(2j+2)! r^{2j+1} (1 + e^{-u}), j < 10, one row per node, on
    _u_nodes(level, full) with r = exp(u - e^{-u}), read-only: the
    point-free part of P's weighted integrand.  The complex tables hold the
    values numpy would cast the float ones to in every complex product."""
    r0, one_plus_e_u = _ray_nodes(level, full)
    powers = r0[:, None] ** (2 * np.arange(len(_BOSE_COEFFS)) + 1)
    return (
        r0,
        _frozen(r0.astype(complex)),
        _frozen(one_plus_e_u.astype(complex)),
        _frozen(-2.0 * powers * _BOSE_COEFFS[::-1] * one_plus_e_u[:, None]),
    )


def _series_scalars(rho: complex) -> tuple[complex, ...]:
    """rho (-rho^2)^j for j < 10, the scalars of _p_weighted's series
    product, each power m^j of m = -rho^2 formed as CPython's complex ** int
    forms it (binary powering: m^3 = m m^2, m^7 = (m m^2) m^4, ...), so the
    ten equal rho * m**j bit for bit at a fraction of the cost."""
    m = -rho * rho
    m2 = m * m
    m3 = m * m2
    m4 = m2 * m2
    m8 = m4 * m4
    powers = (1.0, m, m2, m3, m4, m * m4, m2 * m4, m3 * m4, m8, m * m8)
    return tuple(rho * p for p in powers)


def _p_weighted(point: ModularPoint, spec: RaySpec) -> Callable[[int, bool], np.ndarray]:
    """P's integrand sin(nu w)/(e^{iw} - 1) f(t)/t, w = t/tau, times
    dt/du = t (1 + e^{-u}) along spec's ray: the weighted(level, full)
    that _de_sum takes, one fused kernel on the nodes of a call.

    Every node is t = rho r0, with rho = e^{id}/decay one scalar and r0
    the ascending radii of _p_nodes.  Each factor splits the nodes once,
    at the first past its radius (np.searchsorted on r0), and works on
    slices either side, where the kernels fn_f and sin_ratio mask every
    node into two branches:

    * below SERIES_RADIUS, fn_f's Bernoulli series in -t^2: one matrix
      product of _p_nodes' table of its terms with the ten scalars
      rho (-rho^2)^j; above it f(t) = (2/v - 2/expm1(v) - 1)/(is), v = ist
      with s the sign of Im t on the ray, so that Re v <= 0: fn_f's expm1
      form, which keeps the digits cot(t/2) - 2/t cancels just past the
      radius;
    * the sine ratio is sin_ratio_direct on direct_side and
      sin_ratio_decaying past it, the two forms sin_ratio masks.  On an
      admissible ray the cone edges give -Im((1 -/+ nu) w) > 0, so
      |Im(nu w)| < -Im w, and direct_side ends at the one radius
      _EXP_LIMIT / -Im(rho/tau), which most rays never reach.

    w is t/tau node by node: one rounded scalar rho/tau would move every w
    by the same relative error, as a change of tau would, which P's
    sensitivity to tau at tau near the real axis turned into up to 3e-14
    of P on seeded fuzz points.  The kernel fills one output array in
    place, and its setup is scalar: the ten series scalars are products
    (_series_scalars), and the decaying form is called only where a node
    lies past its radius.  No node is tested against f's real poles
    2 pi k: a ray along the real axis, which choose_ray never takes, does
    not converge.  Where the smallest node t underflows to 0
    (|tau| below about 1e-282, as rho is of the order of |tau|), the ray
    cannot be sampled in doubles and w = 0 would make the sine ratio 0/0, and
    past |rho| ~ 1.7e16 the series scalar rho^19 overflows: both refused first.
    """
    tau, nu = point.tau, point.nu
    rho = cmath.exp(1j * spec.direction_d) / spec.decay
    if rho * _DE_START == 0:
        raise ConvergenceError(
            f"P's ray underflows: its first node is 0 at tau = {tau}, nu = {nu}"
        )
    scalars = _series_scalars(rho)
    if not cmath.isfinite(scalars[-1]):
        raise ConvergenceError(f"P's ray overflows: rho^19 = {scalars[-1]} at tau = {tau}")
    # the series' scalars as the two real columns of one (10, 2) matrix
    scalars = np.array(scalars).view(float).reshape(-1, 2)
    i_s = -1j if rho.imag < 0.0 else 1j
    series_end = SERIES_RADIUS * spec.decay
    # -Im(rho/tau) = Re(i e^{id}/tau)/decay >= 1, as the decay is that
    # less |Re(i nu e^{id}/tau)|
    direct_end = _EXP_LIMIT / -(rho / tau).imag

    def weighted(level: int, full: bool) -> np.ndarray:
        r0, r0_c, one_plus_e_u, series = _p_nodes(level, full)
        out = np.empty(r0.size, dtype=complex)
        w = np.empty(r0.size, dtype=complex)  # v and e^v - 1 first, then w
        k = r0.searchsorted(series_end)
        np.matmul(series[:k], scalars, out=out[:k].view(float).reshape(k, 2))
        v = np.multiply(i_s * rho, r0_c[k:], out=w[k:])
        far = np.divide(-2.0 * i_s, v, out=out[k:])  # 1/(is) = -is
        e = np.expm1(v, out=v)
        far -= np.divide(-2.0 * i_s, e, out=e)
        far += i_s
        far *= one_plus_e_u[k:]
        np.multiply(rho, r0_c, out=w)
        w /= tau
        m = r0.searchsorted(direct_end)
        out[:m] *= sin_ratio_direct(nu, w[:m])
        if m < r0.size:
            out[m:] *= sin_ratio_decaying(nu, w[m:])
        return out

    return weighted


def P_minus(point: ModularPoint) -> complex:
    """P computed from a lower-half-plane ray (the production branch).

    A point whose admissible lower arc is narrower than RAY_MIN_ARC
    (_admissible_arc) is a domain error.  Where the divergent series'
    proven bound certifies it to TERM_TOL (_p_series), the series is P;
    that branch has Re tau >= 0 and |Re nu| < 1, where the arc is at least
    _series_arc_bound(nu) = pi/2 - atan2(|Im nu|, 1 - |Re nu|) (its
    docstring has the proof), so the arc is formed, for its refusal alone,
    only where that bound is below RAY_MIN_ARC + _ARC_MARGIN or
    Im tau < _SMALL_TAU: at tau = i alpha and nu = i c it clears RAY_MIN_ARC
    up to c = 11.4.  Elsewhere the integral runs along choose_ray's ray,
    the one farthest from the integrand's poles and the cone's edges, and
    its first DE call takes the level that the arc's width (RaySpec.arc)
    predicts (P_FIRST_ARC); the value is the same whatever the first
    level.  The ray forms the arc once, the series at most once.
    """
    if point.nu == 0:
        return 0.0 + 0.0j
    series = _p_series(point)
    if series is not None:
        if (point.tau.imag < _SMALL_TAU
                or _series_arc_bound(point.nu) < RAY_MIN_ARC + _ARC_MARGIN):
            _admissible_arc(point)  # the refusal alone
        return series
    spec = choose_ray(point)
    first = 3
    while first < 7 and spec.arc * 2**first < P_FIRST_ARC:
        first += 1
    return _de_sum(_p_weighted(point, spec), first).value


def P_plus(point: ModularPoint) -> complex:
    """P from an upper-half-plane ray (P_minus less the Stokes sum): the
    conjugate of P_minus, ray or series, at the mirror point, whose lower
    rays and integrand are the conjugates of the upper ones here."""
    return P_minus(point.mirror).conjugate()


def dP_dnu(point: ModularPoint) -> complex:
    """d/dnu of P_minus, by differentiation under the integral."""
    tau = point.tau
    nu = point.nu

    def integrand(t):
        return cos_ratio(nu, t / tau) * fn_f(t) / tau

    return integrate_ray(integrand, choose_ray(point)).value


def dP_dtau(point: ModularPoint) -> complex:
    """d/dtau of P_minus, by differentiation under the integral."""
    if point.nu == 0:
        return 0.0 + 0.0j
    tau = point.tau
    nu = point.nu
    tau_star_sq = _finite(point.tau_star * point.tau_star, "1/tau^2")

    def integrand(t):
        w = t / tau
        u = inv_expm1(1j * w)
        return (
            tau_star_sq
            * (-nu * cos_ratio(nu, w) + 1j * sin_ratio(nu, w) * (1.0 + u))
            * fn_f(t)
        )

    return integrate_ray(integrand, choose_ray(point)).value


def stokes_sum(point: ModularPoint) -> complex:
    """2i sum_{n>=1} sin(2 n pi nu/tau) / (n (e^{2 n pi i/tau} - 1)).

    The discrete jump between P_minus and P_plus; converges only while
    |Im(nu/tau)| < -Im(1/tau).
    """
    tau = point.tau
    nu = point.nu
    decay = point.tau_star.imag - abs(point.nu_star.imag)
    if not decay > 0.0:
        raise DomainError(
            f"Stokes sum diverges: |Im(nu/tau)| >= -Im(1/tau) at tau = {tau}"
        )
    # term n is at most r^n / (1 - |q*|) with r = e^{-2 pi decay}.  One term
    # more than the tail bound asks for leaves a tail below r^2 TERM_TOL,
    # while the sum is of order r: a sum far below TERM_TOL keeps its digits
    amplitude = -1.0 / math.expm1(-TWO_PI * point.tau_star.imag)
    n_terms = _tail_length(amplitude, math.exp(-TWO_PI * decay), "Stokes sum") + 1
    n = range(1, n_terms + 1)
    terms = sin_ratio(nu, np.array([TWO_PI * k / tau for k in n]))
    return 2j * sum((t / k for k, t in zip(n, terms.tolist())), 0j)


# ---------------------------------------------------------------------------
# A_n and K_N


@functools.cache
def _coth_poly(m: int, centre: int) -> tuple[Fraction, ...]:
    """Coefficients, lowest first, of the polynomial p with
    p(c - centre) = (d/dz)^m coth(z/2)/4, c = coth(z/2), as exact rationals.

    p starts at c/4, and each derivative multiplies p' by c' = (1 - c^2)/2.
    """
    if m == 0:
        return (Fraction(centre, 4), Fraction(1, 4))
    # c' = (1 - (centre + x)^2)/2 in powers of x = c - centre
    mult = (Fraction(1 - centre * centre, 2), Fraction(-centre), Fraction(-1, 2))
    dp = [k * a for k, a in enumerate(_coth_poly(m - 1, centre))][1:]
    p = [Fraction(0)] * (len(dp) + 2)
    for k, a in enumerate(dp):
        for j, b in enumerate(mult):
            p[k + j] += a * b
    return tuple(p)


@functools.cache
def _coth_derivative(m: int, centre: int) -> tuple[float, ...]:
    """_coth_poly as floats, highest power first (for Horner's rule)."""
    return tuple(float(a) for a in reversed(_coth_poly(m, centre)))


@functools.cache
def _poles(pairs: int) -> np.ndarray:
    """The poles 2 pi i k of A_n for 0 < |k| <= pairs."""
    k = np.arange(pairs, 0, -1)
    return _frozen(TWO_PI * 1j * np.concatenate((k, -k)))


@functools.cache
def _taylor_table(n: int) -> tuple[list[float], list[float]]:
    """The Taylor coefficients B_{2n+2j} / ((2n+2j) (2j+1)!) of A_n, which
    multiply z^{2j+1}, and the moduli |c_j / c_{j-1}| of their ratios (inf
    at j = 0), lowest j first: one table per n, grown in place 8, 16, ...
    entries at a time (_grow_taylor_table), since a long Bernoulli table is
    slow to build."""
    coeffs: list[float] = []
    ratios: list[float] = []
    _grow_taylor_table(n, coeffs, ratios)
    return coeffs, ratios


def _grow_taylor_table(n: int, coeffs: list[float], ratios: list[float]) -> None:
    for j in range(len(coeffs), max(8, 2 * len(coeffs))):
        coeffs.append(b2(n + j) / (2 * (n + j)) / math.factorial(2 * j + 1))
        ratios.append(abs(coeffs[j] / coeffs[j - 1]) if j else math.inf)


def _a_taylor(n: int, z2: complex, r2: float, powers: list[complex]) -> complex:
    """The Taylor series of A_n, for |z| < 2 pi: z2 = z^2, r2 = |z^2|, and
    powers the powers z^{2j+1} formed so far (z first), each the last times
    z2, which it extends.

    Summed forward until a term no longer changes the sum while the
    ratio of successive terms, which falls with j, is at most 1/2: the
    tail is then below that term.
    """
    coeffs, ratios = _taylor_table(n)
    total = coeffs[0] * powers[0]
    n_coeffs, n_powers = len(coeffs), len(powers)
    for j in range(1, A_TAYLOR_TERMS):
        if j == n_coeffs:
            _grow_taylor_table(n, coeffs, ratios)
            n_coeffs = len(coeffs)
        if j == n_powers:
            powers.append(powers[-1] * z2)
            n_powers += 1
        last, total = total, total + coeffs[j] * powers[j]
        if total == last and ratios[j] * r2 <= 0.5:
            return total
    raise ConvergenceError(f"A_n Taylor series needs more than {A_TAYLOR_TERMS} terms")


def A_n(n: int, z: complex) -> complex:
    """A_n(z) = 2 (-1)^{n-1} int_0^oo t^{2n-2} sin(tz)/(e^{2 pi t}-1) dt,
    the coefficients of P's divergent series, in closed form.

    A_n(z) = 2 (d/dz)^{2n-2} [coth(z/2)/4 - 1/(2z)]
    = (2n-2)! sum_{k != 0} (z - 2 pi i k)^{1-2n}: odd and meromorphic, with
    poles at 2 pi i k (k != 0); it equals the integral for |Im z| < 2 pi
    and the integral's rotated-ray continuation beyond.  z on the imaginary
    axis with |Im z| >= 2 pi, where every ray diverges, stays a domain
    error.  With r = |z| and d the distance to the nearest pole, the
    value is of order (2n-2)!/d^{2n-1} (or (2n-1)! 2r/(2 pi)^{2n} near 0),
    while the Taylor series and the coth form below sum terms of order
    (2n-2)!/r^{2n-1} (r replaced by 2 pi - r for the Taylor series), so
    they lose (d/r)^{2n-1} digits: 1e8 at n = 12 and z = pi.  For
    Re z >= 0 (oddness gives the rest) the first that applies is taken:

    * the partial fractions, where at most A_PF_PAIRS pole pairs bring
      the tail below 2^-53 of the nearest term and the other forms would
      lose more than e^LOG_A_LOSS_MAX (or Re z < 2 pi, where the nearest
      poles dominate), for n >= 2 and r >= 2 pi/(2n-1), since the pairs
      cancel near 0 (in practice n >= 5);
    * r < pi, where the coth form would lose more than e^LOG_A_LOSS_MAX:
      the Bernoulli Taylor series;
    * polynomials in c = coth(z/2), since c' = (1 - c^2)/2, minus the pole
      (2n-2)!/(2 z^{2n-1}); for Re z >= 1, where c is close to 1, they are
      re-centred at c = 1 and take c - 1 = 2/(e^z - 1).

    For n <= 12 the error is below 3e-14 (|A_n| + (2n-2)!/d^{2n-1}) on the
    points tested against mpmath, and about 9e-16 n up to A_N_MAX, the
    rounding of an s-th power; near a zero of A_n on the real axis no
    form keeps the relative digits.  A_n alone forms its powers
    (z - 2 pi i k)^{-s} directly; _a_terms, which takes A_1, A_2, ... in
    order, steps them by one square each.

    One Hurwitz form for n >= 2, (2n-2)! (2 pi i)^{-s} [zeta(s, 1 + u) -
    zeta(s, 1 - u)] with u = z/(2 pi i), summed directly to a shift and by
    Euler-Maclaurin past it, was tried in place of the partial fractions
    and the coth form.  It is as accurate (below 9e-15 for n <= 12 on the
    same points), but its Euler-Maclaurin tail reaches 2^-53 only with a
    shift that grows with n and |Im u|: for all n <= 3, 6 and 12 at seven
    z in (-32, 0), like the fixed-x points at q -> 1, it took 27, 40 and
    92 us where these forms then took 11, 12 and 29 us.  One pass of
    _a_terms over the same n and z now takes 5.7, 12.0 and 35.6 us at the
    median z, where the setup per call it replaced took 6.0, 17.1 and
    44.8 us, the two timed in turn in one process (CPython 3.11.7, numpy
    2.4.6, one core of a shared 2-core machine).
    A value (next to a pole) or a z^{2n-1} past the double range is a
    domain error (_a_terms).
    """
    _require_n(n)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(next(_a_terms(complex(z), n)))


def _require_n(n: int) -> None:
    if not 1 <= n <= A_N_MAX:
        raise DomainError(f"n must be an integer in [1, {A_N_MAX}], got {n}")


def _a_terms(z: complex, n: int = 1) -> Iterator[complex]:
    """A_n(z), A_{n+1}(z), ..., A_{A_N_MAX}(z) in order, each formed when
    it is drawn, from one setup: the pole distance, the sign fold, the
    logs, and (once their branch is first taken) c = coth(z/2) or c - 1 and
    the partial fractions' g = 1/(z - 2 pi i k).  Each term comes from the
    last where it can: the partial fractions take g^s as g^{s-2} g^2 (A_n
    alone forms g^s directly), and the Taylor series shares z^2, |z^2| and
    the powers z^{2j+1}.  On the real axis, where P's series takes z at
    q -> 1 (nu = i c and nu = i xi alpha), the Taylor series and the coth
    form run in float arithmetic: their real parts are those of the complex
    forms, but for the pole term's z^{2n-1}, which pow rounds once where
    complex ** int rounds at each of its products.  A value or a z^{2n-1}
    past the double range is a domain error, for A_n and P alike.  It is a
    generator because a closure over this setup cost about as much to make
    as the setup itself."""
    if not cmath.isfinite(z):
        raise DomainError(f"z is not finite: {z}")
    if z.real == 0.0 and abs(z.imag) >= TWO_PI:
        raise DomainError(f"z^2 = {z * z} lies on the cut (-oo, -4 pi^2]")
    if z == 0:
        for _ in range(n, A_N_MAX + 1):
            yield 0j
        return
    sign = 1.0
    if z.real < 0.0:  # A_n is odd
        z, sign = -z, -1.0
    r = abs(z)
    k1 = round(z.imag / TWO_PI) or (1 if z.imag >= 0.0 else -1)
    log_d = math.log(math.hypot(z.real, z.imag - TWO_PI * k1))
    log_d_over_r = log_d - math.log(r)
    log_2pi_over_r = math.log(TWO_PI / r)
    loss_decides = r < math.pi or z.real >= TWO_PI
    centre = 1 if z.real >= 1.0 else 0
    # the closed forms' and the Taylor series' argument: a float on the axis
    w, lib = (z.real, math) if z.imag == 0.0 else (z, cmath)
    # c or c - 1 for the closed forms, w^2 and w^{2j+1} for the Taylor
    # series, g and g^2 for the partial fractions, and g^s with its s
    x = w2 = taylor_powers = inv_gaps = inv_gaps_sq = gap_powers = None
    gap_s = 0

    n -= 1
    while n < A_N_MAX:  # a for loop over n costs more to close when P stops early
        n += 1
        s = 2 * n - 1
        # the closed forms' terms (2n-2)!/r^s against a value of order
        # (2n-2)!/d^s, or (2n-1)! 2r/(2 pi)^{2n} near z = 0; only the
        # Taylor series (r < pi) and the partial fractions at Re z >= 2 pi
        # ask for it
        log_loss = 0.0
        if loss_decides:
            log_loss = s * log_d_over_r
            near_zero = 2 * n * log_2pi_over_r - math.log(2 * s)
            if near_zero > log_loss:
                log_loss = near_zero
        if n >= 2 and s * r >= TWO_PI and (z.real < TWO_PI or log_loss > LOG_A_LOSS_MAX):
            # the pairs past K sum below 2 (2 pi K - r)^{1-s} / (2 pi (s-1)),
            # which is at most 2^-53 d^-s once 2 pi K - r >= reach
            log_reach = (_LOG_2_53 + s * log_d - math.log(math.pi * (s - 1))) / (s - 1)
            pairs = A_PF_PAIRS + 1  # past _LOG_PF_REACH, without forming the reach
            if log_reach < _LOG_PF_REACH:
                pairs = math.ceil((r + math.exp(log_reach)) / TWO_PI)
            if pairs <= A_PF_PAIRS:
                if inv_gaps is None or len(inv_gaps) < 2 * pairs:
                    inv_gaps, inv_gaps_sq, gap_s = 1.0 / (z - _poles(pairs)), None, 0
                if gap_s != s - 2:
                    gap_powers = inv_gaps**s
                else:
                    if inv_gaps_sq is None:
                        inv_gaps_sq = inv_gaps * inv_gaps
                    gap_powers *= inv_gaps_sq
                gap_s = s
                yield _finite(sign * math.factorial(s - 1) * complex(gap_powers.sum()))
                continue
        if r < math.pi and log_loss > LOG_A_LOSS_MAX:
            if w2 is None:
                w2, taylor_powers = w * w, [w]
                r2 = abs(w2)
            yield sign * _a_taylor(n, w2, r2, taylor_powers)
            continue
        if x is None:
            if centre:
                e = lib.exp(-w)
                x = 2.0 * e / (1.0 - e)  # c - 1 = 2/(e^z - 1)
            else:
                x = 1.0 / lib.tanh(0.5 * w)
        p = 0.0
        for a in _coth_derivative(s - 1, centre):
            p = p * x + a
        try:
            w_s = w**s
        except OverflowError:  # ** int, where z^s passes the double range
            raise DomainError(f"A_n overflows: z^{s} at z = {z}") from None
        yield _finite(sign * (2.0 * p - math.factorial(s - 1) / w_s))


def _a_values(ns: range, z: complex) -> list[complex]:
    """A_n(z) for the consecutive n of ns, as range(1, N + 1), in
    [1, A_N_MAX]: one pass of _a_terms."""
    return [complex(a) for a in islice(_a_terms(complex(z), ns.start), len(ns))]


def K_N(N: int, nu: complex) -> float:
    """K_N(nu) = int_0^oo |sinh(nu t)| t^{2N} / (e^t - 1) dt, |Re nu| < 1; its
    pieces at imaginary nu, a first DE call each, share one MAX_NODES."""
    if N < 0:
        raise DomainError("N must be >= 0")
    nu = _finite(complex(nu), "nu")
    if abs(nu.real) >= 1.0:
        raise DomainError(f"K_N diverges for |Re nu| >= 1, got {nu}")
    if nu == 0:
        return 0.0
    # the integrand decays like r^{2N} e^{-a r}, a = 1 - |Re nu|, whose peak
    # 2N/a moves out with N: stretched, the range ends at max(_DE_END, 8N)/a,
    # four times past the peak, where the rest of the integral is below
    # e^{-30} of it
    a = 1.0 - abs(nu.real)
    stretch = max(1.0, 8.0 * N / _DE_END)
    # near its peak the integrand is about (2N/(e a))^{2N}/2, past the double
    # range from N ~ 58 at a = 0.1: in units of a power of two 2^j at most
    # 2N/(e a) it stays at least 1/2 there and below 2^{2N}, and K_N is
    # the integral times 2^{2Nj}, a domain error where that overflows
    j = max(0, math.floor(math.log2(2.0 * N / (math.e * a)))) if N else 0
    unit = 2.0**-j

    def integrand(r):
        # |sinh(nu r)| / (e^r - 1) (r/2^j)^N (r/2^j)^N, paired so that
        # nothing overflows
        x = r * unit
        return np.abs(sin_ratio(nu, -1j * r)) * x**N * x**N

    if nu.real == 0.0:
        # |sinh(nu r)| = |sin(r Im nu)| has kinks at its zeros, where no one
        # quadrature converges: integrate between them
        step = math.pi / abs(nu.imag)
        end = _DE_END * stretch  # a = 1
        if math.ceil(end / step) * _u_nodes(BATCH_LEVELS, True).size > MAX_NODES:
            raise ConvergenceError(f"K_{N}({nu}): {end / step:.4g} pieces pass {MAX_NODES} nodes")
        knots = [k * step for k in range(math.ceil(end / step))] + [end]
        scaled = math.fsum(
            _integrate_interval(integrand, lo, hi).real for lo, hi in zip(knots, knots[1:])
        )
    else:
        spec = RaySpec(direction_d=0.0, decay=a / stretch)
        scaled = integrate_ray(lambda t: integrand(t.real), spec).value.real
    try:
        return math.ldexp(scaled, 2 * N * j)
    except OverflowError:
        raise DomainError(f"K_{N}({nu}) exceeds the double range") from None


# ---------------------------------------------------------------------------
# P from its divergent series at q -> 1


def _f_tail_constant(N: int) -> float:
    """Constant C with |f(t) - f_N(t)| <= C |t|^{2N+1} / (2pi-eps)^{2N}
    on |t| <= 2pi - eps, eps = SERIES_EPS.

    f_N is the odd Taylor polynomial of f through degree 2N - 1.  The
    poles of f sit on the real axis, so the supremum over any admissible
    ray is dominated by real t.  There f(t) = sum_k 4t/(t^2 - (2 pi k)^2)
    gives (f - f_N)(t)/t^{2N+1} = -4/(2pi)^{2N+2} sum_m zeta(2N+2+2m)
    (t/2pi)^{2m}, whose modulus grows with |t|: the supremum sits at
    t = 2pi - eps, where f - f_N is not small and so keeps its digits.
    """
    radius = TWO_PI - SERIES_EPS
    partial = sum(
        2.0 * (-1.0) ** n * b2(n) * radius ** (2 * n - 1) / math.factorial(2 * n)
        for n in range(1, N + 1)
    )
    return abs(fn_f(radius) - partial) / radius


def _zeta_upper(s: int) -> float:
    """An upper bound of zeta(s), s >= 1 (inf at the pole s = 1): 63 terms
    plus the integral of x^-s from 63 on, which exceeds the rest."""
    if s == 1:
        return math.inf
    return math.fsum(k ** -s for k in range(1, 64)) + 63.0 ** (1 - s) / (s - 1)


@functools.cache
def _series_constants(n_max: int) -> tuple[tuple[float, ...], ...]:
    """Per N = 0..n_max: the coefficient B_2N/(2N)! of the series (1 at
    N = 0, which has no term), the bound's c = C_eps(N)/(2pi - eps)^{2N},
    the power 2N + 1 of |tau|, and c (2N)!/2, c (2N)!/2 2 zeta(2N+1),
    c (2N+1)!/2 and c (2N+1)!/2 2 zeta(2N+2), the factors of the
    closed-form K_N bound (_p_series)."""
    rows = []
    for N in range(n_max + 1):
        c = _f_tail_constant(N) / (TWO_PI - SERIES_EPS) ** (2 * N)
        f1, f2 = 0.5 * math.factorial(2 * N), 0.5 * math.factorial(2 * N + 1)
        rows.append((
            b2(N) / math.factorial(2 * N) if N else 1.0,
            c,
            2 * N + 1,
            c * f1,
            c * f1 * 2.0 * _zeta_upper(2 * N + 1),
            c * f2,
            c * f2 * 2.0 * _zeta_upper(2 * N + 2),
        ))
    return tuple(rows)


def _partial_sums(a_values: list[complex], log_q: complex, consts) -> list[complex]:
    """The partial sums through N = 0, 1, ..., len(a_values) terms of
    sum_n B_2n A_n (log q)^{2n-1} / (2n)!, a_values holding A_1, A_2, ...
    at 2 pi i nu and consts _series_constants."""
    log_q_sq = log_q * log_q
    power = log_q
    terms = []
    for n, a_n in enumerate(a_values, 1):
        terms.append(consts[n][0] * a_n * power)
        power *= log_q_sq
    return list(accumulate(terms, initial=0j))


def _p_series(point: ModularPoint) -> complex | None:
    """P from its divergent series, or None where its bound does not
    certify it.

    -P = sum_{n<=N} B_2n A_n(2 pi i nu) (log q)^{2n-1} / (2n)! + R_N with
    |R_N| <= b_N = C_eps K_N(nu) |tau|^{2N+1} / (2pi - eps)^{2N} for
    |Re nu| < 1 and eps < arg tau < pi - eps (eps = SERIES_EPS), along the
    ray arg t = arg tau - pi/2.  K_N is replaced by the closed-form upper
    bound that |sinh w| <= cosh(Re w) and |sinh w| <= |w| cosh(Re w) give
    with zeta(s, 1 - a) <= (1 - a)^-s + zeta(s), a = |Re nu|:
    min((2N)!/2 [(1-a)^{-2N-1} + 2 zeta(2N+1)],
        |nu| (2N+1)!/2 [(1-a)^{-2N-2} + 2 zeta(2N+2)]).
    N is the smallest N <= N_MAX with b_N < TERM_TOL (|T_1| - b_1), where
    |T_1| - b_1 <= |P| is the first term's modulus less its bound.  The
    bounds are compared before any A_n past the first is formed, and the
    ray is used where b_{N_MAX} misses: at once where it is not below
    TERM_TOL |T_1|, which bounds the tolerance, so that a ray point pays
    for A_1 and one bound.  Below it b_N falls with N up to N_MAX (the
    bound falls up to N ~ pi (1 - a)/|tau|, past N_MAX wherever b_{N_MAX}
    certifies P), so N is found by probing b_2, b_4 and b_8 and bisecting
    the last bracket: one bound at N = 2, three at N = 3 or 4 and five at
    most, past b_1 and b_{N_MAX}, where a scan from N = 1 took N.  One
    pass of _a_terms forms A_1 before the bounds and A_2, ..., A_N after,
    and only the last partial sum is kept.
    The series is tried only for SERIES_EPS < arg tau <= pi/2, where its
    ray lies in the lower half-plane and it sums P_minus; at Re tau < 0 it
    would sum P_plus, which reaches it through the mirror point.
    """
    tau, nu = point.tau, point.nu
    a = abs(nu.real)
    abs_tau = abs(tau)
    # tried only for |tau| < 1 - a, far past where the bound can certify P
    # (|tau| up to about 0.13 (1 - a)); there no power below overflows
    if not (abs_tau < 1.0 - a and tau.real >= 0.0 and math.atan2(tau.imag, tau.real) > SERIES_EPS):
        return None
    consts = _series_constants(N_MAX)
    abs_nu, inv = abs(nu), 1.0 / (1.0 - a)

    def bound(N: int) -> float:
        _, _, e, f1, f1_z1, f2, f2_z2 = consts[N]
        t = abs_tau**e
        x = t if a == 0.0 else (inv * abs_tau) ** e  # (1 - a)^-1 = 1 at a = 0
        b = f1 * x + f1_z1 * t
        b_nu = abs_nu * (f2 * inv * x + f2_z2 * t)
        return b_nu if b_nu < b else b  # min(b, b_nu), which costs more to call

    log_q = point.log_q
    terms = _a_terms(TWO_PI * 1j * nu)
    first = consts[1][0] * next(terms) * log_q
    # tol is at most TERM_TOL |T_1|: a b_{N_MAX} past that rejects without b_1
    b_max, abs_first = bound(N_MAX), abs(first)
    if not b_max < TERM_TOL * abs_first:
        return None
    b_1 = bound(1)
    tol = TERM_TOL * (abs_first - b_1)
    if not b_max < tol:
        return None
    lo, hi = 1, 1  # b_hi < tol, and b_lo is not but at lo = hi = 1
    if not b_1 < tol:
        hi = 2
        while hi < N_MAX and not bound(hi) < tol:  # b_2, b_4, b_8, then b_{N_MAX}
            lo, hi = hi, min(2 * hi, N_MAX)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) < tol:
            hi = mid
        else:
            lo = mid
    total = 0j + first
    log_q_sq = log_q * log_q
    power = log_q * log_q_sq
    for n in range(2, hi + 1):
        total += consts[n][0] * next(terms) * power
        power *= log_q_sq
    return -total


# ---------------------------------------------------------------------------
# the asymptotic table: every partial sum of P's series against the ray


@dataclass(frozen=True)
class AsymptoticRow:
    tau: complex
    N: int
    theta_partial: complex
    minus_P: complex
    error: float
    bound_rhs: float


def theta_series_table(
    nu: complex, tau_list: list[complex], n_max: int = 8
) -> list[AsymptoticRow]:
    """Partial sums of P's divergent series against -P.

    For each tau and each N = 0..n_max the row records the partial sum
    through N terms (_partial_sums, as _p_series sums them), the reference
    value -P(tau, nu), their distance, and the bound of _p_series,
    C_eps K_N(nu) |tau|^{2N+1} / (2pi-eps)^{2N} with eps = SERIES_EPS,
    plus a rounding allowance of 4 ulps of |P|: at large N the proven
    bound falls below the floating-point floor of the computed -P, where
    the distance measures rounding, not the series.
    The reference is always the lower ray integral along choose_ray's ray,
    never the series that P_minus takes as q -> 1, and K_N is the exact
    integral, not _p_series' closed-form bound, so the table checks the
    series independently.  The coefficients A_n do not depend on tau and
    are computed once.
    """
    nu = complex(nu)
    if abs(nu.real) >= 1.0:
        raise DomainError(f"|Re nu| = {abs(nu.real)} >= 1: K_N diverges")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    for n in range(1, n_max + 1):
        _require_n(n)
    consts = _series_constants(n_max)
    k_vals = [K_N(N, nu) for N in range(n_max + 1)]
    a_vals = _a_values(range(1, n_max + 1), TWO_PI * 1j * nu)
    rows: list[AsymptoticRow] = []
    for tau in tau_list:
        tau = complex(tau)
        arg = math.atan2(tau.imag, tau.real)
        if not SERIES_EPS < arg < math.pi - SERIES_EPS:
            raise DomainError(
                f"arg tau = {arg:.4f} outside the sector "
                f"({SERIES_EPS:.4f}, {math.pi - SERIES_EPS:.4f})"
            )
        point = ModularPoint(tau, nu)
        minus_p = -_de_sum(_p_weighted(point, choose_ray(point))).value
        for N, partial in enumerate(map(_finite, _partial_sums(a_vals, point.log_q, consts))):
            try:
                bound = _finite(consts[N][1] * k_vals[N] * abs(tau) ** (2 * N + 1), "bound")
            except OverflowError:  # float ** int, where |tau|^{2N+1} passes the range
                raise DomainError(f"the bound's |tau|^{2 * N + 1} overflows at {tau}") from None
            bound += 4.0 * math.ulp(abs(minus_p))
            rows.append(AsymptoticRow(tau, N, partial, minus_p, abs(minus_p - partial), bound))
    return rows


# ---------------------------------------------------------------------------
# the almost-modular term M: modular route and principal-value route


def M_almost_modular(alpha: float, xi: float) -> float:
    """M(alpha, xi) = Re log (x* q*; q*)_oo + P^-(alpha, xi).

    q* = e^{-2 pi/alpha}, x* = e^{2 pi i xi}; the imaginary parts cancel
    for real inputs, so the real part is returned.
    """
    point = ModularPoint.real_case(alpha, xi)
    return math.log(abs(qpochhammer(point.x_star_q_star, point.q_star))) + P_minus(point).real


def _pv_cosine_sum(alpha: float, xi: float) -> float:
    total = 0.0
    for n in range(1, PV_TERMS + 1):
        arg = TWO_PI * n / alpha
        if arg > _EXP_LIMIT:
            break
        total -= math.cos(TWO_PI * n * xi) / (n * math.expm1(arg))
    return total


def _pv_sine_part(alpha: float, xi: float) -> float:
    """-(2/pi) PV int_0^oo F(t) dt/(1-t^2) plus the closed-form n > PV_TERMS
    tail, where F truncates the sine sum at PV_TERMS."""
    delta = PV_DELTA
    n = np.arange(1, PV_TERMS + 1)[:, None]

    def F(t: np.ndarray) -> np.ndarray:
        # 1/expm1(a) written as e^{-a}/(-expm1(-a)), which underflows
        # where the former would overflow
        a = (TWO_PI / alpha) * n * t
        return (np.sin(TWO_PI * xi * n * t) * np.exp(-a) / (-np.expm1(-a) * n)).sum(0)

    def f_reg(t: np.ndarray) -> np.ndarray:
        return F(t) / (1.0 - t * t)

    f1 = F(np.ones(1))[0]

    def f_window(y: np.ndarray) -> np.ndarray:
        # (F(t) - f1)/(1 - t^2) at t = 1 - y and t = 1 + y, with 1 - t^2
        # written exactly in y so that y -> 0 stays finite
        return (F(1.0 - y) - f1) / (y * (2.0 - y)) - (F(1.0 + y) - f1) / (y * (2.0 + y))

    # the f1/(2(1-t)) piece cancels by symmetry of the window around t = 1;
    # the f1/(2(1+t)) piece integrates in closed form
    integral = (
        _integrate_interval(f_reg, 0.0, 1.0 - delta)
        + _integrate_interval(f_window, 0.0, delta)
        + 0.5 * f1 * math.log((2.0 + delta) / (2.0 - delta))
        + _integrate_interval(f_reg, 1.0 + delta, max(5.0, 9.0 * alpha))
    ).real
    # n > PV_TERMS tail: each term contributes (alpha/(2 pi n^2)) J0(xi alpha)
    # with J0(mu) = (pi/2) coth(pi mu) - 1/(2 mu), odd and vanishing at 0,
    # hence a trigamma factor overall
    mu = xi * alpha
    if mu == 0.0:
        j0 = 0.0
    else:
        j0 = 0.5 * math.pi / math.tanh(math.pi * mu) - 0.5 / mu
    # trigamma(n + 1) = pi^2/6 - sum_{k <= n} 1/k^2
    trigamma = PI_SQ_OVER_6 - math.fsum(1.0 / k**2 for k in range(1, PV_TERMS + 1))
    tail = -(alpha / math.pi**2) * j0 * trigamma
    return -(2.0 / math.pi) * integral + tail


def pv_M_direct(alpha: float, xi: float) -> float:
    """Principal-value route to M(alpha, xi), independent of the ray sums.

    Truncates both sums at PV_TERMS, subtracts the t = 1 singularity
    locally (symmetric window of half-width PV_DELTA), and restores the
    n > PV_TERMS sine-sum tail in closed form.  Validation-oracle
    accuracy: ~1e-8 at alpha <= 1, comfortably inside the 1e-6 target.
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    _finite(TWO_PI * PV_TERMS * xi, "the largest cosine phase 2 pi n xi")
    with np.errstate(all="ignore"):  # a non-finite value is refused instead
        return _finite(_pv_cosine_sum(alpha, xi) + _pv_sine_part(alpha, xi))
