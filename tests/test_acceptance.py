"""End-to-end acceptance gate.

Eleven numbered criteria, each asserted at its stated tolerance and
budgeted runtime.  Every criterion emits a single PASS/FAIL line with
capture suspended, so a plain ``pytest`` run leaves a readable
scoreboard in the log.

Criterion 3b checks the cost of the direct product against the length
its tail bound fixes in advance, and that the product of that length is
as accurate as the bound promises (against mpmath, where installed).
"""

import cmath
import math
import random
import time

import pytest

from qmod.cli import main
from qmod.modularity import (
    binet74_residual,
    binet75_residual,
    eta_modular_residual,
    lambert_relation_residuals,
    mpv_residual,
    qpochhammer_modular_with_count,
    ramanujan_residual,
    reflection_residual,
    stokes_residual,
    theta_modular_residual,
    thm29_residual,
)
from qmod.qcore import (
    TERM_TOL,
    ModularPoint,
    euler_series,
    qpochhammer,
    qpochhammer_with_count,
    theta_product,
)
from qmod.raysum import P_minus, theta_series_table
from qmod.specialfns import dilog


def scoreboard(num: str, name: str, ok: bool, detail: str = "") -> bool:
    word = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {word}{tail}", flush=True)
    return ok


def _disk(rng: random.Random, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(phi), r * math.sin(phi))


def test_criterion_01_euler_identity(capfd):
    t0 = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    for _ in range(200):
        x = _disk(rng, 2.0)
        q = _disk(rng, 0.6)
        lhs = qpochhammer(x, q)
        rhs = euler_series(x, q)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-11 and elapsed < 5.0
    with capfd.disabled():
        assert scoreboard(
            "01", "euler identity, 200 draws", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s"
        )


def test_criterion_02_binet_integrals(capfd):
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 1 + 1j):
        worst = max(worst, binet74_residual(lam).rel_residual)
        worst = max(worst, binet75_residual(lam).rel_residual)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 2.0
    with capfd.disabled():
        assert scoreboard(
            "02", "Binet quadrature vs closed form", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s"
        )


def test_criterion_03_modular_evaluation_grid(capfd):
    t0 = time.perf_counter()
    taus = (0.3j, 0.7j, 1j, 0.2 + 0.8j, -0.3 + 1.2j)
    nus = (0.1j, 0.3j, 0.5j, 0.1 + 0.2j, 0.25)
    worst, valid = 0.0, 0
    for tau in taus:
        for nu in nus:
            p = ModularPoint(tau, nu)
            if not p.admissible_thm29:
                continue
            worst = max(worst, thm29_residual(p).rel_residual)
            valid += 1
    # near q -> 1: transformed-product route stays cheap and accurate
    p_near = ModularPoint(0.05j, 0.015j)
    value, star_terms = qpochhammer_modular_with_count(p_near)
    direct = qpochhammer(p_near.x, p_near.q)
    near_rel = abs(value - direct) / abs(direct)
    elapsed = time.perf_counter() - t0
    ok = (
        valid >= 15
        and worst < 1e-8
        and near_rel < 1e-8
        and star_terms <= 10**3
        and elapsed < 60.0
    )
    with capfd.disabled():
        assert scoreboard(
            "03",
            "modular vs direct product",
            ok,
            f"{valid} cells, worst rel {worst:.2e}, q->1 rel {near_rel:.2e}, "
            f"{star_terms} transformed terms, {elapsed:.1f}s",
        )


def test_criterion_03b_direct_term_count_claim(capfd):
    # The direct product fixes its length N in advance from the tail bound
    # |x q^N| / (1 - |q|) < TERM_TOL.  At tau = 0.05i, nu = 0.015i we have
    # |q| = e^{-0.1 pi} ~ 0.730, so that takes over a hundred factors; the
    # transformed side (|q*| = e^{-40 pi}) needs none, which is the cost
    # gap the modular route exists for.
    tol = TERM_TOL
    tau_im, nu_im = 0.05, 0.015
    abs_q = math.exp(-2.0 * math.pi * tau_im)
    abs_x = math.exp(-2.0 * math.pi * nu_im)
    n_bound = math.ceil(math.log(tol * (1.0 - abs_q) / abs_x) / math.log(abs_q))
    p = ModularPoint(1j * tau_im, 1j * nu_im)
    value, n_direct = qpochhammer_with_count(p.x, p.q)
    _, star_terms = qpochhammer_modular_with_count(p)
    ok = n_direct == n_bound and n_direct > 10 * max(star_terms, 1)
    with capfd.disabled():
        assert scoreboard(
            "03b",
            "direct-product cost at q ~ 0.73",
            ok,
            f"{n_direct} factors for {tol:g}, tail bound {n_bound}; "
            f"{star_terms} transformed terms",
        )
    # The neglected factors T = prod_{n>=N} (1 - x q^n) satisfy
    # |T - 1| <= e^s - 1 with s = sum_{n>=N} |x q^n| < tol, so the N-factor
    # product is within (e^s - 1)/(2 - e^s) < 2 tol of the full one; each
    # of the N factors adds at most 2^-52 of rounding.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = complex(mpmath.qp(p.x, p.q))
    assert abs(value - want) / abs(want) < 2.0 * tol + n_direct * 2.0**-52


def test_criterion_04_completed_formula(capfd):
    t0 = time.perf_counter()
    rng = random.Random(104)
    worst, checked = 0.0, 0
    while checked < 20:
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 1.5))
        nu = complex(rng.uniform(-0.25, 0.25), rng.uniform(0.05, 0.45))
        p = ModularPoint(tau, nu)
        if not p.admissible_thm29:
            continue
        worst = max(worst, ramanujan_residual(p).rel_residual)
        checked += 1
    p0 = ModularPoint(0.1j, 0.05j)
    from qmod.modularity import ramanujan_completed

    direct_rel = abs(
        ramanujan_completed(p0) - qpochhammer(p0.x, p0.q)
    ) / abs(qpochhammer(p0.x, p0.q))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and direct_rel < 1e-8
    with capfd.disabled():
        assert scoreboard(
            "04",
            "completed product formula",
            ok,
            f"equivalence worst {worst:.2e}, direct rel {direct_rel:.2e}, {elapsed:.1f}s",
        )


def _theta_laurent(q: complex, x: complex) -> complex:
    """sum_{|n| <= 40} q^{n^2/2} x^n with the principal q^{1/2}: the Laurent
    side of the triple product.  For |q| <= 0.6 and 1/20 <= |x| <= 2 the
    terms past |n| = 40 are below 1e-100."""
    half = cmath.sqrt(q)
    return sum(half ** (n * n) * x**n for n in range(-40, 41))


def test_criterion_05_eta_theta_modular(capfd):
    rng = random.Random(105)
    worst_eta = max(
        eta_modular_residual(
            complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0))
        ).rel_residual
        for _ in range(10)
    )
    worst_theta = max(
        theta_modular_residual(
            complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.5)),
            complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.15, 0.15)),
        ).rel_residual
        for _ in range(10)
    )
    worst_triple = 0.0
    done = 0
    while done < 50:
        q = _disk(rng, 0.6)
        x = _disk(rng, 2.0)
        if abs(q) < 1e-3 or abs(x) < 0.05 or (q.imag == 0 and q.real <= 0):
            continue
        a = theta_product(q, x)
        b = _theta_laurent(q, x)
        worst_triple = max(worst_triple, abs(a - b) / max(abs(a), abs(b), 1e-300))
        done += 1
    ok = worst_eta < 1e-10 and worst_theta < 1e-10 and worst_triple < 1e-11
    with capfd.disabled():
        assert scoreboard(
            "05",
            "eta/theta transformation laws",
            ok,
            f"eta {worst_eta:.2e}, theta {worst_theta:.2e}, triple {worst_triple:.2e}",
        )


def test_criterion_06_stokes_and_reflection(capfd):
    rng = random.Random(106)
    worst_stokes = 0.0
    for _ in range(10):
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.5))
        c = rng.uniform(0.05, 0.45)
        worst_stokes = max(
            worst_stokes, stokes_residual(ModularPoint(tau, c * tau)).rel_residual
        )
    worst_refl = 0.0
    done = 0
    while done < 20:
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0))
        nu = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.05, 0.5))
        p = ModularPoint(tau, nu)
        if p.nu_star.imag == 0.0:
            continue
        worst_refl = max(worst_refl, reflection_residual(p).rel_residual)
        done += 1
    odd = max(
        abs(P_minus(ModularPoint(t, n)) + P_minus(ModularPoint(t, -n)))
        for t, n in ((1j, 0.3j), (0.8j, 0.2 + 0.1j))
    )
    zero = abs(P_minus(ModularPoint(0.7j, 0)))
    ok = worst_stokes < 1e-9 and worst_refl < 1e-10 and odd < 1e-10 and zero == 0.0
    with capfd.disabled():
        assert scoreboard(
            "06",
            "ray-crossing jump and reflection",
            ok,
            f"jump {worst_stokes:.2e}, reflection {worst_refl:.2e}, oddness {odd:.2e}",
        )


def test_criterion_07_m_decomposition(capfd):
    worst = max(
        mpv_residual(alpha, xi).abs_residual
        for alpha in (1.0, 0.7)
        for xi in (0.2, 0.4)
    )
    ok = worst < 1e-6
    with capfd.disabled():
        assert scoreboard("07", "two routes to M", ok, f"worst abs {worst:.2e}")


def test_criterion_08_lambert_relations(capfd):
    t0 = time.perf_counter()
    worst72 = max(
        lambert_relation_residuals(ModularPoint(tau), 72).rel_residual
        for tau in (0.3j, 0.5j, 0.8j, 1.2j, 2.0j)
    )
    worst71 = max(
        lambert_relation_residuals(ModularPoint(tau), 71).rel_residual
        for tau in (0.5j, 1.1j)
    )
    pts = (ModularPoint(1j, 0.2j), ModularPoint(0.8j, 0.3j))
    worst67 = max(lambert_relation_residuals(p, 67).rel_residual for p in pts)
    worst68 = max(lambert_relation_residuals(p, 68).rel_residual for p in pts)
    elapsed = time.perf_counter() - t0
    ok = (
        worst72 < 1e-10
        and worst71 < 1e-7
        and worst67 < 1e-6
        and worst68 < 1e-6
        and elapsed < 120.0
    )
    with capfd.disabled():
        assert scoreboard(
            "08",
            "Lambert-sum relations",
            ok,
            f"72: {worst72:.2e}, 71: {worst71:.2e}, 67: {worst67:.2e}, "
            f"68: {worst68:.2e}, {elapsed:.1f}s",
        )


def test_criterion_09_asymptotic_series(capfd):
    t0 = time.perf_counter()
    alphas = (0.1, 0.05, 0.025, 0.0125)
    errors = [
        theta_series_table(0.3, [1j * a], n_max=1)[-1].error for a in alphas
    ]
    # least-squares slope of log error against log alpha
    xs = [math.log(a) for a in alphas]
    ys = [math.log(e) for e in errors]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    rows = theta_series_table(0.5, [0.3j], n_max=8)
    errs = [r.error for r in rows]
    n_star = errs.index(min(errs))
    nonmono = 0 < n_star < 8 and errs[-1] > errs[n_star]
    elapsed = time.perf_counter() - t0
    ok = abs(slope - 3.0) <= 0.3 and nonmono and elapsed < 60.0
    with capfd.disabled():
        assert scoreboard(
            "09",
            "correction series: order and divergence",
            ok,
            f"slope {slope:.3f}, optimal N* = {n_star}, {elapsed:.1f}s",
        )


def test_criterion_10_q_to_one_log_expansion(capfd):
    x = 0.5
    gaps = []
    for alpha in (0.01, 0.005):
        q = math.exp(-2.0 * math.pi * alpha)
        lead = 0.5 * math.log(1.0 - x) - dilog(x) / (2.0 * math.pi * alpha)
        gaps.append(abs(cmath.log(qpochhammer(x, q)).real - lead))
    ok = gaps[0] < 1e-2 and gaps[1] < gaps[0]
    with capfd.disabled():
        assert scoreboard(
            "10",
            "q -> 1 logarithmic expansion",
            ok,
            f"gap {gaps[0]:.2e} at alpha 0.01, {gaps[1]:.2e} at 0.005",
        )


def test_criterion_11_cli_contract(tmp_path, capfd):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    code_a = main(["check", "lambert72", "--out", str(out1)])
    code_b = main(["check", "lambert72", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    code_domain = main(["eval", "eta", "--tau-im", "-1"])
    try:
        main(["eval", "nonsense-target"])
        usage_code = 0
    except SystemExit as exc:
        usage_code = exc.code
    capfd.readouterr()
    ok = (
        code_a == 0
        and code_b == 0
        and identical
        and code_domain == 2
        and usage_code == 64
    )
    with capfd.disabled():
        assert scoreboard(
            "11",
            "CLI determinism and exit codes",
            ok,
            f"pass {code_a}, domain {code_domain}, usage {usage_code}, "
            f"byte-identical {identical}",
        )
