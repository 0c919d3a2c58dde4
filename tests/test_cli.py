"""Command line contract: determinism, exit codes, formats.

main() is exercised in-process (no subprocesses), so these run fast and
capture output through capsys.
"""

import json
import math
import random
import time

import pytest

from qmod.cli import (
    CHECK,
    CHECK_TARGETS,
    EVAL,
    EVAL_TARGETS,
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    SWEEP,
    SWEEP_TARGETS,
    _INPUTS,
    load_defaults,
    main,
)
from qmod.errors import DomainError
from qmod.modularity import TOLERANCES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval


def test_eval_li2(capsys):
    code, out, _ = run(capsys, "eval", "li2", "--x-re", "1", "--x-im", "0")
    assert code == EXIT_OK
    value_re, value_im, err = out.split()
    assert float(value_re) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
    assert float(value_im) == 0.0
    assert float(err) < 1e-12


def test_eval_P_at_zero_nu(capsys):
    code, out, _ = run(
        capsys, "eval", "P", "--tau-re", "0", "--tau-im", "1", "--nu-re", "0", "--nu-im", "0"
    )
    assert code == EXIT_OK
    assert out.split()[:2] == ["0.0", "0.0"]


def test_eval_An_flag_convention(capsys):
    # An takes the order through --n-max and z through --x-re/--x-im
    code, out, _ = run(capsys, "eval", "An", "--n-max", "1", "--x-re", "0.1")
    assert code == EXIT_OK
    assert float(out.split()[0]) == pytest.approx(0.008331944775049624, rel=1e-10)


#: the flags each eval target reads its first input from
FIRST_FLAGS = {
    "pochhammer-direct": "--x-re/--x-im",
    "pochhammer-euler": "--x-re/--x-im",
    "pochhammer-modular": "--tau-re/--tau-im",
    "qgamma": "--x-re/--x-im",
    "eta": "--tau-re/--tau-im",
    "theta": "--q-re/--q-im",
    "li2": "--x-re/--x-im",
    "G": "--tau-re/--tau-im",
    "P": "--tau-re/--tau-im",
    "An": "--n-max",
    "L1": "--tau-re/--tau-im",
    "L2": "--tau-re/--tau-im",
    "M": "--tau-im (alpha)",
}


@pytest.mark.parametrize("target", EVAL_TARGETS)
def test_eval_missing_flags_is_usage_error(capsys, target):
    with pytest.raises(SystemExit) as exc:
        main(["eval", target])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"missing required flags: {FIRST_FLAGS[target]}\n" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("eval M --tau-im 0.7 --nu-im 9", "--nu-im"),
        ("eval M --tau-re 0.3 --tau-im 0.7", "--tau-re"),
        ("eval li2 --x-re 0.4 --alpha 5", "--alpha"),
        ("eval eta --tau-im 1 --n-max 3", "--n-max"),
        ("check eta-modular --tau-im 1 --nu-im 0.3", "--nu-im"),
        ("check binet74 --x-re 1.5 --q-re 0.2", "--q-re"),
        ("check M-pv --n-max 3", "--n-max"),
        ("sweep q-to-one --nu-im 0.3", "--nu-im"),
        ("sweep q-to-one --n-max 3", "--n-max"),
        ("sweep asym-table --tau-im 0.5", "--tau-im"),
    ],
)
def test_unread_flag_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == EXIT_USAGE
    target = argv.split()[1]
    assert f"{target} does not read {flag}\n" in capsys.readouterr().err


def test_general_flags_are_accepted(capsys):
    code, _, _ = run(capsys, "eval", "li2", "--x-re", "0.4", "--tol", "1e-3", "--format", "json")
    assert code == EXIT_OK
    code, _, _ = run(capsys, "check", "eta-modular", "--tau-im", "1", "--tol", "1e-9")
    assert code == EXIT_OK


def test_eval_unknown_target_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "zeta"])
    assert exc.value.code == EXIT_USAGE


def test_eval_json_format(capsys):
    code, out, _ = run(
        capsys, "eval", "eta", "--tau-im", "1", "--format", "json"
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["target"] == "eta"
    assert obj["value"][0] == pytest.approx(0.76822542232605666, rel=1e-13)


def test_eval_domain_error_exit(capsys):
    code, _, err = run(capsys, "eval", "eta", "--tau-im", "-1")
    assert code == EXIT_DOMAIN
    assert "domain error" in err


@pytest.mark.parametrize("target", ["P", "pochhammer-modular"])
def test_eval_subnormal_tau_is_domain_error(capsys, target):
    # 1/tau overflows: P's ray has decay rate inf (once a ZeroDivisionError),
    # and the modular route's point refuses the exponent of x* q*,
    # 2 pi i (nu - 1)/tau, before P's ray is formed
    code, out, err = run(capsys, "eval", target, "--tau-im", "1e-315", "--nu-im", "3e-316")
    assert code == EXIT_DOMAIN
    assert out == ""
    message = {"P": "decay must be finite", "pochhammer-modular": "exponent is not finite"}
    assert message[target] in err


def test_eval_modular_overflow_exit(capsys):
    code, out, err = run(
        capsys, "eval", "pochhammer-modular", "--tau-im", "1e-5", "--nu-re", "0.3",
        "--nu-im", "0.1",
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "domain error" in err and "Traceback" not in err


def test_eval_modular_underflow_exit(capsys):
    # Li2(x)/log q sends e^expo below the double range: once printed as 0
    code, out, err = run(
        capsys, "eval", "pochhammer-modular", "--tau-im", "1e-5", "--nu-im", "3e-6"
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "value underflows" in err


def test_eval_G_error_covers_binet_error():
    # Binet's function carries up to ~3.6e-15 absolute error on its shifted
    # range, where |G| can be far below 1; the reported error must cover it
    mpmath = pytest.importorskip("mpmath")
    names, evaluate, error_model = EVAL["G"]
    rng = random.Random(20261018)
    points = [0.1321975817371849 + 0.0022812274039975024j, -0.2009 + 0.8005j]
    for _ in range(1000):
        r = 10.0 ** rng.uniform(-3.0, 2.0)
        phi = rng.uniform(-math.pi + 1e-3, math.pi - 1e-3)
        points.append(complex(r * math.cos(phi), r * math.sin(phi)))
    with mpmath.workdps(40):
        for s in points:
            # nu / tau with tau = i gives back s exactly
            value = evaluate({"tau": 1j, "nu": 1j * s})
            z = mpmath.mpc(s.real, s.imag)
            mu = mpmath.loggamma(z) - (
                (z - 0.5) * mpmath.log(z) - z + 0.5 * mpmath.log(2 * mpmath.pi)
            )
            assert abs(value - complex(-mu)) <= error_model(value), s


def test_eval_euler_error_covers_its_rounding():
    # euler_series returns sums whose rounding reaches 1e-11 of the value
    # before it refuses; the reported error must cover what it returns
    mpmath = pytest.importorskip("mpmath")
    names, evaluate, error_model = EVAL["pochhammer-euler"]
    rng = random.Random(1018)
    checked = 0
    with mpmath.workdps(30):
        for _ in range(200):
            x = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            q = rng.uniform(0.0, 0.9) * complex(math.cos(a := rng.uniform(0, 6.3)), math.sin(a))
            try:
                value = evaluate({"x": x, "q": q})
            except DomainError:
                continue
            want = complex(mpmath.qp(mpmath.mpc(x.real, x.imag), mpmath.mpc(q.real, q.imag)))
            assert abs(value - want) <= error_model(value), (x, q)
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# check


def test_check_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "lambert72")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 6  # 5 points + summary
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("SUMMARY lambert72: 5 pass, 0 fail, 0 skip")


def test_check_single_point_override(capsys):
    # the full-grid default is replaced by the explicit point
    code, out, _ = run(
        capsys, "check", "thm29", "--tau-im", "1", "--nu-im", "1.5"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("PASS thm29")


def test_check_inadmissible_point_skips_and_fails_run(capsys):
    # nu = 1.5 real is outside the identity's domain: the point is
    # reported as SKIP, and a run with no admissible points exits 2
    code, out, _ = run(capsys, "check", "thm29", "--tau-im", "1", "--nu-re", "1.5")
    assert code == EXIT_DOMAIN
    lines = out.strip().splitlines()
    assert lines[0].startswith("SKIP thm29")
    assert "fewer than 60%" in lines[-1]


def test_check_partial_pair_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "euler-identity", "--x-re", "0.5"])
    assert exc.value.code == EXIT_USAGE


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "check", "binet74", "--format", "json")
    assert code == EXIT_OK
    reports = json.loads(out)
    assert len(reports) == 4
    for r in reports:
        assert r["identity_id"] == "binet74"
        assert r["passed"] and not r["skipped"]
        assert r["rel_residual"] <= r["tolerance"]
        assert isinstance(r["lhs"], list) and len(r["lhs"]) == 2


def test_check_csv_parses(capsys):
    code, out, _ = run(capsys, "check", "binet75", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "identity_id"
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "binet75"
        assert fields[-3] == "True"  # passed


def test_check_custom_tolerance_can_fail(capsys):
    # an absurdly tight tolerance turns machine-precision passes into FAILs
    code, out, _ = run(capsys, "check", "lambert72", "--tol", "1e-18")
    assert code == EXIT_DOMAIN
    assert "FAIL" in out


@pytest.mark.parametrize("target", CHECK_TARGETS)
def test_check_tol_at_default_changes_nothing(capsys, target):
    # --tol re-judges each report; at the target's own tolerance that is
    # the pass rule the residual applied
    default = run(capsys, "check", target, "--format", "json")
    given = run(capsys, "check", target, "--format", "json", "--tol", repr(TOLERANCES[target]))
    assert given == default


def test_check_euler_grid_size(capsys):
    code, out, _ = run(capsys, "check", "euler-identity")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 201  # 200 samples + summary


# ---------------------------------------------------------------------------
# sweep


def test_sweep_asym_table_default_shape(capsys):
    code, out, _ = run(capsys, "sweep", "asym-table", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == (
        "alpha,nu_re,nu_im,N,theta_partial_re,theta_partial_im,"
        "minus_P_re,minus_P_im,error,bound_rhs"
    )
    assert len(lines) == 28  # 3 alphas x N = 0..8, plus header
    for line in lines[1:]:
        fields = line.split(",")
        error, bound = float(fields[-2]), float(fields[-1])
        assert error <= bound


def test_sweep_alpha_flag_and_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code = main(
        ["sweep", "asym-table", "--alpha", "0.2", "--n-max", "2", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 4
    # repr emission round-trips exactly
    for line in lines[1:]:
        for field in line.split(","):
            if "." in field or "e" in field:
                assert repr(float(field)) == field


def test_sweep_q_to_one_cost_story(capsys):
    code, out, _ = run(capsys, "sweep", "q-to-one")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,direct_terms,modular_terms,rel_diff"
    rows = [line.split(",") for line in lines[1:]]
    direct = [int(r[1]) for r in rows]
    modular = [int(r[2]) for r in rows]
    rel_diff = [float(r[3]) for r in rows]
    # direct-product cost blows up as q -> 1, transformed side stays flat
    assert direct[-1] > 20 * direct[0] / 2
    assert all(m <= 2 for m in modular)
    assert all(d < 1e-10 for d in rel_diff)


def test_sweep_rejects_bad_alpha(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "q-to-one", "--alpha", "-0.1"])
    assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# determinism and I/O


def test_check_runs_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "check", "reflection34")
    _, out2, _ = run(capsys, "check", "reflection34")
    assert out1 == out2


def test_sweep_runs_are_byte_identical(capsys):
    args = ("sweep", "asym-table", "--alpha", "0.1", "--n-max", "3", "--format", "csv")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_convergence_failure_exit(capsys):
    # |q| this close to 1 exhausts the direct product's term budget
    code, _, err = run(
        capsys, "eval", "pochhammer-direct", "--x-re", "0.5", "--q-re", "0.99999"
    )
    assert code == 3
    assert "convergence" in err


def test_series_whose_ratio_rounds_to_one_exits_3(capsys):
    # q = e^{-2 pi 1e-290} rounds to 1: the tail rule says so, not that
    # the Lambert series needs inf terms
    code, out, err = run(capsys, "eval", "L1", "--tau-im", "1e-290", "--nu-im", "0.1")
    assert code == 3
    assert out == ""
    assert "Lambert series: its ratio rounds to 1, so no number of terms reaches TERM_TOL" in err
    assert "inf" not in err


def test_asym_table_reads_only_the_bernoulli_numbers_it_uses(capsys):
    # n_max = 65 needs B_2 .. B_130; asking for twice as many overflowed
    # a double (B_260) and escaped as an OverflowError traceback.  K_N
    # converges for every N, so the table stops at A_n's limit n <= 60
    code, out, err = run(capsys, "sweep", "asym-table", "--alpha", "0.01", "--n-max", "65")
    assert code == 2
    assert out == ""
    assert "n must be an integer in [1, 60]" in err and "Traceback" not in err


def _fuzz_draw(rng: random.Random, flag: str):
    """A flag's value: n in [1, 60], and every other part of either sign
    (Im tau and the sweeps' alphas positive), its modulus log-uniform in a
    box, [1e-7, 100] for Im tau and [1e-4, 10^2.5] for the rest, or on half
    the draws over the double range, [1e-300, 1e300]."""
    if flag == "n_max":
        return rng.randint(1, 60)
    lo, hi = (-7.0, 2.0) if flag == "tau_im" else (-4.0, 2.5)
    if rng.random() < 0.5:
        lo, hi = -300.0, 300.0
    size = 10.0 ** rng.uniform(lo, hi)
    return size if flag in ("tau_im", "alpha") else rng.choice((-1.0, 1.0)) * size


def _fuzz_argv(rng: random.Random, command: str, target: str, names) -> list[str]:
    return [command, target] + [
        f"--{flag.replace('_', '-')}={_fuzz_draw(rng, flag)}"
        for name in names
        for flag in _INPUTS[name][2]
    ]


def test_no_input_ends_in_a_traceback(capsys):
    # 8 points per eval, check and sweep target on each of seeds 1-5: each
    # call refuses (exit 2 or 3) or exits 0, an eval or a sweep with finite
    # numbers, within 1 s; an exception that escapes main, such as an
    # OverflowError or a numpy warning (an error under the test suite's
    # filterwarnings), fails
    for seed in range(1, 6):
        rng = random.Random(seed)
        for command, table in (("eval", EVAL), ("check", CHECK), ("sweep", SWEEP)):
            for target, (names, *_) in table.items():
                for _ in range(8):
                    argv = _fuzz_argv(rng, command, target, names)
                    start = time.perf_counter()
                    code, out, _ = run(capsys, *argv)
                    assert time.perf_counter() - start < 1.0, argv
                    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_CONVERGENCE), argv
                    if command != "check" and code == EXIT_OK:
                        body = out if command == "eval" else out.split("\n", 1)[1]
                        cells = body.replace(",", " ").split()
                        assert all(math.isfinite(float(v)) for v in cells), argv


def test_out_io_error(capsys):
    code, _, err = run(
        capsys, "check", "lambert72", "--out", "/nonexistent-dir/x.txt"
    )
    assert code == EXIT_IO
    assert "cannot write" in err


def test_defaults_config_is_complete():
    cfg = load_defaults()
    assert set(cfg["checks"]) == set(CHECK_TARGETS)
    assert set(cfg["sweeps"]) == set(SWEEP_TARGETS)
    assert len(EVAL_TARGETS) == 13
    # a check target runs at its TOLERANCES entry unless --tol is given
    assert set(CHECK_TARGETS) <= set(TOLERANCES)
