"""The ``qmod`` command line front end.

Three subcommands: ``eval`` computes a single value, ``check`` runs an
identity's residual grid (or a user-supplied point), ``sweep`` emits the
asymptotic-table and q->1 cost studies as CSV/JSON for plotting.

Output is fully deterministic: fixed grids come from the shipped
``defaults.json`` (seeded PRNG draws, version-tagged), numbers print with
shortest round-trip ``repr``, and rows are emitted in generation order.

Each target reads its inputs from these flags.  A complex input comes from
a (re, im) pair such as ``--tau-re/--tau-im`` (``--tau-*``); a missing half
of a pair, or a missing ``--nu-re`` for xi, reads as 0; a missing sweep
input reads from ``defaults.json``.  An input flag the target does not
read is a usage error; ``--tol``, ``--format`` and ``--out`` apply to
every target.

    target                                               inputs     flags
    pochhammer-direct, pochhammer-euler, euler-identity  x, q       --x-*, --q-*
    qgamma                                               z, q       --x-*, --q-*
    theta                                                q, x       --q-*, --x-*
    li2                                                  x          --x-*
    An                                                   n, z       --n-max, --x-*
    eta, eta-modular, lambert71, lambert72               tau        --tau-*
    binet74, binet75                                     lambda     --x-*
    M, M-pv (tau = alpha*i, nu = xi*alpha*i)             alpha, xi  --tau-im, --nu-re
    every other eval and check target                    tau, nu    --tau-*, --nu-*
    sweep asym-table                                     nu, n      --nu-*, --n-max
    sweep asym-table, q-to-one                           alphas     --alpha

Exit codes: 0 pass, 2 domain error (a non-finite eval value among them)
or failed check, 3 convergence failure, 64 usage error, 74 output I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from importlib import resources

from .errors import ConvergenceError, DomainError
from .modularity import (
    ResidualReport,
    binet74_residual,
    binet75_residual,
    compare,
    eta_modular_residual,
    euler_residual,
    lambert_relation_residuals,
    mpv_residual,
    qpochhammer_modular,
    qpochhammer_modular_with_count,
    ramanujan_residual,
    reflection_residual,
    skipped_report,
    stokes_residual,
    theta_modular_residual,
    thm29_residual,
)
from .qcore import (
    TERM_TOL,
    ModularPoint,
    _finite,
    admitted_rounding,
    eta,
    euler_series,
    lambert_L1,
    lambert_L2,
    q_gamma,
    qpochhammer,
    qpochhammer_with_count,
    theta_product,
)
from .raysum import (
    ABS_FLOOR,
    RAY_REL_TOL,
    A_n,
    M_almost_modular,
    P_minus,
    big_G,
    theta_series_table,
)
from .specialfns import dilog

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_USAGE = 64
EXIT_IO = 74


def _series_err(v: complex) -> float:
    return TERM_TOL * (1.0 + abs(v))


def _euler_err(v: complex) -> float:
    # euler_series returns a sum whose rounding reaches admitted_rounding(v)
    # before it refuses
    return admitted_rounding(v) + _series_err(v)


def _quad_err(v: complex) -> float:
    return RAY_REL_TOL * abs(v) + ABS_FLOOR


def _closed_err(v: complex) -> float:
    return 4e-16 * (1.0 + abs(v))


def _binet_err(v: complex) -> float:
    # Binet's function is good to ~4e-15 absolute on its shifted range
    # |s| < 8.35, where |G| can be far below 1
    return 4e-15 + 4e-16 * abs(v)


def _point(p: dict) -> ModularPoint:
    return ModularPoint(p["tau"], p.get("nu", 0.0))


def _lambert(which: int):
    return lambda p: lambert_relation_residuals(_point(p), which)


# Each entry reads its inputs from a dict keyed by the input names.  The
# entries are lambdas so that every callee is looked up in this module's
# globals at call time, where a wrapper installed on it sees the call.

#: eval target -> (input names, evaluator, error model of the value)
EVAL = {
    "pochhammer-direct": (("x", "q"), lambda p: qpochhammer(p["x"], p["q"]), _series_err),
    "pochhammer-euler": (("x", "q"), lambda p: euler_series(p["x"], p["q"]), _euler_err),
    "pochhammer-modular": (("tau", "nu"), lambda p: qpochhammer_modular(_point(p)), _quad_err),
    "qgamma": (("z", "q"), lambda p: q_gamma(p["z"], p["q"]), _series_err),
    "eta": (("tau",), lambda p: eta(p["tau"]), _series_err),
    "theta": (("q", "x"), lambda p: theta_product(p["q"], p["x"]), _series_err),
    "li2": (("x",), lambda p: dilog(p["x"]), _closed_err),
    "G": (("tau", "nu"), lambda p: big_G(_point(p)), _binet_err),
    "P": (("tau", "nu"), lambda p: P_minus(_point(p)), _quad_err),
    "An": (("n", "z"), lambda p: A_n(p["n"], p["z"]), _quad_err),
    "L1": (("tau", "nu"), lambda p: lambert_L1(_point(p)), _series_err),
    "L2": (("tau", "nu"), lambda p: lambert_L2(_point(p)), _series_err),
    "M": (("alpha", "xi"), lambda p: M_almost_modular(p["alpha"], p["xi"]), _quad_err),
}

#: check target -> (input names, residual at the target's TOLERANCES entry)
CHECK = {
    "euler-identity": (("x", "q"), lambda p: euler_residual(p["x"], p["q"])),
    "thm29": (("tau", "nu"), lambda p: thm29_residual(_point(p))),
    "ramanujan47": (("tau", "nu"), lambda p: ramanujan_residual(_point(p))),
    "eta-modular": (("tau",), lambda p: eta_modular_residual(p["tau"])),
    "theta-modular": (("tau", "nu"), lambda p: theta_modular_residual(p["tau"], p["nu"])),
    "stokes28": (("tau", "nu"), lambda p: stokes_residual(_point(p))),
    "reflection34": (("tau", "nu"), lambda p: reflection_residual(_point(p))),
    "lambert67": (("tau", "nu"), _lambert(67)),
    "lambert68": (("tau", "nu"), _lambert(68)),
    "lambert71": (("tau",), _lambert(71)),
    "lambert72": (("tau",), _lambert(72)),
    "binet74": (("lambda",), lambda p: binet74_residual(p["lambda"])),
    "binet75": (("lambda",), lambda p: binet75_residual(p["lambda"])),
    "M-pv": (("alpha", "xi"), lambda p: mpv_residual(p["alpha"].real, p["xi"].real)),
}


def _asym_table(p: dict, cfg: dict) -> list[dict]:
    """Truncated correction series against -P, one row per (alpha, N)."""
    nu = p["nu"] if p["nu"] is not None else _complex_of(cfg["nu"])
    n_max = p["n"] if p["n"] is not None else cfg["n_max"]
    rows = theta_series_table(nu, [1j * alpha for alpha in p["alphas"]], n_max=n_max)
    # AsymptoticRow's fields after tau are the remaining columns, in order
    return [
        {"alpha": row.tau.imag, "nu": nu, **{k: v for k, v in vars(row).items() if k != "tau"}}
        for row in rows
    ]


def _q_to_one(p: dict, cfg: dict) -> list[dict]:
    """Direct-product cost against transformed-side cost as q -> 1."""
    rows = []
    for alpha in p["alphas"]:
        tau = 1j * alpha
        point = ModularPoint(tau, cfg["s"] * tau)
        direct, n_direct = qpochhammer_with_count(point.x, point.q)
        modular, n_modular = qpochhammer_modular_with_count(point)
        rel = compare("thm29", {}, direct, modular).rel_residual
        rows.append({"alpha": alpha, "direct_terms": n_direct,
                     "modular_terms": n_modular, "rel_diff": rel})
    return rows


#: sweep target -> (input names, row builder taking the inputs and the
#: target's defaults entry, which stands in for an input no flag sets)
SWEEP = {
    "asym-table": (("nu", "n", "alphas"), _asym_table),
    "q-to-one": (("alphas",), _q_to_one),
}

EVAL_TARGETS = tuple(EVAL)
CHECK_TARGETS = tuple(CHECK)
SWEEP_TARGETS = tuple(SWEEP)


# ---------------------------------------------------------------------------
# inputs: flags, defaults.json and the check grids


def _pair(re: float | None, im: float | None) -> complex | None:
    if re is None and im is None:
        return None
    return complex(re or 0.0, im or 0.0)


def _complex_of(v) -> complex:
    """A defaults.json number or [re, im] pair as a complex."""
    return complex(*v) if isinstance(v, list) else complex(v)


#: input name -> (its value read from the parsed flags, flags named if
#: missing, the flags it reads)
_INPUTS = {
    "tau": (lambda a: _pair(a.tau_re, a.tau_im), "--tau-re/--tau-im", ("tau_re", "tau_im")),
    "nu": (lambda a: _pair(a.nu_re, a.nu_im), "--nu-re/--nu-im", ("nu_re", "nu_im")),
    "x": (lambda a: _pair(a.x_re, a.x_im), "--x-re/--x-im", ("x_re", "x_im")),
    "q": (lambda a: _pair(a.q_re, a.q_im), "--q-re/--q-im", ("q_re", "q_im")),
    "n": (lambda a: a.n_max, "--n-max", ("n_max",)),
    "alpha": (lambda a: a.tau_im, "--tau-im (alpha)", ("tau_im",)),
    "alphas": (lambda a: a.alpha, "--alpha", ("alpha",)),
    "xi": (lambda a: a.nu_re or 0.0, None, ("nu_re",)),
}
_INPUTS["z"] = _INPUTS["lambda"] = _INPUTS["x"]
#: parsed arguments that every target accepts
_GENERAL = ("command", "target", "tol", "format", "out")


def _reject_unread(names: tuple[str, ...], args, err) -> None:
    """A usage error for the first flag given that no input reads."""
    read = {flag for name in names for flag in _INPUTS[name][2]}
    for flag, value in vars(args).items():
        if value is not None and flag not in read and flag not in _GENERAL:
            err(f"{args.target} does not read --{flag.replace('_', '-')}")


def _read_inputs(names: tuple[str, ...], args, err) -> dict:
    """The named inputs from their flags; a missing one is a usage error."""
    values = {}
    for name in names:
        read, flags, _ = _INPUTS[name]
        values[name] = read(args)
        if values[name] is None:
            err(f"missing required flags: {flags}")
    return values


def load_defaults() -> dict:
    """The versioned grid/sweep configuration shipped with the package."""
    return json.loads(resources.files("qmod").joinpath("defaults.json").read_text("utf-8"))


def _draw(rng: random.Random, c: dict, name: str, point: dict) -> complex:
    """One seeded draw of input ``name``, as its defaults entry describes."""
    if f"{name}_radius" in c:
        # sqrt keeps the polar draw area-uniform over the disk
        r = c[f"{name}_radius"] * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        return complex(r * math.cos(phi), r * math.sin(phi))
    if f"{name}_re" in c:
        return complex(rng.uniform(*c[f"{name}_re"]), rng.uniform(*c[f"{name}_im"]))
    return rng.uniform(*c["c_range"]) * point["tau"]  # nu = c tau


def check_grid(target: str, cfg: dict) -> list[dict[str, complex]]:
    """The default input grid for a check target, deterministically built.

    An entry with a ``seed`` draws ``count`` points, input by input; an
    entry with ``points`` lists whole points; any other entry lists each
    input's values in input order, and the grid is their product.
    """
    names = CHECK[target][0]
    c = cfg["checks"][target]
    if "seed" in c:
        rng = random.Random(c["seed"])
        grid = [{} for _ in range(c["count"])]
        for point in grid:
            for name in names:
                point[name] = _draw(rng, c, name, point)
        return grid
    if "points" in c:
        return [dict(zip(names, map(_complex_of, p))) for p in c["points"]]
    grid = [{}]
    for name, values in zip(names, c.values()):
        grid = [{**point, name: _complex_of(v)} for point in grid for v in values]
    return grid


# ---------------------------------------------------------------------------
# output


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_c(value: complex) -> str:
    value = complex(value)
    return f"{_fmt(value.real)}{'+' if value.imag >= 0 or value.imag != value.imag else ''}{_fmt(value.imag)}j"


def _json(obj) -> str:
    """Indented JSON with every complex number written as [re, im]."""
    return json.dumps(obj, indent=2, default=lambda c: [c.real, c.imag]) + "\n"


def _csv_cells(name: str, v) -> list[tuple[str, str]]:
    """(column, cell) pairs: complex values split into _re/_im columns."""
    if isinstance(v, complex):
        return [(f"{name}_re", _fmt(v.real)), (f"{name}_im", _fmt(v.imag))]
    if isinstance(v, dict):  # a report's inputs
        return [(name, ";".join(f"{k}={_fmt_c(c)}" for k, c in v.items()))]
    if isinstance(v, float):
        return [(name, _fmt(v))]
    return [(name, str(v).replace(",", ";"))]


def _render(rows: list[dict], fmt: str) -> str:
    """A JSON list for ``json``, otherwise CSV with a header line."""
    if fmt == "json":
        return _json(rows)
    cells = [[c for name, v in row.items() for c in _csv_cells(name, v)] for row in rows]
    lines = [",".join(col for col, _ in cells[0])]
    lines += [",".join(cell for _, cell in row) for row in cells]
    return "\n".join(lines) + "\n"


def _report_line(r: ResidualReport) -> str:
    ins = " ".join(f"{k}={_fmt_c(v)}" for k, v in r.inputs)
    if r.skipped:
        return f"SKIP {r.identity_id} [{ins}] {r.skip_reason}"
    word = "PASS" if r.passed else "FAIL"
    return (
        f"{word} {r.identity_id} [{ins}] rel={_fmt(r.rel_residual)} "
        f"abs={_fmt(r.abs_residual)} tol={_fmt(r.tolerance)}"
    )


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"qmod: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code this tool promises (64)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qmod", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in {"eval": EVAL, "check": CHECK, "sweep": SWEEP}.items():
        p = sub.add_parser(command)
        p.add_argument("target", choices=tuple(table))
        for flag in ("tau-re", "tau-im", "nu-re", "nu-im", "x-re", "x-im", "q-re", "q-im"):
            p.add_argument(f"--{flag}", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--alpha", type=float, action="append", default=None)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None)
    return parser


def _cmd_eval(args, err) -> tuple[str, int]:
    names, evaluate, error_model = EVAL[args.target]
    _reject_unread(names, args, err)
    value = _finite(complex(evaluate(_read_inputs(names, args, err))))
    row = {"value": value, "error": error_model(value)}
    if args.format == "json":
        return _json({"target": args.target, **row}), EXIT_OK
    if args.format == "csv":
        return _render([row], "csv"), EXIT_OK
    return f"{_fmt(value.real)} {_fmt(value.imag)} {_fmt(row['error'])}\n", EXIT_OK


def _cmd_check(args, err) -> tuple[str, int]:
    target = args.target
    names, residual = CHECK[target]
    _reject_unread(names, args, err)
    if any(v is not None for k, v in vars(args).items() if k.endswith(("_re", "_im"))):
        grid = [_read_inputs(names, args, err)]
    else:
        grid = check_grid(target, load_defaults())
    reports: list[ResidualReport] = []
    for inputs in grid:
        try:
            r = residual(inputs)
        except DomainError as exc:
            r = skipped_report(target, inputs, args.tol, str(exc))
        else:
            if args.tol is not None:
                # the same pass rule on the same sides, at the given tolerance
                r = compare(target, dict(r.inputs), r.lhs, r.rhs, args.tol)
        reports.append(r)
    n_pass = sum(1 for r in reports if r.passed)
    n_skip = sum(1 for r in reports if r.skipped)
    n_fail = len(reports) - n_pass - n_skip
    admissible_ok = (len(reports) - n_skip) >= 0.6 * len(reports)
    code = EXIT_OK if (n_fail == 0 and admissible_ok) else EXIT_DOMAIN
    if args.format != "text":
        rows = [{**vars(r), "inputs": dict(r.inputs)} for r in reports]
        return _render(rows, args.format), code
    lines = [_report_line(r) for r in reports]
    lines.append(
        f"SUMMARY {target}: {n_pass} pass, {n_fail} fail, {n_skip} skip "
        f"(n={len(reports)})"
    )
    if not admissible_ok:
        lines.append(f"ERROR {target}: fewer than 60% of grid points admissible")
    return "\n".join(lines) + "\n", code


def _cmd_sweep(args, err) -> tuple[str, int]:
    names, build = SWEEP[args.target]
    _reject_unread(names, args, err)
    cfg = load_defaults()["sweeps"][args.target]
    inputs = {name: _INPUTS[name][0](args) for name in names}
    alphas = inputs["alphas"] = inputs["alphas"] or list(cfg["alphas"])
    if any(a <= 0 for a in alphas):
        err("alpha values must be positive")
    # text is CSV: the sweeps are tables for plotting
    return _render(build(inputs, cfg), args.format), EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"eval": _cmd_eval, "check": _cmd_check, "sweep": _cmd_sweep}[args.command]
    try:
        text, code = command(args, parser.error)
    except DomainError as exc:
        print(f"qmod: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"qmod: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    emit_code = _emit(text, args.out)
    return emit_code if emit_code != EXIT_OK else code


if __name__ == "__main__":
    sys.exit(main())
