"""Dump stdout, stderr and exit code of a fixed set of ``qmod`` invocations.

Usage: ``python tools/cli_golden.py SRC_DIR > dump.txt``.  Diff the dumps of two
source trees: an empty diff means byte-identical command line behaviour.  Cases
run in process in a scratch directory, so ``--out`` paths and messages are fixed.
"""

import contextlib
import io
import os
import sys
import tempfile

XQ, TN = "--x-re 0.3 --x-im 0.1 --q-re 0.5 --q-im 0.2", "--tau-im 1 --nu-re 0.1 --nu-im 0.3"
EVAL_POINTS = {
    "pochhammer-direct": XQ, "pochhammer-euler": XQ, "G": TN, "P": TN,
    "pochhammer-modular": "--tau-im 0.5 --nu-re 0.1 --nu-im 0.15",
    "qgamma": "--x-re 2.5 --q-re 0.9", "eta": "--tau-re 0.1 --tau-im 0.8",
    "theta": "--q-re 0.3 --q-im 0.1 --x-re 0.7 --x-im 0.2", "li2": "--x-re 0.4 --x-im 0.3",
    "An": "--n-max 2 --x-re 0.3", "L1": "--tau-im 1 --nu-im 0.2",
    "L2": "--tau-im 1 --nu-im 0.2", "M": "--tau-im 0.7 --nu-re 0.3",
}
CHECK_POINTS = {
    "euler-identity": "--x-re 0.5 --x-im 0.1 --q-re 0.3",
    "eta-modular": "--tau-re 0.1 --tau-im 0.9", "lambert71": "--tau-im 0.5",
    "lambert72": "--tau-im 0.5", "stokes28": "--tau-im 1 --nu-im 0.2",
    "binet74": "--x-re 1.5 --x-im 0.5", "binet75": "--x-re 1.5 --x-im 0.5",
    "M-pv": "--tau-im 0.8 --nu-re 0.3",
}
ERRORS = [
    "", "eval", "eval zeta", "check nope", "--help", "eval --help", "check --help",
    "eval theta --x-re 0.1", "eval An --x-re 0.1", "eval M --nu-re 0.2",
    "check euler-identity --x-re 0.5", "check M-pv --nu-re 0.3",
    "check binet74 --tau-im 1", "check M-pv --n-max 3", "check lambert72 --tol 1e-18",
    "eval li2 --x-re 0.4 --format xml", "sweep q-to-one --alpha -0.1",
    "sweep asym-table --alpha 0.2 --n-max 2 --nu-im 0.1",
    "sweep q-to-one --alpha 0.1 --alpha 0.05 --format json",
    "eval eta --tau-im -1", "eval G --tau-im 1 --nu-im -0.3",
    "check thm29 --tau-im 1 --nu-re 1.5", "check reflection34 --tau-im 1 --nu-re 0.3",
    "sweep asym-table --nu-re 1.5", "eval pochhammer-direct --x-re 0.5 --q-re 0.99999",
    "check thm29 --tau-im 1 --nu-re 1.5 --format csv", "eval li2 --x-im 0.5",
    "check reflection34 --tau-im 1 --nu-re 0.3 --format json", "eval M --tau-im 0.7",
    "sweep asym-table --alpha 0.2 --n-max 1 --nu-re 0 --format json",
    "check lambert72 --out missing-dir/x.txt", "check binet74 --format csv --out out.csv",
    "eval L1 --tau-im 1e-7 --nu-re 0.3", "eval pochhammer-euler --x-re 0.5 --q-re 0.99",
    "eval qgamma --x-re -1100.5 --q-re 0.5", "sweep asym-table --alpha 0.01 --n-max 65",
    "eval pochhammer-modular --tau-im 1e-5 --nu-im 3e-6",
    "sweep q-to-one --nu-im 0.3", "sweep q-to-one --n-max 3", "sweep asym-table --tau-im 0.5",
    "eval P --tau-im 1e-315 --nu-im 3e-316", "eval P --tau-im 1e-290 --nu-im 3e-291",
    "sweep asym-table --alpha 1e-300 --n-max 1",
    "eval L1 --tau-im 1e-290 --nu-im 0.1", "check lambert67 --tau-im 1e-290 --nu-im 3e-291",
    "eval L1 --tau-im 0.5 --nu-im -120", "check theta-modular --tau-im 0.005 --nu-re 0.9",
    "check ramanujan47 --tau-re=-0.0013111049688174091 --tau-im=0.01913712254960586"
    " --nu-re=-0.04414693914181593 --nu-im=-3.246979882040488",
    "eval pochhammer-modular --tau-re=0.0002454191184890434 --tau-im=6.447661933091511e-07"
    " --nu-re=-0.005777443348660566 --nu-im=-0.7564400693818488",
    "eval An --n-max 60 --x-im 6.28",
    # quantities past the double range: each refuses or passes, with no
    # traceback, hang or nan
    "eval G --tau-re=4.440559984842563e-272 --tau-im=1.5140664543916619e-236"
    " --nu-re=1.1355594229473587e+148 --nu-im=4.814114107658108e-98",
    "eval pochhammer-modular --tau-re=-5.489707017118916e-199"
    " --tau-im=3.2114591157830926e-206 --nu-im=-4.8915067140699364e+169",
    "check ramanujan47 --tau-re=8.73516764077239e-236 --tau-im=1.1790405006331972e-173"
    " --nu-re=6.6950069552429455e+75 --nu-im=-3.2426465330014203e+242",
    "check reflection34 --tau-re=2.8206271859099446e-180 --tau-im=2.1319461509394657e-300"
    " --nu-re=-6.516576474802377e+200 --nu-im=1.1498828467496991e-190",
    "check lambert68 --tau-re=-7.0767977082364526e-273 --tau-im=1.4983126626308668e-187"
    " --nu-re=4.1288413317930624e-162 --nu-im=2.68392110286965e+121",
    "eval P --tau-im 0.002 --nu-im 1e65",
    "eval M --tau-im=0.002181492215746612 --nu-re=1.4105281780783983e+72",
    "eval P --tau-im 1e20 --nu-im 0.1", "check stokes28 --tau-im 1e20 --nu-im 0.1",
    "check theta-modular --tau-im 1e200 --nu-im 0.1", "sweep asym-table --nu-im 1e5",
    "sweep asym-table --alpha 1e4 --n-max 36 --nu-re 0.3",
    "sweep asym-table --nu-re=3.3121127779992647e-261 --nu-im=1.1970481185785799e-51"
    " --n-max=34 --alpha=3.364665397899453e+174",
    "check binet75 --x-re=-15378.359443602436 --x-im=-5.361666034682061e-244",
    "check binet74 --x-re=-3.2494634273541285 --x-im=5.748565251512438",
    "check binet75 --x-re=-3.2494634273541285 --x-im=5.748565251512438",
    "check binet75 --x-re=-4 --x-im=5",
    # non-finite flags: a domain error that names the flag
    "eval An --n-max 3 --x-re inf", "eval pochhammer-direct --x-re nan --q-re 0.5",
    "check thm29 --tol nan", "sweep q-to-one --alpha 0.1 --alpha=-inf",
]

#: direct products long enough for numpy blocks (about 5e4 factors, and
#: |q| = 0.9975 off the real axis), one that ends on the smallest subnormal
#: and one that underflows to 0, one whose tail past 4,096 factors is a log
#: series, and one whose length needs the logs of its tail rule
PRODUCTS = [
    "--x-re 0.5 --q-re 0.999", "--x-re 0.5 --q-re 0.9 --q-im 0.43",
    "--x-re 0.5 --q-re 0.9999", "--x-re 0.9 --q-re 0.9999",
    "--x-re 0.3 --q-re 0.9999", "--x-re 1e308 --q-re 0.5",
]

#: modular points with nu between the branch cuts of Li_2 and G, at
#: Re tau > 0 and at Re tau < 0, and two past the cut Re nu = +-1
MODULAR = [
    "--tau-re 0.23982859142074187 --tau-im 2.6742701839441563"
    " --nu-re -0.011497320186277027 --nu-im -0.23487904553503003",
    "--tau-re -0.31927 --tau-im 0.17571 --nu-re 0.26394 --nu-im -0.2552",
    "--tau-re 0.1 --tau-im 0.3 --nu-re 1.3 --nu-im -0.2",
    "--tau-re -0.2 --tau-im 0.25 --nu-re -1.7 --nu-im -0.3",
]


def run(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is an outcome to compare too
            code = f"uncaught {type(exc).__name__}: {exc}"
    dump = f"$ qmod {' '.join(argv)}\n[exit {code}]\n--- stdout\n{out.getvalue()}"
    dump += f"--- stderr\n{err.getvalue()}"
    if "--out" in argv and os.path.exists(argv[-1]):
        with open(argv[-1], encoding="utf-8") as fh:
            dump += f"--- {argv[-1]}\n{fh.read()}"
    return dump


def main() -> int:
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    from qmod import cli

    cases = [f"check {t}" for t in cli.CHECK_TARGETS]
    cases += [f"sweep {t}" for t in cli.SWEEP_TARGETS]
    cases += [f"eval {t} {EVAL_POINTS[t]}" for t in cli.EVAL_TARGETS]
    cases = [f"{c} --format {f}" for c in cases for f in ("text", "json", "csv")]
    cases += [f"eval {t}" for t in cli.EVAL_TARGETS]
    cases += [f"check {t} {CHECK_POINTS.get(t, TN)}" for t in cli.CHECK_TARGETS]
    cases += ERRORS
    cases += [f"eval pochhammer-direct {p}" for p in PRODUCTS]
    cases += [f"eval pochhammer-modular {p}" for p in MODULAR]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for case in cases:
            sys.stdout.write(run(cli.main, case.split()))
    print(f"{len(cases)} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
