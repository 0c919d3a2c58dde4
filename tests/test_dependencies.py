"""The package runs on numpy alone: no route, relation or CLI command
imports scipy (Gamma-type quantities come from specialfns.binet).  The
benchmark's tracer patches qmod module attributes by name; those names
are part of the package's contract with it."""

import os
import subprocess
import sys

import qmod

CODE = """
import contextlib, io, sys
from qmod import cli
from qmod.modularity import (
    lambert_relation_residuals, qpochhammer_modular, ramanujan_completed,
)
from qmod.qcore import ModularPoint

p = ModularPoint(0.1 + 0.5j, 0.1 + 0.2j)
qpochhammer_modular(p)
ramanujan_completed(p)
lambert_relation_residuals(ModularPoint(1j, 0.2j), 67)
lambert_relation_residuals(ModularPoint(1j, 0.2j), 68)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["eval", "pochhammer-modular", "--tau-im", "0.5", "--nu-im", "0.1"])
assert code == 0, code
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_no_scipy_import():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmod.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", CODE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_patches_every_name(monkeypatch):
    from qmod import cli, modularity, qcore, raysum

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import tracing

    original = modularity.qpochhammer_with_count
    tracer = tracing.Tracer()
    tracing.install(tracer, qcore, raysum, modularity, cli)
    try:
        assert modularity.qpochhammer_with_count is not original
        modularity.qpochhammer_modular(qcore.ModularPoint(0.5j, 0.1 + 0.15j))
    finally:
        tracer.close()
    assert modularity.qpochhammer_with_count is original
    assert {s.name for s in tracer.spans} >= {
        "modularity.qpochhammer_modular", "raysum.P_minus", "raysum.choose_ray",
    }


def test_series_tables_are_built_on_first_use():
    # importing qmod builds none of the divergent series' tables
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmod.__file__)))
    code = (
        "import qmod.cli\n"
        "from qmod import raysum\n"
        "caches = (raysum._series_constants, raysum._coth_poly, raysum._coth_derivative,\n"
        "          raysum._taylor_coefficients, raysum._poles)\n"
        "print([c.cache_info().currsize for c in caches])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0,", "0,", "0]"]
