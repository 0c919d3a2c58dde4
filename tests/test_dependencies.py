"""The package runs on numpy alone: no route, relation or CLI command
imports scipy (Gamma-type quantities come from specialfns.binet)."""

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
