"""The package runs on numpy alone: no route, relation or CLI command
imports scipy (Gamma-type quantities come from specialfns.binet).  The
benchmark's tracer patches qmod module attributes by name; those names
are part of the package's contract with it.  Every top-level function
or class of the package, and every method or property of its classes,
has a caller other than the tests."""

import ast
import glob
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
        "          raysum._taylor_table, raysum._poles)\n"
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


#: top-level names kept without a caller, one reason each
UNCALLED = {
    "q_gamma_modular": "Jackson's q-Gamma by the modular route, tested against "
    "mpmath as q -> 1; the planned log route (ROADMAP) rewrites it, not deletes it",
}


def _uses(node, owners=()):
    """(name, whether it is an attribute obj.name, the definitions around
    it) for every name and attribute in node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owners = (*owners, node.name)
    if isinstance(node, ast.Name):
        yield node.id, False, owners
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, owners
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, owners)


def test_every_src_function_has_a_caller():
    # every top-level function or class in src/qmod is used outside its own
    # definition: by some src/qmod module, by qmod.__all__, or by the
    # benchmark tracer's patch list; an import alone is not a use.  Every
    # method or property of a class (dunders aside) is read as an
    # attribute obj.name outside its own definition, or is in one of the
    # two lists
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    defined = []  # (module, owners): (name,) or (class, member)
    uses = []
    for path in glob.glob(os.path.join(root, "src", "qmod", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, (stmt.name,)))
            if isinstance(stmt, ast.ClassDef):
                defined.extend(
                    (module, (stmt.name, member.name))
                    for member in stmt.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("__")
                )
        uses.extend(_uses(tree))
    named = set(qmod.__all__)
    with open(os.path.join(root, "perfbench", "tracing.py"), encoding="utf-8") as fh:
        tracing_tree = ast.parse(fh.read())
    for node in ast.walk(tracing_tree):
        # the patch entries (module, "attr", "traced name")
        if isinstance(node, ast.Tuple) and len(node.elts) == 3:
            attr = node.elts[1]
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                named.add(attr.value)

    def used(owners):
        name = owners[-1]
        return name in named or any(
            use == name and (attr or len(owners) == 1) and around[: len(owners)] != owners
            for use, attr, around in uses
        )

    uncalled = sorted(
        f"{module}:{'.'.join(owners)}" for module, owners in defined
        if owners[-1] not in UNCALLED and not used(owners)
    )
    assert not uncalled, uncalled
    assert set(UNCALLED) <= {owners[-1] for _, owners in defined}
