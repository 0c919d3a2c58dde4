"""Compare the benchmark census of two source trees, call by call.

Usage::

    python tools/census_diff.py OLD_SRC NEW_SRC [--seeds 201,202,203]
        [--workloads domain-fuzz,q-to-one] [--oracle] [--top 10]

OLD_SRC and NEW_SRC are ``src`` directories (or checkouts holding one).  For
every workload and seed, each tree makes the census of ``perfbench`` (every
call on every generated input, once, under its 1 s deadline) in a process of
its own, and records each call as its value or its exception.  The inputs come
from this checkout's ``perfbench``, imported read-only, so both trees see the
same calls.  The report gives, per workload and seed, the outcome counts of
both trees (value, or the exception's class), every call whose outcome
changed, and the calls whose value moved most.

With ``--oracle`` every changed call and every moved value is checked against
perfbench's mpmath oracle: outcomes read ok/wrong as in the benchmark, and each
moved value shows its relative error before and after.  Oracle values already
in ``perfbench/.cache/oracle.json`` are reused; none is written back.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _src(path: str) -> str:
    path = os.path.abspath(path)
    nested = os.path.join(path, "src")
    return nested if os.path.isdir(os.path.join(nested, "qmod")) else path


def dump(src: str, workload: str, seed: int) -> list[dict]:
    """The census of one tree: per call its route, oracle key and value or
    exception."""
    sys.path[:0] = [src, PERFBENCH]
    import importlib
    import types

    import outcome
    import workloads

    qm = types.SimpleNamespace(**{
        mod: importlib.import_module(f"qmod.{mod}")
        for mod in ("errors", "qcore", "raysum", "modularity", "cli")
    })
    qm.ModularPoint = qm.qcore.ModularPoint
    outcome.install()
    wl = {"domain-fuzz": workloads.DomainFuzz, "q-to-one": workloads.QToOne}[workload](
        seed, qm
    )
    calls: list = []
    wl.census(calls)
    rows = []
    for c in calls:
        kind, *args = c.key
        row = {"route": c.route, "key": [kind, *[[complex(a).real, complex(a).imag]
                                                  for a in args]]}
        if c.error is None:
            v = complex(c.value)
            row["value"] = [v.real, v.imag]
        else:
            row["error"] = f"{type(c.error).__name__}: {c.error}"
        rows.append(row)
    return rows


def _run_dump(src: str, workload: str, seed: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump", src, workload, str(seed)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def _outcome(row: dict) -> str:
    return "value" if "value" in row else row["error"].split(":", 1)[0]


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


class _Oracle:
    """perfbench's oracle values, from its cache when present, never saved."""

    def __init__(self):
        sys.path.insert(0, PERFBENCH)
        import oracle
        import workloads

        self.cache = oracle.Cache(os.path.join(PERFBENCH, ".cache", "oracle.json"))
        self.fns = workloads.ORACLES

    def error(self, row: dict) -> float | None:
        """Relative error of a call's value, None for an exception."""
        if "value" not in row:
            return None
        kind, *args = row["key"]
        ref = self.cache.get(kind, self.fns[kind], *[_complex(a) for a in args])
        value = _complex(row["value"])
        return abs(value - ref) / abs(ref) if ref != 0 else abs(value)


def _label(row: dict, oracle, rel_tol: float = 1e-8) -> str:
    out = _outcome(row)
    if oracle is None or out != "value":
        return out
    err = oracle.error(row)
    return "ok" if err == err and err <= rel_tol else "wrong"


def compare(old: list[dict], new: list[dict], oracle, top: int) -> list[str]:
    lines = []
    counts: dict[str, list[int]] = {}
    changed, moved = [], []
    for i, (a, b) in enumerate(zip(old, new)):
        if a["key"] != b["key"]:
            raise SystemExit(f"call {i}: the trees drew different inputs")
        for side, row in ((0, a), (1, b)):
            counts.setdefault(f"{row['route']} {_outcome(row)}", [0, 0])[side] += 1
        if _outcome(a) != _outcome(b):
            changed.append((i, a, b))
        elif "value" in a and a["value"] != b["value"]:
            va, vb = _complex(a["value"]), _complex(b["value"])
            moved.append((abs(vb - va) / max(abs(va), 1e-300), i, a, b))
    for name, (n_old, n_new) in sorted(counts.items()):
        lines.append(f"  {name}: {n_old} -> {n_new}")
    lines.append(f"  outcome changes: {len(changed)}")
    for i, a, b in changed:
        key = ", ".join(str(_complex(x)) for x in a["key"][1:])
        lines.append(
            f"    call {i} {a['route']} ({key}): {_label(a, oracle)} -> {_label(b, oracle)}"
            f"  [{b.get('error', b.get('value'))}]"
        )
    moved.sort(key=lambda m: -m[0])
    lines.append(f"  value moves: {len(moved)}")
    if oracle is not None and moved:
        errors = [(oracle.error(a), oracle.error(b)) for _, _, a, b in moved]
        closer = sum(eb < ea for ea, eb in errors)
        worse = [(eb - ea, m) for (ea, eb), m in zip(errors, moved) if eb - ea > 1e-14]
        lines.append(
            f"    closer to the oracle: {closer}, further: {len(moved) - closer} "
            f"(of which {len(worse)} off by more than 1e-14); largest error before "
            f"{max(e for e, _ in errors):.2e}, after {max(e for _, e in errors):.2e}"
        )
        for _, (_, i, a, b) in sorted(worse, key=lambda w: -w[0])[:top]:
            key = ", ".join(str(_complex(x)) for x in a["key"][1:])
            lines.append(
                f"    call {i} {a['route']} ({key}): oracle error "
                f"{oracle.error(a):.2e} -> {oracle.error(b):.2e}"
            )
    for rel, i, a, b in moved[:top]:
        key = ", ".join(str(_complex(x)) for x in a["key"][1:])
        extra = ""
        if oracle is not None:
            extra = f"; oracle error {oracle.error(a):.2e} -> {oracle.error(b):.2e}"
        lines.append(f"    call {i} {a['route']} ({key}): moved {rel:.2e}{extra}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--dump":
        _, src, workload, seed = argv
        json.dump(dump(src, workload, int(seed)), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seeds", default="201,202,203")
    parser.add_argument("--workloads", default="domain-fuzz,q-to-one")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args(argv)
    oracle = _Oracle() if args.oracle else None
    for workload in args.workloads.split(","):
        for seed in map(int, args.seeds.split(",")):
            print(f"{workload} seed {seed}")
            old = _run_dump(_src(args.old), workload, seed)
            new = _run_dump(_src(args.new), workload, seed)
            print("\n".join(compare(old, new, oracle, args.top)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
