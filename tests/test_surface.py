"""``src/repro`` holds only what a non-test caller reaches.

Every public top-level function or class under ``src/repro`` must be
referenced (as a name, an attribute or an import alias; strings and
package ``__init__`` re-exports do not count) by some file under
``src/repro``, ``benchmarks/`` or ``examples/``.  A name only tests use
is deleted with those tests, unless it is listed here with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

ALLOWED = {
    "solve_bruteforce": "reference enumeration tests/test_matching_solvers.py holds branch-and-bound to",
    "kkt_jacobians": "dense Eq.-15 Jacobians tests/test_matching_gradients.py holds kkt_vjp to",
    "he_uniform": "reached by string key: MLP passes init='he_uniform' to Linear's getattr lookup",
    "xavier_uniform": "reached by string key: MLP's initializer for a non-ReLU activation",
    "load_trace": "workloads/io.py is the one door for measured platform traces; no such data is committed yet",
    "trace_to_datasets": "second half of that door: turns a loaded trace into per-cluster training sets",
}


def _scan() -> tuple[dict[str, str], set[str]]:
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for top in (SRC, ROOT / "benchmarks", ROOT / "examples"):
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text())
            if top is SRC:
                for node in tree.body:
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                        defined[node.name] = str(path.relative_to(ROOT))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias) and path.name != "__init__.py":
                    referenced.add(node.name.rpartition(".")[2])
    return defined, referenced


def test_every_public_name_has_a_non_test_caller():
    defined, referenced = _scan()
    unreached = {name: where for name, where in defined.items()
                 if name not in referenced and name not in ALLOWED}
    assert not unreached, f"public names no file under src/, benchmarks/ or examples/ references: {unreached}"
    stale = {name for name in ALLOWED if name not in defined or name in referenced}
    assert not stale, f"allow-list entries that are gone or now have a caller: {stale}"
    assert len(ALLOWED) <= 10
