"""Fresh-process import tests: catch package-level import cycles.

Cycles can hide under pytest (earlier imports break the cycle) and only
explode in fresh interpreters — exactly how a `python -m repro...` run
fails while the test suite stays green.  Every module under ``repro`` is
imported first in a process that has never imported ``repro``: a child
forked from one warm interpreter that holds the third-party imports only.

A submodule that its package's own import already loads gets no fork of
its own: ``import pkg.mod`` runs ``pkg/__init__`` first, so when that
loads ``pkg.mod`` the two fresh imports execute the same sequence, and
the package's result stands for both.
"""

from __future__ import annotations

import json
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = ["repro"] + [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith(".__main__")  # importing it is `python -m repro`
]

_SERVER = r"""
import importlib, json, os, sys, traceback

def forked_import(names):
    '''Import ``names`` in a forked child -> ({name: traceback}, its sys.modules).'''
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        errors = {}
        for name in names:
            try:
                importlib.import_module(name)
            except BaseException:
                errors[name] = traceback.format_exc()
        with os.fdopen(w, "w") as fh:
            json.dump([errors, sorted(sys.modules)], fh)
        os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        reply = json.load(fh)
    os.waitpid(pid, 0)
    return reply

names = json.loads(sys.argv[1])
# Warm up on what repro imports from outside itself, so a child pays for
# repro's own modules only; this process never imports repro.
for mod in forked_import(names)[1]:
    if mod.partition(".")[0] != "repro":
        try:
            importlib.import_module(mod)
        except BaseException:
            pass
assert "repro" not in sys.modules
results = {}
for name in names:  # walk order: a package comes before its submodules
    if name in results:
        continue
    errors, loaded = forked_import([name])
    results[name] = errors.get(name)
    if not errors:
        for sub in loaded:
            if sub.startswith(name + "."):
                results.setdefault(sub, None)
json.dump(results, sys.stdout)
"""


@pytest.fixture(scope="module")
def fresh_imports() -> "dict[str, str | None]":
    proc = subprocess.run(
        [sys.executable, "-c", _SERVER, json.dumps(MODULES)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"import server failed:\n{proc.stderr}"
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", MODULES)
def test_fresh_process_import(module, fresh_imports):
    error = fresh_imports[module]
    assert error is None, f"importing {module} failed:\n{error}"
