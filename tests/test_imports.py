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

``TestImportFootprint`` keeps serving, fleet and training processes
NumPy-only: neither importing the serving stack nor a short soak and one
MFCP-AD and one MFCP-FG epoch loads scipy or networkx, and no module
imports a third-party package other than numpy at module level.
"""

from __future__ import annotations

import ast
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

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


# --------------------------------------------------------------------- #
# Import footprint: the serving, fleet and training stack is NumPy-only.
# --------------------------------------------------------------------- #

SRC = Path(repro.__file__).resolve().parent.parent
#: What a serving, fleet, retraining or CLI process imports.
SERVING_STACK = ("repro.serve", "repro.fleet", "repro.retrain", "repro.monitor",
                 "repro.methods", "repro.workloads", "repro.cli")
#: Top-level packages that stay out of those processes (scipy is imported
#: inside the few functions that call it; networkx only by tests).
FOREIGN = ("scipy", "networkx")
#: The HTTP stack (and what it drags in): only a process that serves
#: ``/metrics`` or runs ``serve top`` loads it.
HTTP_STACK = ("http.server", "http.client", "urllib.request", "ssl", "email",
              "socketserver")
#: The one third-party package a module under ``src/repro`` may import at
#: module level.
MODULE_LEVEL_THIRD_PARTY = {"numpy"}

_FOOTPRINT = r"""
import importlib, json, sys

names, run, foreign = json.loads(sys.argv[1])

def loaded():
    return sorted(m for m in sys.modules
                  if any(m == f or m.startswith(f + ".") for f in foreign))

for name in names:
    importlib.import_module(name)
report = {"import": loaded()}
if run == "closed_loop":
    # A short soak with every observer on: monitor, periodic retraining
    # into a registry, full journeys and a JSONL run log.
    import contextlib, tempfile
    from repro.monitor import MonitorConfig
    from repro.retrain import RetrainConfig
    from repro.serve import ServeConfig, build_platform
    from repro.telemetry.recorder import Recorder
    from repro.utils.rng import as_generator

    config = ServeConfig(
        pool_size=24, train_epochs=4, max_batch=8, journey_sample=1.0,
        monitor=MonitorConfig(sample_every=5),
        retrain=RetrainConfig(trigger="periodic", period_windows=6, min_labels=16,
                              min_cluster_labels=4, epochs=2, steps_per_window=32))
    with tempfile.TemporaryDirectory() as root:
        platform = build_platform(config, registry_root=root)
        events = platform.load("poisson", 30.0).draw(4.0, as_generator(3))
        recorder = Recorder("jsonl", run="soak", out_dir=root)
        with recorder.activate():
            platform.run(events)
        with contextlib.redirect_stdout(sys.stderr):  # the run summary
            recorder.close()
    report["run"] = loaded()
elif run:
    # A short soak, then one batched MFCP-AD and one MFCP-FG epoch, each
    # scored by deployment regret on a held-out round.
    import numpy as np
    from repro.methods import MFCP, FitContext, MatchSpec, MFCPConfig
    from repro.clusters import make_setting
    from repro.metrics.regret import regret
    from repro.predictors.training import TrainConfig
    from repro.serve import Dispatcher, ServeConfig, build_stack, make_load
    from repro.utils.rng import as_generator

    config = ServeConfig(pool_size=24, train_epochs=4)
    pool, clusters, method, spec, dcfg = build_stack(config)
    events = make_load("poisson", pool, 30.0).draw(1.0, as_generator(config.seed + 3))
    Dispatcher(clusters, method, spec, dcfg).run(events, rng=config.seed + 4)
    train, test = pool.split(0.6, rng=1)
    setting = make_setting("A")
    held_out = MatchSpec().build_problem(
        np.stack([c.true_times(test[:5]) for c in setting]),
        np.stack([c.true_reliabilities(test[:5]) for c in setting]))
    mfcp = MFCPConfig(epochs=1, pretrain=TrainConfig(epochs=2), validation_rounds=0)
    for gradient in ("analytic", "forward"):
        ctx = FitContext.build(setting, train, MatchSpec(), rng=2)
        regret(held_out, *MFCP(gradient, mfcp).fit(ctx).predict(test[:5]))
    report["run"] = loaded()
json.dump(report, sys.stdout)
"""


def _footprint(src: Path, names, *, run: "bool | str",
               foreign: "tuple[str, ...]" = FOREIGN) -> dict:
    """Modules in (or under) ``foreign`` a fresh process holds after
    importing ``names`` (and, with ``run``, after serving and training;
    with ``run="closed_loop"``, after a soak with every observer on) from
    ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps([list(names), run, foreign])],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, f"footprint child failed:\n{proc.stderr}"
    return json.loads(proc.stdout)


def _import_time_packages(source: str) -> "set[str]":
    """Top-level packages a module's source imports when it runs: every
    absolute import outside function bodies."""
    found, stack = set(), list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _module_level_third_party(package: Path) -> "dict[str, set[str]]":
    """``{module path: third-party packages it imports at module level}``
    beyond :data:`MODULE_LEVEL_THIRD_PARTY`."""
    allowed = set(sys.stdlib_module_names) | {"repro"} | MODULE_LEVEL_THIRD_PARTY
    out = {}
    for path in sorted(package.rglob("*.py")):
        extra = _import_time_packages(path.read_text()) - allowed
        if extra:
            out[str(path.relative_to(package))] = extra
    return out


@pytest.fixture()
def planted_src(tmp_path) -> Path:
    """A copy of the package with a module-level ``import scipy.stats``
    planted in ``metrics/calibration.py``."""
    shutil.copytree(SRC / "repro", tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    calibration = tmp_path / "repro" / "metrics" / "calibration.py"
    source = calibration.read_text()
    calibration.write_text(source.replace(
        "\nimport numpy as np\n", "\nimport numpy as np\nimport scipy.stats\n", 1))
    assert calibration.read_text() != source
    return tmp_path


class TestImportFootprint:
    def test_serving_stack_imports_and_runs_without_scipy_or_networkx(self):
        report = _footprint(SRC, SERVING_STACK, run=True)
        assert report == {"import": [], "run": []}

    def test_serving_stack_and_closed_loop_load_no_http_stack(self):
        report = _footprint(SRC, ("repro.serve", "repro.fleet", "repro.monitor",
                                  "repro.retrain"),
                            run="closed_loop", foreign=HTTP_STACK)
        assert report == {"import": [], "run": []}

    def test_only_numpy_is_imported_at_module_level(self):
        assert _module_level_third_party(SRC / "repro") == {}

    def test_planted_module_level_scipy_import_fails_the_guard(self, planted_src):
        assert _module_level_third_party(planted_src / "repro") == {
            "metrics/calibration.py": {"scipy"}}
        report = _footprint(planted_src, SERVING_STACK, run=True)
        assert "scipy.stats" in report["run"]
