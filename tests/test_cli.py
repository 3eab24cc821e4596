"""``repro``'s flags read their config fields instead of restating them.

A flag that sets a config field takes its default, type and allowed
values from the field (``cli._config_flag``); every other ``choices`` is
a library constant.  Two defaults differ from their field on purpose,
named in ``CLI_ONLY_DEFAULTS``.
"""

from __future__ import annotations

import argparse
import ast
import inspect
from dataclasses import fields

import pytest

import repro.cli as cli
import repro.fleet
import repro.serve
from repro.experiments.config import PROFILES
from repro.fleet import FleetConfig
from repro.retrain import RetrainConfig
from repro.retrain.loop import TRIGGERS
from repro.serve import ServeConfig
from repro.serve.loadgen import LOAD_PATTERNS
from repro.telemetry import MODES
from repro.utils.validation import FIELD_TYPES

#: The configs whose fields each walked parser's flags set, by the
#: parser variable ``build_parser`` adds them to.
CONFIGS = {
    ("serve", "run"): ("p_run", (ServeConfig, FleetConfig, RetrainConfig)),
    ("replay",): ("p_replay", ()),
    ("retrain",): ("p_retrain", (RetrainConfig,)),
    ("experiments",): ("p_exp", ()),
}
#: Flags whose default deliberately differs from their field's.
CLI_ONLY_DEFAULTS = {("serve", "run", "--shards"), ("retrain", "--period")}
#: The allowed values of flags that set no config field, and of
#: ``--retrain-trigger``, which leaves out the API-only ``manual``.
LIBRARY_CHOICES = {
    "artifact": cli._ARTIFACTS,
    "--profile": PROFILES,
    "--telemetry": MODES,
    "--pattern": LOAD_PATTERNS,
    "--retrain-trigger": tuple(t for t in TRIGGERS if t != "manual"),
}


def _scalar_field(configs, dest: str):
    """The first scalar field named ``dest`` among ``configs``, or None."""
    for cls in configs:
        for f in fields(cls):
            if f.name == dest and (f.type in FIELD_TYPES
                                   or f.type.strip("'") == "str | None"):
                return f
    return None


def _subparser(path: "tuple[str, ...]") -> argparse.ArgumentParser:
    parser = cli.build_parser()
    for name in path:
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


@pytest.mark.parametrize("path", list(CONFIGS), ids=" ".join)
def test_flags_read_their_config_fields(path):
    _, configs = CONFIGS[path]
    backed = 0
    for action in _subparser(path)._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        name = action.option_strings[0] if action.option_strings else action.dest
        f = _scalar_field(configs, action.dest)
        if f is None:
            if action.choices is not None:
                assert list(action.choices) == list(LIBRARY_CHOICES[name]), name
            continue
        backed += 1
        if (*path, name) not in CLI_ONLY_DEFAULTS:
            assert action.default == f.default, name
        if f.type == "bool":
            assert isinstance(action, argparse._StoreTrueAction), name
            continue
        assert action.type is FIELD_TYPES.get(f.type), name
        choices = LIBRARY_CHOICES.get(name, f.metadata.get("choices"))
        assert (action.choices is None) == (choices is None), name
        if choices is not None:
            assert list(action.choices) == list(choices), name
    assert backed == {("serve", "run"): 22, ("retrain",): 3}.get(path, 0)


def test_cli_declares_no_config_fact_of_its_own():
    """No ``choices=`` literal; no ``default=``/``type=`` on a config-backed
    flag but the named exceptions; no config-backed flag bypasses
    ``_config_flag``."""
    owners = dict(CONFIGS.values())
    cli_only = {flag for *_, flag in CLI_ONLY_DEFAULTS}
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        if func not in ("add_argument", "_config_flag"):
            continue
        flag = node.args[1 if func == "_config_flag" else 0]
        if not isinstance(flag, ast.Constant):
            continue  # the helper's own add_argument
        flag, kws = flag.value, {k.arg: k.value for k in node.keywords}
        assert not isinstance(kws.get("choices"), (ast.List, ast.Tuple, ast.Set, ast.Dict)), flag
        if func == "_config_flag":
            assert not {"default", "type"} & set(kws) or flag in cli_only, flag
            continue
        receiver = getattr(node.func.value, "id", "")
        dest = kws["dest"].value if "dest" in kws else flag.lstrip("-").replace("-", "_")
        assert _scalar_field(owners.get(receiver, ()), dest) is None, (
            f"{flag} sets a config field: declare it with _config_flag")


class _Built(Exception):
    pass


def test_serve_run_without_flags_builds_the_default_config(monkeypatch):
    built = []

    def capture(config, **_):
        built.append(config)
        raise _Built

    monkeypatch.setattr(repro.serve, "build_platform", capture)
    with pytest.raises(_Built):
        cli.main(["serve", "run"])
    assert built == [ServeConfig()]


def test_serve_run_shards_builds_the_default_fleet(monkeypatch):
    built = []

    def capture(config, **_):
        built.append(config)
        raise _Built

    monkeypatch.setattr(repro.fleet, "FleetController", capture)
    with pytest.raises(_Built):
        cli.main(["serve", "run", "--shards", "2"])
    assert built == [FleetConfig(n_shards=2)]
