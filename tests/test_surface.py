"""``src/repro`` holds only what a caller reaches, and only the options a
caller sets.

Names: every public top-level function or class under ``src/repro`` must
be referenced (as a name, an attribute or an import alias; strings and
package ``__init__`` re-exports do not count) by some file under
``src/repro``, ``benchmarks/`` or ``examples/``.  A name only tests use
is deleted with those tests, unless it is listed here with its reason.

Options: every defaulted parameter of a public function, public method or
constructor, and every defaulted field of a ``*Config`` / ``*Spec``
dataclass (``ModelSpec``, a data record, left out), must be set by some
call under those three directories or ``tests/`` — by keyword, by enough
positionals, or through ``dataclasses.replace`` / ``with_overrides`` /
``default_config(**overrides)``.  Calls match by name; ``cls(...)`` and
``super().__init__(...)`` resolve to the enclosing class, and a subclass
without a constructor passes its calls on to its base.  An option nobody
sets becomes a constant, unless ``OPTION_ALLOWED`` gives its reason.  The
options only a test sets may not grow past ``TEST_ONLY_OPTIONS``.
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
                    # ``np.sqrt`` is NumPy's, not a reference to ``nn.ops.sqrt``.
                    if not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
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


# --------------------------------------------------------------------- #
# Options.
# --------------------------------------------------------------------- #

OPTION_ALLOWED = {
    "MetricsServer.host": "deployment setting: the interface the metrics endpoint binds",
    "fetch_snapshot.timeout": "deployment setting: HTTP timeout of the dashboard's scrape",
}

#: Calls whose keywords name fields of the config they copy.
_REPLACERS = ("replace", "with_overrides", "default_config")


def _name(node: ast.expr) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _signature(fn: ast.FunctionDef, bound: bool) -> "list[tuple[str, int | None, bool]]":
    """``(name, positional index or None for keyword-only, has a default)``."""
    positional = (fn.args.posonlyargs + fn.args.args)[int(bound):]
    first_default = len(positional) - len(fn.args.defaults)
    params = [(a.arg, i, i >= first_default) for i, a in enumerate(positional)]
    params += [(a.arg, None, d is not None)
               for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)]
    return params


def _fields(cls: ast.ClassDef, options: bool) -> "list[tuple[str, int | None, bool]]":
    """A dataclass's generated constructor; fields of a plain record are not options."""
    out = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value, default = stmt.value, stmt.value is not None
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            kws = {k.arg: k.value for k in value.keywords}
            if isinstance(kws.get("init"), ast.Constant) and kws["init"].value is False:
                continue
            default = "default" in kws or "default_factory" in kws
        out.append((stmt.target.id, len(out), default and options))
    return out


def _definitions():
    """``(functions, classes)``: name -> [(label, signature)] of public functions and
    methods; class name -> (bases, constructor signature or None, is a config)."""
    functions: "dict[str, list]" = {}
    classes: "dict[str, tuple]" = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions.setdefault(node.name, []).append((node.name, _signature(node, False)))
            if not isinstance(node, ast.ClassDef):
                continue
            config = (_is_dataclass(node) and node.name.endswith(("Config", "Spec"))
                      and node.name != "ModelSpec")
            ctor = _fields(node, config) if _is_dataclass(node) else None
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                decorators = {_name(d) for d in fn.decorator_list}
                if fn.name == "__init__":
                    ctor = _signature(fn, True)
                elif not (fn.name.startswith("_") or node.name.startswith("_")
                          or decorators & {"property", "setter"}):
                    functions.setdefault(fn.name, []).append(
                        (f"{node.name}.{fn.name}", _signature(fn, "staticmethod" not in decorators)))
            classes[node.name] = ([_name(b) for b in node.bases], ctor, config)
    return functions, classes


def _calls(classes: dict, callers) -> "tuple[dict[str, list], set[str]]":
    """name -> [(positional count, keywords)] over every file under
    ``callers``, and the keywords of the ``_REPLACERS`` calls."""
    calls: "dict[str, list]" = {}
    replaced: "set[str]" = set()

    def visit(node: ast.AST, cls: "str | None") -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                npos = sum(not isinstance(a, ast.Starred) for a in child.args)
                kws = {k.arg for k in child.keywords if k.arg}
                names = [_name(f)]
                if names[0] in _REPLACERS:
                    replaced.update(kws)
                if isinstance(f, ast.Name) and f.id == "cls" and cls:
                    names = [cls]
                elif names[0] == "partial" and child.args:
                    names, npos = [_name(child.args[0])], npos - 1
                elif names[0] == "__init__" and cls and _name(getattr(f.value, "func", f)) == "super":
                    names = classes[cls][0] if cls in classes else []
                for name in names:
                    calls.setdefault(name, []).append((npos, kws))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    for top in callers:
        for path in sorted(top.rglob("*.py")):
            visit(ast.parse(path.read_text()), None)
    return calls, replaced


#: Where the option scan looks for calls: the program, then its tests.
CALLERS = (SRC, ROOT / "benchmarks", ROOT / "examples", ROOT / "tests")


def _option_scan(callers=CALLERS) -> "tuple[list[str], list[str]]":
    """``(every option, the ones no call under callers sets)`` as ``Owner.param``."""
    functions, classes = _definitions()
    calls, replaced = _calls(classes, callers)

    def owner(name: "str | None") -> "str | None":
        """The class up the (single-inheritance) chain that declares the constructor."""
        while name in classes and classes[name][1] is None:
            name = next((b for b in classes[name][0] if b in classes), None)
        return name if name in classes else None

    sites: "dict[str, list]" = {}
    for name in classes:
        if owner(name):
            sites.setdefault(owner(name), []).extend(calls.get(name, []))
    targets = [(name, ctor, sites.get(name, []), config)
               for name, (_, ctor, config) in classes.items()
               if ctor is not None and not name.startswith("_")]
    targets += [(label, signature, calls.get(name, []), False)
                for name, overloads in functions.items() for label, signature in overloads]
    options, unset = [], []
    for label, signature, where, config in targets:
        for param, index, default in signature:
            if not default:
                continue
            options.append(f"{label}.{param}")
            if not (any(param in kws or (index is not None and npos > index)
                        for npos, kws in where)
                    or (config and param in replaced)):
                unset.append(options[-1])
    return options, unset


def test_every_option_is_set_by_some_caller():
    options, unset = _option_scan()
    dead = sorted(set(unset) - set(OPTION_ALLOWED))
    assert not dead, (
        f"{len(dead)} of {len(options)} options no call under src/, benchmarks/, "
        f"examples/ or tests/ sets: {dead}")
    stale = sorted(set(OPTION_ALLOWED) - set(unset))
    assert not stale, f"allow-list entries that are gone or now have a caller: {stale}"
    assert len(OPTION_ALLOWED) <= 15


#: Options only a test sets (the scan without ``tests/`` minus the scan with
#: it).  The count may fall, never rise: a new option needs a caller in the
#: program, and one that loses its last such caller goes or becomes a constant.
TEST_ONLY_OPTIONS = 31


def test_options_set_only_by_tests_do_not_grow():
    _, unset = _option_scan()
    _, unset_by_program = _option_scan(CALLERS[:-1])
    test_only = sorted(set(unset_by_program) - set(unset))
    assert len(test_only) <= TEST_ONLY_OPTIONS, (
        f"{len(test_only)} options are set only by tests "
        f"(at most {TEST_ONLY_OPTIONS}): {test_only}")
