"""Every exported name resolves and is defined where it is exported, so a
deleted function cannot linger as a stale export; every exported function
is called by the program, not by the tests alone; the package root exports
its library modules and no other name."""

import ast
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cantorsurj

MODULES = sorted(m.name for m in pkgutil.iter_modules(cantorsurj.__path__) if m.name != "__main__")


def _top_level_definitions(module) -> set[str]:
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_defined_there(name):
    module = importlib.import_module(f"cantorsurj.{name}")
    exported = getattr(module, "__all__", [])
    assert all(hasattr(module, attr) for attr in exported)
    assert set(exported) <= _top_level_definitions(module)


def test_package_root_lists_exactly_the_library_modules():
    assert sorted(cantorsurj.__all__) == [name for name in MODULES if name != "cli"]
    assert all(getattr(cantorsurj, name).__name__ == f"cantorsurj.{name}" for name in cantorsurj.__all__)


def _span_layers() -> tuple[str, ...]:
    """perfbench's SPAN_LAYERS, read from its source."""
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    for node in ast.parse(tracing.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPAN_LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPAN_LAYERS")


def test_importing_the_root_loads_every_traced_layer():
    # the benchmark's tracer does `import cantorsurj` and then reads these
    # modules from sys.modules; the root binds modules and nothing else
    probe = (
        "import json, sys, types, cantorsurj\n"
        "names = [k for k, v in vars(cantorsurj).items() if not k.startswith('_')]\n"
        "print(json.dumps([sorted(sys.modules), "
        "sorted(k for k in names if not isinstance(getattr(cantorsurj, k), types.ModuleType))]))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True)
    loaded, not_modules = json.loads(out.stdout)
    assert not_modules == []
    assert {f"cantorsurj.{name}" for name in ("points", *_span_layers())} <= set(loaded)


# documented for replaying a counterexample dump from a Python session
CALLED_FROM_OUTSIDE = {("verify", "replay")}


def _program_references() -> set[str]:
    """Every name a Name or Attribute node reads in the program: the
    package, its scripts and the benchmark; the tests are not the program."""
    repo = Path(__file__).resolve().parent.parent
    names = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (repo / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_exported_function_is_called_by_the_program():
    used = _program_references()
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"cantorsurj.{name}")
        for attr in getattr(module, "__all__", []):
            if inspect.isfunction(getattr(module, attr)) and attr not in used:
                unused.append((name, attr))
    assert set(unused) == CALLED_FROM_OUTSIDE
