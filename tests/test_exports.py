"""Every exported name resolves and is defined where it is exported, so a
deleted function cannot linger as a stale export."""

import ast
import importlib
import inspect
import pkgutil

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


def test_package_exports_resolve_to_their_defining_module():
    for attr in cantorsurj.__all__:
        obj = getattr(cantorsurj, attr)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("cantorsurj.") and getattr(home, attr) is obj
