"""Source hygiene: every name a cantorsurj module imports is used there or
re-exported through its __all__, and no module reads the environment, so
each answer is a function of its arguments alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorsurj"


def imported_names(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = used | exported_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in keep]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_stale_import():
    source = "from .a import b, c\nimport d.e\n__all__ = ['c']\n"
    assert unused_imports(source) == [("b", 1), ("d", 2)]
    assert unused_imports(source + "b(d)\n") == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_reads(source):
    """Lines naming os.environ, os.getenv, os.putenv or their kin, whether
    as attributes of a module or imported by name."""
    tree = ast.parse(source)
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            hits.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in ENVIRONMENT_NAMES for a in node.names):
            hits.add(node.lineno)
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_environment_read():
    source = "import os\nx = os.environ.get('A')\nfrom os import getenv\nos.putenv('B', '1')\ny = os.sep\n"
    assert environment_reads(source) == [2, 3, 4]
    assert environment_reads("import os\ny = os.path.join(os.sep, 'a')\n") == []
