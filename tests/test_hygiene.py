"""Source hygiene: every name a cantorsurj module imports is used there or
re-exported through its __all__, no module reads the environment, so
each answer is a function of its arguments alone, and the unvalidated
BoundaryTuple constructor is used only at the sites a lemma covers, and
never by the verification suite, which checks what it is handed.  Callers
outside the package take each name from its defining module, never from
the package root, which holds modules only.  No module asks which
representation a surjection has: each answers through the interface.
README's module table has one row per module."""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "cantorsurj"


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


# the calls of the unvalidated BoundaryTuple constructor, each where a lemma
# gives validity (named in a comment at the call)
TRUSTED_SITES = {
    ("intervals.py", "Surjection.boundary_tuple"),
    ("surjections.py", "tuple_to_factors"),
    ("experiments.py", "_realize"),
}


def trusted_uses(name, source):
    """(module, qualified function) of every reference to trusted_tuple
    outside its own definition and the imports: calls, and aliases too."""
    hits = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == "trusted_tuple") or (
                isinstance(child, ast.Attribute) and child.attr == "trusted_tuple"
            ):
                hits.add((name, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(source), ())
    return hits


def forbidden(site):
    """A decoder, the CLI, or the validating constructor itself."""
    module, scope = site
    return module == "cli.py" or scope.split(".")[-1] == "from_json" or scope == "BoundaryTuple.__post_init__"


def test_trusted_tuple_is_used_only_at_lemma_sites():
    uses = set().union(*(trusted_uses(p.name, p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")))
    assert not any(map(forbidden, uses))
    assert uses == TRUSTED_SITES


def test_the_check_sees_a_trusted_decoder():
    source = (
        "from .intervals import trusted_tuple\n"
        "class BoundaryTuple:\n"
        "    @classmethod\n"
        "    def from_json(cls, obj):\n"
        "        return trusted_tuple(obj['b'], obj['depth'], obj['entries'])\n"
        "def decode(obj):\n"
        "    make = intervals.trusted_tuple\n"
        "    return make(*obj)\n"
    )
    uses = trusted_uses("intervals.py", source)
    assert uses == {("intervals.py", "BoundaryTuple.from_json"), ("intervals.py", "decode")}
    assert forbidden(("intervals.py", "BoundaryTuple.from_json")) and forbidden(("cli.py", "_cmd_factor"))
    assert not forbidden(("intervals.py", "decode"))


UNVALIDATED = {"trusted_tuple", "canonical_point", "canonical_points", "_new"}


def unvalidated_names(source):
    """Lines naming a constructor that skips validation, whether called,
    aliased, reached as an attribute or imported."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(a.name in UNVALIDATED for a in node.names):
            hits.add(node.lineno)
        elif (isinstance(node, ast.Name) and node.id in UNVALIDATED) or (
            isinstance(node, ast.Attribute) and node.attr in UNVALIDATED
        ):
            hits.add(node.lineno)
    return sorted(hits)


def test_the_suite_names_no_unvalidated_constructor():
    assert unvalidated_names((SRC / "verify.py").read_text(encoding="utf-8")) == []


def test_the_check_sees_a_trusted_witness_in_the_suite():
    source = (SRC / "verify.py").read_text(encoding="utf-8").replace(
        "validate_level(rep.base, rep.k, w.points).ok",
        "trusted_tuple(rep.base, rep.k, w.points).entries",
    )
    assert "def _oscillation_predicate" in source and "trusted_tuple(rep.base" in source
    assert len(unvalidated_names(source)) == 1
    assert unvalidated_names("from .points import canonical_points as cps\ny = points.canonical_point\n") == [1, 2]
    assert unvalidated_names("from .points import _new\n") == [1]


MODULE_NAMES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
CALLERS = sorted(p for d in ("tests", "scripts", "perfbench") for p in (REPO / d).glob("*.py"))


def root_name_uses(source):
    """Lines taking a name other than a module from the package root, by
    `from cantorsurj import X` or as the attribute `cantorsurj.X`."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "cantorsurj":
            if any(a.name not in MODULE_NAMES for a in node.names):
                hits.add(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cantorsurj"
            and not node.attr.startswith("__")
            and node.attr not in MODULE_NAMES
        ):
            hits.add(node.lineno)
    return sorted(hits)


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_callers_import_names_from_their_defining_module(path):
    assert root_name_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_name_taken_from_the_root():
    source = (
        "from cantorsurj import experiments, verify\n"
        "from cantorsurj import Point\n"
        "import cantorsurj\n"
        "import cantorsurj.surjections as sj\n"
        "x = cantorsurj.compose(sj.identity(2), cantorsurj.surjections.identity(2))\n"
        "y = cantorsurj.__all__\n"
        "from cantorsurj.points import Point\n"
    )
    assert root_name_uses(source) == [2, 5]


REPRESENTATIONS = {"Filtering", "ChainSurjection", "Surjection"}


def representation_checks(source):
    """Lines asking isinstance or issubclass whether a value is one of the
    surjection classes, named alone or in a tuple, bare or as an attribute."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) == 2):
            continue
        if node.func.id not in ("isinstance", "issubclass"):
            continue
        spec = node.args[1]
        classes = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        if any(getattr(c, "id", getattr(c, "attr", None)) in REPRESENTATIONS for c in classes):
            hits.add(node.lineno)
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_asks_which_representation_it_holds(path):
    # every surjection answers through the interface: maps, support
    assert representation_checks(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_representation_test():
    source = (
        "if isinstance(h, Filtering) and not h.levels:\n"
        "    pass\n"
        "maps = h.maps if isinstance(h, surjections.ChainSurjection) else (h,)\n"
        "ok = isinstance(h, (dict, Surjection))\n"
        "sub = issubclass(type(h), Filtering)\n"
        "fine = isinstance(obj, dict) or isinstance(x, int)\n"
    )
    assert representation_checks(source) == [1, 3, 4, 5]


def readme_module_rows(text):
    """The modules named in the first cell of a README table row."""
    return set(re.findall(r"^\| `cantorsurj\.(\w+)` \|", text, re.MULTILINE))


def test_readme_table_has_a_row_per_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert readme_module_rows((REPO / "README.md").read_text(encoding="utf-8")) == modules


def test_the_check_sees_a_missing_row():
    assert readme_module_rows("| `cantorsurj.a` | x |\n| see `cantorsurj.b` | y |\n") == {"a"}
