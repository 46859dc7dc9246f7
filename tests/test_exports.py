import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bmlab
from bmlab.cli import main
from bmlab.config import RunConfig

MODULES = sorted(m.name for m in pkgutil.iter_modules(bmlab.__path__))
ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = [ROOT / "src" / "bmlab" / "cli.py", *sorted((ROOT / "scripts").glob("*.py")),
                ROOT / "tests" / "test_acceptance.py"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    # a name left in __all__ after its definition goes breaks `import *`
    mod = importlib.import_module(f"bmlab.{name}")
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from bmlab.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def private_bmlab_names(source: str) -> list[str]:
    """The _-prefixed names (dunders aside) that ``source`` imports from bmlab
    modules or reads as attributes of a bmlab module it imported."""
    private = lambda name: name.startswith("_") and not name.endswith("__")
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "bmlab"):
            found += [a.name for a in node.names if private(a.name)]
            if node.module in (None, "bmlab"):
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.asname and a.name.startswith("bmlab."))
    found += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in modules and private(node.attr)]
    return found


def test_private_name_scan_finds_imports_and_attributes():
    source = ("from bmlab import engine as eng\nfrom bmlab.config import RunConfig, _parse\n"
              "from . import curves\nimport bmlab.whitney as w\n"
              "eng._probe(); curves._x; w._y; eng.public; other._z; _own()\n")
    assert sorted(private_bmlab_names(source)) == ["_parse", "_probe", "_x", "_y"]


@pytest.mark.parametrize("path", ENTRY_POINTS, ids=lambda p: p.name)
def test_entry_points_use_only_public_bmlab_names(path):
    # the CLI, the scripts and the acceptance criteria reach the package
    # through public names, which the perfbench tracer also wraps
    assert private_bmlab_names(path.read_text()) == []


# public src/bmlab names that no command, script or workload calls, each a
# construction of the paper that a criterion or the profile tests build directly
TEST_BUILT_NAMES = {
    "rectangle_symbol": "a rectangle 1_A(xi) 1_B(eta), the rank-one symbol the engine and profile tests apply",
    "increasing_staircase_symbol": "the staircase of two increasing sequences, checked against its evaluator",
    "boundary_piece_symbol": "criterion 5 adds the boundary pieces to the staircase to rebuild the epigraph",
    "hyp2_rewrite_pair": "criterion 6 checks the rectangle-minus-complement rewrite of the staircase",
}
SRC_USERS = [*sorted((ROOT / "src" / "bmlab").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]


def referenced_names(sources) -> set[str]:
    """Every name the sources read, read as an attribute or import by name."""
    found = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(a.name for a in node.names)
    return found


def public_definitions(source: str) -> list[str]:
    """The public top-level functions and classes of ``source``, and the
    public methods and properties of its public classes as ``Class.name``."""
    public = lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    found = []
    for node in filter(public, ast.parse(source).body):
        found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body if public(item)]
    return found


def test_public_definition_scan_finds_methods_and_properties():
    source = ("class Box:\n    @property\n    def size(self): ...\n    def grow(self): ...\n"
              "    def _hidden(self): ...\n    def __len__(self): ...\nclass _Private:\n    def run(self): ...\n"
              "def make(): ...\n")
    assert public_definitions(source) == ["Box", "Box.size", "Box.grow", "make"]


def test_public_names_have_a_caller_outside_the_tests():
    # a public function, class, method or property that only tests reach is
    # code no run needs: move it to tests/oracles.py or give it a caller
    defined = [name for path in sorted((ROOT / "src" / "bmlab").glob("*.py"))
               for name in public_definitions(path.read_text())]
    used = referenced_names(path.read_text() for path in SRC_USERS)
    assert sorted(name for name in defined if name.rsplit(".", 1)[-1] not in used) == sorted(TEST_BUILT_NAMES)


def config_keys_read() -> set[tuple[str, str]]:
    """The (section, key) pairs that ``RunConfig.from_file`` reads: one per
    field declaration of ``RunConfig`` that names a key."""
    return {(f.metadata["section"], f.metadata["key"]) for f in dataclasses.fields(RunConfig) if f.metadata}


def readme_example() -> str:
    """The README's example ``ini`` block."""
    return (ROOT / "README.md").read_text().split("```ini\n", 1)[1].split("```", 1)[0]


def readme_example_keys() -> set[tuple[str, str]]:
    """The (section, key) pairs of the README's example ``ini`` block, keys
    commented out with ``;`` included."""
    section, keys = None, set()
    for line in readme_example().splitlines():
        if header := re.match(r"\[(\w+)\]", line):
            section = header[1]
        elif key := re.match(r";?\s*(\w+)\s*=", line):
            keys.add((section, key[1]))
    return keys


def test_readme_example_lists_exactly_the_config_keys():
    # a key the README shows but bmlab never reads is silently ignored, and a
    # key bmlab reads but the README omits is a setting no reader can find
    read = config_keys_read()
    assert ("whitney", "alpha") in read and ("output", "dir") in read
    assert readme_example_keys() == read


@pytest.mark.parametrize("command", ["analyze", "check-hyp", "symbol", "probe", "chain", "whitney"])
def test_readme_example_runs(tmp_path, capsys, command):
    # configparser strips only whole-line comments: a "; ..." after a value
    # is part of the value, so the example keeps every comment on its own line
    path = tmp_path / "run.ini"
    path.write_text(readme_example())
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
