"""Source hygiene that a linter would check: no module imports a name it never uses.

Both the package modules and the test files are checked.  The package's
`__init__.py` is left out because its imports are the package's exports.
The benchmark's tracer names library functions by module and attribute
path; those names must keep resolving.
"""

import ast
import importlib
from pathlib import Path

import pytest

import projdetect

MODULES = sorted(
    path
    for path in Path(projdetect.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
) + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detector_catches_an_unused_import():
    source = "from math import ceil, log2\nimport json\nprint(ceil(1.5))\n"
    assert unused_imports(source) == ["line 1: log2", "line 2: json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def tracer_names(table: str) -> list[tuple[str, str]]:
    """(module, attribute path) of each entry of a list in bench/tracer.py, read without importing it."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [table]:
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError(f"{table} not found in {TRACER}")


@pytest.mark.parametrize("table", ["TARGETS", "CACHES"])
def test_tracer_names_resolve(table):
    names = tracer_names(table)
    assert names
    for module, path in names:
        owner = importlib.import_module(f"projdetect.{module}")
        for part in path.split("."):
            assert hasattr(owner, part), f"projdetect.{module}.{path}"
            owner = getattr(owner, part)
