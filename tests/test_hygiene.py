"""Source hygiene that a linter would check: no module imports a name it never uses.

Both the package modules and the test files are checked.  The package's
`__init__.py` is left out because its imports are the package's exports.
No private or UPPER_CASE module-level name in the package may go unread by
every package module. In the command line, only `run` writes a handler's
output, and only through `_emit`.  Only `symgroup` names the beta-number
eigenvalue route, the referee the tests hold the library's columns to,
only `qpe` names the float phases that feed the statevector referee, and
`groupalgebra` names neither the per-entry character nor a product chunk.  The
benchmark's tracer names library functions by module and attribute path;
those names must keep resolving.
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


def unread_module_names(sources: dict[str, str]) -> list[str]:
    """Private or UPPER_CASE module-level names that no module of sources reads.

    A name counts as read where any module loads it by name or as an
    attribute. Dunders are exempt.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}: {name}"
        for module, name in defined
        if (name.startswith("_") or name.isupper())
        and not (name.startswith("__") and name.endswith("__"))
        and name not in read
    ]


def test_detector_catches_an_unread_module_name():
    sources = {
        "a": "_used = 1\n_unused = 2\nLIMIT = 3\nSPARE = 4\nSTALE: int = 5\n"
        "__version__ = '1'\ndef _helper():\n    return _used + LIMIT\n",
        "b": "import a\nprint(a.SPARE)\n",
    }
    assert unread_module_names(sources) == ["a: _unused", "a: STALE", "a: _helper"]


def test_no_unread_module_names():
    package = Path(projdetect.__file__).parent
    sources = {path.name: path.read_text() for path in package.glob("*.py")}
    assert unread_module_names(sources) == []


def names_in(path: Path) -> set[str]:
    """Every name a module loads, reads as an attribute, imports or defines."""
    return {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef, ast.ClassDef))
    }


def test_beta_route_is_a_referee():
    """Only symgroup names normalized_character_exact; the library reads eigenvalue columns."""
    package = Path(projdetect.__file__).parent
    naming = [
        path.name
        for path in sorted(package.glob("*.py"))
        if "normalized_character_exact" in names_in(path)
    ]
    assert naming == ["symgroup.py"]


def test_float_phases_are_the_statevector_input():
    """The detectors pass integer register values: only qpe (and the exports) name
    DiagonalUnitary or phase_encode, and centre reads the character matrix, not
    the per-entry character."""
    package = Path(projdetect.__file__).parent
    naming = [
        path.name
        for path in sorted(package.glob("*.py"))
        if names_in(path) & {"DiagonalUnitary", "phase_encode"}
    ]
    assert naming == ["__init__.py", "qpe.py"]
    assert "character" not in names_in(package / "centre.py")


def test_group_algebra_has_one_product_route():
    """groupalgebra reads character-matrix rows, not the per-entry character, and
    its product has no chunk loop: it names neither character nor PRODUCT_CHUNK."""
    names = names_in(Path(projdetect.__file__).with_name("groupalgebra.py"))
    assert not names & {"character", "PRODUCT_CHUNK"}


def stray_output_calls(source: str) -> list[str]:
    """Calls of _emit outside run, and of print without file=sys.stderr outside _emit."""
    found = []

    def visit(node, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                name = child.func.id
                to_stderr = any(
                    k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in child.keywords
                )
                if (name == "_emit" and owner != "run") or (
                    name == "print" and owner != "_emit" and not to_stderr
                ):
                    found.append(f"line {child.lineno}: {name} in {owner}")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_catches_stray_output():
    source = (
        "def _emit(text, out):\n    print(text)\n"
        "def _cmd(args):\n    _emit('x', None)\n    print('y')\n"
        "    print('z', file=sys.stderr)\n"
        "def run():\n    _emit('x', None)\n"
        "f = lambda: print('w')\n"
    )
    assert stray_output_calls(source) == [
        "line 4: _emit in _cmd",
        "line 5: print in _cmd",
        "line 9: print in <module>",
    ]


def test_cli_output_is_written_by_run_alone():
    cli = Path(projdetect.__file__).with_name("cli.py")
    assert stray_output_calls(cli.read_text()) == []


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
