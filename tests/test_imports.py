"""Every name a source file imports is read somewhere in that file, every
module-level private name of the package is read somewhere in ``src/``, and
nothing outside the benchmark imports scipy.

No linter ships with the project, so this test is the unused-import and
unread-helper check. It parses the files and writes nothing. The package
``__init__`` is skipped by the unused-import check: its imports are the
public re-exports. A private name read only by the tests is unread: nothing
in the program needs it. The program, its demos and its tests run on numpy
alone; ``bench/`` records scipy's version with the environment, so it is
not scanned for scipy.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKED_DIRS = ("src", "demos", "tests", "bench")
SCIPY_FREE_DIRS = ("src", "demos", "tests")
RE_EXPORTS = os.path.join("src", "spinfaraday", "__init__.py")


def python_files(dirs=CHECKED_DIRS):
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def read_source(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def unused_imports(source):
    """(line, name) of each imported name that the source never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [(line, name) for line, name in bound if name not in read]


def private_definitions(source):
    """(line, name) of each module-level private name the source defines."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend(
                (node.lineno, t.id) for t in targets if isinstance(t, ast.Name)
            )
    return [
        (line, name) for line, name in defined
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]


def names_read(source):
    """Every name the source reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def imported_packages(source):
    """Top-level package of every absolute import in the source."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os.path\nos.sep\n"
    assert unused_imports(source) == [(2, "json")]


def test_the_check_finds_an_unread_private_name():
    source = (
        "_LIMIT = 3\n_unused: int = 0\n__all__ = []\n"
        "def _helper():\n    _local = 1\n    return _LIMIT\n"
        "class _Spare:\n    pass\n"
    )
    assert private_definitions(source) == [
        (1, "_LIMIT"), (2, "_unused"), (4, "_helper"), (7, "_Spare")
    ]
    read = names_read(source)
    assert [name for _, name in private_definitions(source) if name not in read] == [
        "_unused", "_helper", "_Spare"
    ]
    assert "_helper" in names_read("from . import m\nm._helper()\n")


def test_the_check_finds_a_scipy_import():
    source = "def f():\n    from scipy.optimize import brentq\n    import scipy.linalg\n"
    assert imported_packages(source) == {"scipy"}
    assert imported_packages("from .params import TWO_PI\n") == set()


@pytest.mark.parametrize("path", [p for p in python_files() if p != RE_EXPORTS])
def test_no_unused_imports(path):
    assert unused_imports(read_source(path)) == []


SOURCES = list(python_files(["src"]))


@pytest.mark.parametrize("path", SOURCES)
def test_no_unread_private_names(path):
    read = set().union(*(names_read(read_source(p)) for p in SOURCES))
    assert [(line, name) for line, name in private_definitions(read_source(path))
            if name not in read] == []


@pytest.mark.parametrize("path", list(python_files(SCIPY_FREE_DIRS)))
def test_no_scipy_import(path):
    assert "scipy" not in imported_packages(read_source(path))
