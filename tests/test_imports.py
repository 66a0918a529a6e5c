"""Every name a source file imports is read somewhere in that file, and
nothing outside the benchmark imports scipy.

No linter ships with the project, so this test is the unused-import check.
It parses the files and writes nothing. The package ``__init__`` is skipped
by the unused-import check: its imports are the public re-exports. The
program, its demos and its tests run on numpy alone; ``bench/`` records
scipy's version with the environment, so it is not scanned for scipy.
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


def test_the_check_finds_a_scipy_import():
    source = "def f():\n    from scipy.optimize import brentq\n    import scipy.linalg\n"
    assert imported_packages(source) == {"scipy"}
    assert imported_packages("from .params import TWO_PI\n") == set()


@pytest.mark.parametrize("path", [p for p in python_files() if p != RE_EXPORTS])
def test_no_unused_imports(path):
    assert unused_imports(read_source(path)) == []


@pytest.mark.parametrize("path", list(python_files(SCIPY_FREE_DIRS)))
def test_no_scipy_import(path):
    assert "scipy" not in imported_packages(read_source(path))
