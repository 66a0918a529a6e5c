"""Every name a source file imports is read somewhere in that file, every
module-level private name of the package is read somewhere in ``src/``,
nothing outside the benchmark imports scipy, and only ``montecarlo`` and
``cli`` draw random numbers.

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
# The package modules that may draw random numbers: the samplers and the CLI's validate.
RNG_OWNERS = tuple(os.path.join("src", "spinfaraday", name) for name in ("montecarlo.py", "cli.py"))


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


def random_draws(source):
    """Lines of the source that reach a random generator: ``np.random``,
    ``default_rng``, or an import of ``numpy.random`` or ``random``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
            node.attr == "default_rng"
            or (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
        ):
            lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "default_rng":
            lines.add(node.lineno)
        elif isinstance(node, ast.Import) and any(
            alias.name in ("random", "numpy.random") for alias in node.names
        ):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in ("random", "numpy.random"):
            lines.add(node.lineno)
    return sorted(lines)


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


def test_the_check_finds_a_random_draw():
    source = (
        "import numpy as np\nrng = np.random.default_rng(1)\n"
        "from numpy.random import default_rng\nimport random\n"
        "x = rng.random()\nrng = default_rng(2)\nfrom . import optics\n"
    )
    assert random_draws(source) == [2, 3, 4, 6]


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


@pytest.mark.parametrize("path", [p for p in SOURCES if p not in RNG_OWNERS])
def test_only_the_samplers_and_cli_draw_random_numbers(path):
    assert random_draws(read_source(path)) == []
