"""Every name README's "Library layout" table cites is a name the package has.

Each row of the table names a module and, in backticks, the functions,
classes and constants it holds. A change that deletes or renames one would
leave the table stale without a word; this test resolves each backticked
Python name against the row's module, or else against the package (as in
``optics.t_moments`` or ``MeasurementOperator.partner``), and fails on any
it cannot find. It reads README.md and writes nothing.
"""

import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "spinfaraday"

# Backticked words in the table that are no attribute of the package:
# scipy's golden-section search, whose iterates scans.py repeats, and the
# console script.
NOT_PACKAGE_NAMES = frozenset({"golden", "spinfaraday"})

IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
ROW = re.compile(rf"\| `({PACKAGE}\.\w+)` \|(.*)\|\s*$")


def layout_rows():
    """(module, backticked words) of each row of the Library layout table."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        match = ROW.match(line)
        if match:
            rows.append((match.group(1), re.findall(r"`([^`]+)`", match.group(2))))
    return rows


def _resolves(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def unresolved(module_name, words):
    """The Python names among ``words`` that neither the module nor the package has."""
    roots = (importlib.import_module(module_name), importlib.import_module(PACKAGE))
    return [
        word for word in words
        if IDENTIFIER.fullmatch(word) and word not in NOT_PACKAGE_NAMES
        and not any(_resolves(root, word) for root in roots)
    ]


def test_the_check_finds_a_stale_name():
    words = ["t_moments", "sample_blocks", "montecarlo.coupling_blocks", "E|t|^2", "golden"]
    assert unresolved(f"{PACKAGE}.optics", words) == ["sample_blocks"]
    assert unresolved(f"{PACKAGE}.measurement", ["MeasurementOperator.partner"]) == []
    assert unresolved(f"{PACKAGE}.measurement", ["MeasurementOperator.reverse"]) == [
        "MeasurementOperator.reverse"
    ]


ROWS = layout_rows()


def test_the_table_lists_every_module():
    modules = {name for name, _ in ROWS}
    source = os.path.join(ROOT, "src", PACKAGE)
    expected = {
        f"{PACKAGE}.{name[:-3]}" for name in os.listdir(source)
        if name.endswith(".py") and name != "__init__.py"
    }
    assert modules == expected


@pytest.mark.parametrize("module, words", ROWS, ids=[name for name, _ in ROWS])
def test_layout_row_names_resolve(module, words):
    assert unresolved(module, words) == []
