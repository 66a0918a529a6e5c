"""The walkthrough scripts in demos/ run and print exactly their stored output.

Each expected printout lives in ``tests/demo_output/<name>.txt``; rewrite
them only when a demo's numbers are meant to change:

    PYTHONPATH=src python tests/test_demos.py
"""

import contextlib
import glob
import io
import os
import runpy
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
DEMOS = os.path.join(os.path.dirname(TESTS), "demos")
NAMES = sorted(
    os.path.splitext(os.path.basename(path))[0]
    for path in glob.glob(os.path.join(DEMOS, "*.py"))
)


def printout(name):
    """What the demo ``name`` prints when run as a script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, f"{name}.py"), run_name="__main__")
    return out.getvalue()


def stored(name):
    return os.path.join(TESTS, "demo_output", f"{name}.txt")


@pytest.mark.parametrize("name", NAMES)
def test_demo_runs(name):
    with open(stored(name), encoding="utf-8") as fh:
        assert printout(name) == fh.read()


if __name__ == "__main__":
    for name in NAMES:
        text = printout(name)
        with open(stored(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {stored(name)}", file=sys.stderr)
