"""The walkthrough scripts in demos/ run and print exactly their stored output.

Each expected printout lives in ``tests/demo_output/<name>.txt``; rewrite it
only when a demo's numbers are meant to change.
"""

import contextlib
import glob
import io
import os
import runpy

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
DEMOS = os.path.join(os.path.dirname(TESTS), "demos")


@pytest.mark.parametrize(
    "name",
    sorted(os.path.splitext(os.path.basename(path))[0]
           for path in glob.glob(os.path.join(DEMOS, "*.py"))),
)
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, f"{name}.py"), run_name="__main__")
    with open(os.path.join(TESTS, "demo_output", f"{name}.txt"), encoding="utf-8") as fh:
        assert out.getvalue() == fh.read()
