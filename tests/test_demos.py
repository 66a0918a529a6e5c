"""Smoke test: the walkthrough scripts in demos/ run to completion."""

import contextlib
import io
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


# The fluorescence and coincidence demos are left out for their run time.
@pytest.mark.parametrize(
    "name",
    [
        "pinned_atom_rotation",
        "conditional_spin_readout",
        "falling_atom_ensembles",
        "cavity_design_scans",
    ],
)
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, f"{name}.py"), run_name="__main__")
    assert out.getvalue().strip()
