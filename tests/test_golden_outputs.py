"""Every CLI command writes exactly its stored golden output.

Each run below writes into a fresh directory, which must hold the same files
with the same bytes as ``tests/golden/<run>/``; validate's report is stored
there as ``stdout.txt``. Rewrite the golden files only when a command's
numbers are meant to change:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile

import pytest

from spinfaraday.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Run name -> (arguments, config file text or None, keep stdout).
RUNS = {
    "fig2": (["fig2", "--samples", "3"], None, False),
    "fig4-threshold": (["fig4", "--samples", "50", "--grid=-3:3:13"], None, False),
    "fig4-coincidence": (
        ["fig4", "--samples", "50", "--grid=-3:3:13"], "ensemble = coincidence\n", False,
    ),
    "fig5": (["fig5", "--samples", "200"], None, False),
    "fig6": (["fig6"], None, False),
    "validate": (["validate"], None, True),
    "validate-seed1": (["validate", "--seed", "1", "--samples", "2000"], None, True),
    "validate-seed2": (["validate", "--seed", "2"], None, True),
    "validate-seed3": (["validate", "--seed", "3", "--samples", "2000"], None, True),
}


def run_into(name: str, out_dir: str) -> None:
    """Run one entry of RUNS, writing its files (and kept stdout) into out_dir."""
    argv, config, keep_stdout = RUNS[name]
    argv = argv + ["--out", out_dir]
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config)
            argv += ["--config", path]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
    if keep_stdout:
        with open(os.path.join(out_dir, "stdout.txt"), "w", encoding="utf-8") as fh:
            fh.write(stdout.getvalue())


@pytest.mark.parametrize("name", list(RUNS))
def test_output_matches_golden(name, tmp_path):
    run_into(name, str(tmp_path))
    expected_dir = os.path.join(GOLDEN, name)
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(expected_dir))
    for file_name in os.listdir(expected_dir):
        with open(os.path.join(expected_dir, file_name), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / file_name).read_bytes() == expected, file_name


if __name__ == "__main__":
    for run_name in RUNS:
        target = os.path.join(GOLDEN, run_name)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        run_into(run_name, target)
        print(f"wrote {target}", file=sys.stderr)
