"""Write the stored reference outputs of every workload at the reference seed.

Run from the root of a checkout, only when an output is meant to change:

    python3 bench/make_reference.py

Each workload's iteration at benchmark seed 0 (the CLI default seeds) is
written to ``bench/reference/<workload>/``, with validate's printed report
as ``validate.stdout.txt``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
from checks import REFERENCE_DIR, VALIDATE_REPORT  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def write_reference(cli_main, workload, out_dir: str) -> None:
    """Run one iteration of ``workload`` at the reference seed into ``out_dir``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(out_dir)) as tmp:
        config_path = os.path.join(tmp, "workload.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(workload.config or "")
        for argv in workload.invocations(REFERENCE_SEED, out_dir, config_path):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"{workload.name}: {argv[0]} exited {code}")
            if argv[0] == "validate":
                with open(os.path.join(out_dir, VALIDATE_REPORT), "w", encoding="utf-8") as fh:
                    fh.write(printed.getvalue())


def main() -> int:
    sys.path.insert(0, run.SRC)
    from spinfaraday.cli import main as cli_main

    for workload in WORKLOADS.values():
        out_dir = os.path.join(REFERENCE_DIR, workload.name)
        write_reference(cli_main, workload, out_dir)
        print(f"wrote {os.path.relpath(out_dir)}: {', '.join(sorted(os.listdir(out_dir)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
