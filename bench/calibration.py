"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark host is a shared VM whose speed drifts by a third or more
over seconds to minutes, as other tenants load the cores and memory it
shares. Timing this kernel next to every workload iteration gives the
host's speed at that moment, and ``wall_norm_s`` scales each iteration to a
host on which the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code and never changes with the program,
so a program change moves ``wall_norm_s`` as it moves the raw wall time. It
does two kinds of work the workloads do: a dense complex solve of a freshly
allocated stack (lineshape, validate) and elementwise complex arithmetic on
an ensemble-sized array (fig4, fig5). A Python loop over small arrays, tried
as a third part, tracked the ensemble workload worse than these two.

It runs in a helper process that waits, idle, while the workload runs, so
that it neither adds to the workload process's peak memory nor shares its
heap. Run as a script, this module is that helper: for each line on stdin,
a minimum number of seconds, it prints the kernel's mean time per run.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Kernel time that wall_norm_s scales to: about the kernel's median on the
# 2-core host the baseline in README.md was measured on.
REFERENCE_S = 0.08
HELPER_EXIT_TIMEOUT_S = 30

# The sizes of the lineshape Liouvillian stack (121 detunings, 64x64) and
# of the fig4 transmission array (10^4 trajectories x 69 times).
_STACK = (121, 64, 64)
_ROWS = (10_000, 69)


def kernel() -> float:
    """One run of the calibration kernel; returns a checksum."""
    total = 0.0
    a = np.arange(np.prod(_STACK), dtype=np.float64).reshape(_STACK)
    m = np.cos(a * 1e-3) + 1j * np.sin(a * 7e-4)
    m += 64.0 * np.eye(_STACK[1])
    x = np.linalg.solve(m, np.ones(_STACK[:2] + (1,), dtype=complex))
    total += float(np.abs(x).sum())
    z = np.linspace(0.0, 1.0, _ROWS[0] * _ROWS[1]).reshape(_ROWS)
    w = np.exp(1j * z) / (1.0 + z * z)
    total += float(np.abs(w.mean(axis=0)).sum())
    if not np.isfinite(total):
        raise RuntimeError("calibration kernel gave a non-finite checksum")
    return total


def slot(min_seconds: float) -> float:
    """Run the kernel at least once and for at least ``min_seconds``;
    return its mean wall time per run."""
    runs = 0
    start = time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / runs


class Calibrator:
    """The helper process; ``slot`` runs there. Use as a context manager,
    which waits for the helper to exit."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.slot(0.0)  # the helper's imports and first run are not timed
        except BaseException:
            self.close()
            raise

    def slot(self, min_seconds: float) -> float:
        self.proc.stdin.write(f"{min_seconds!r}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=HELPER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Calibrator:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for request in sys.stdin:
        print(repr(slot(float(request))), flush=True)
