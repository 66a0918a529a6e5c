"""Output correctness gate for one benchmark iteration.

Each check returns problems as (command, message) pairs, so a failed check
is charged to the CLI invocation that wrote the file. The stored
references under ``bench/reference/<workload>`` were written at the
reference seed (see ``make_reference.py``).

- At the reference seed every CSV matches its reference: fig2 within 1e-9
  relative, the fig4 and fig5 Monte Carlo averages within 1e-12 relative,
  everything else exactly.
- At every seed the seed-free outputs match exactly: the detuning, angle,
  label and ``pinned_*`` columns, ``fig5a.csv``, fig6, validate's report
  and every manifest apart from its ``seed``.
- At every seed the physical invariants hold.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

from workloads import REFERENCE_SEED, cli_seed

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Relative tolerance at the reference seed for seed-dependent columns.
RELATIVE_TOLERANCE = {
    "fig2.csv": 1e-9,
    "fig4a.csv": 1e-12,
    "fig4b.csv": 1e-12,
    "fig5b.csv": 1e-12,
    "fig5_inset.csv": 1e-12,
}
SEED_FREE_FILES = ("fig5a.csv", "fig6a.csv", "fig6b.csv")
SEED_FREE_COLUMNS = frozenset(
    {"detuning_mhz", "power_label", "delta_mhz", "pinned_transmittance",
     "pinned_angle_deg", "phi_deg", "port", "prior"}
)
PROBABILITY_COLUMNS = frozenset({"p_down", "click_prob"})
TRANSMITTANCE_COLUMNS = frozenset({"averaged_transmittance", "pinned_transmittance"})
ANGLE_COLUMNS = frozenset({"averaged_angle_deg", "pinned_angle_deg", "max_angle_deg"})
VALIDATE_REPORT = "validate.stdout.txt"
MAX_REPORTED = 5  # mismatching rows listed per file


def command_of(filename: str) -> str:
    """CLI command that writes ``filename``; the file name itself if unknown."""
    match = re.match(r"fig\d|validate", filename)
    return match.group(0) if match else filename


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def digest(out_dir: str) -> dict[str, str]:
    """sha256 of every file an iteration wrote, for the repeat check."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _close(value: str, reference: str, rtol: float) -> bool:
    a, b = float(value), float(reference)
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def _check_invariants(name: str, header: list[str], rows: list[list[str]]) -> list[str]:
    problems = []
    peaks: dict[str, float] = {}
    for row in rows:
        for column, cell in zip(header, row):
            if column in ("power_label", "port"):
                continue
            value = float(cell)
            if not math.isfinite(value):
                problems.append(f"{name}: {column} is {cell}")
            elif column in PROBABILITY_COLUMNS and not 0.0 <= value <= 1.0:
                problems.append(f"{name}: {column} {cell} outside [0, 1]")
            elif column in TRANSMITTANCE_COLUMNS and not 0.0 <= value <= 1.0:
                problems.append(f"{name}: |t| {cell} outside [0, 1]")
            elif column in ANGLE_COLUMNS and abs(value) > 45.0:
                problems.append(f"{name}: {column} {cell} beyond 45 deg")
            elif column == "normalized_fluorescence":
                if not 0.0 <= value <= 1.0:
                    problems.append(f"{name}: normalized fluorescence {cell} outside [0, 1]")
                label = row[header.index("power_label")]
                peaks[label] = max(peaks.get(label, -math.inf), value)
    for label, peak in peaks.items():
        if abs(peak - 1.0) > 1e-12:
            problems.append(f"{name}: normalized peak {peak!r} != 1 for {label}")
    return problems


def _compare_csv(
    name: str, path: str, reference: str, at_reference_seed: bool
) -> list[str]:
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(reference)
    if header != ref_header:
        return [f"{name}: header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    exact = name in SEED_FREE_FILES or name not in RELATIVE_TOLERANCE
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for column, cell, ref_cell in zip(header, row, ref_row):
            if exact or column in SEED_FREE_COLUMNS:
                ok = cell == ref_cell
            elif at_reference_seed:
                ok = _close(cell, ref_cell, RELATIVE_TOLERANCE[name])
            else:
                continue
            if not ok:
                problems.append(f"{name} row {i} {column}: {cell} != reference {ref_cell}")
                break
    if len(problems) > MAX_REPORTED:
        problems[MAX_REPORTED:] = [f"{name}: {len(problems) - MAX_REPORTED} more rows differ"]
    return problems + _check_invariants(name, header, rows)


def _compare_manifest(name: str, path: str, reference: str, seed: int) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(reference, encoding="utf-8") as fh:
        expected = json.load(fh)
    command = manifest.get("command")
    if seed != REFERENCE_SEED and command in ("fig2", "fig4", "fig5"):
        expected["seed"] = cli_seed(command, seed)
    if manifest != expected:
        diff = sorted(k for k in expected.keys() | manifest.keys() if manifest.get(k) != expected.get(k))
        return [f"{name}: differs from reference in {diff}"]
    return []


def check_outputs(
    workload: str, out_dir: str, seed: int, stdout: dict[str, str]
) -> list[tuple[str, str]]:
    """Problems with one iteration's outputs, as (command, message).

    ``stdout`` maps each command of the iteration to what it printed.
    """
    ref_dir = os.path.join(REFERENCE_DIR, workload)
    expected = sorted(n for n in os.listdir(ref_dir) if n != VALIDATE_REPORT)
    written = sorted(os.listdir(out_dir))
    problems: list[tuple[str, str]] = []
    for name in sorted(set(expected) ^ set(written)):
        problems.append((command_of(name), f"{name}: expected {name in expected}, written {name in written}"))
    for name in sorted(set(expected) & set(written)):
        path, reference = os.path.join(out_dir, name), os.path.join(ref_dir, name)
        if name.endswith(".csv"):
            found = _compare_csv(name, path, reference, seed == REFERENCE_SEED)
        else:
            found = _compare_manifest(name, path, reference, seed)
        problems += [(command_of(name), message) for message in found]
    report = os.path.join(ref_dir, VALIDATE_REPORT)
    if os.path.exists(report):
        problems += [("validate", m) for m in _check_validate(stdout.get("validate", ""), report)]
    return problems


def _check_validate(text: str, reference: str) -> list[str]:
    with open(reference, encoding="utf-8") as fh:
        expected = fh.read()
    problems = []
    checks = [line for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]
    if not checks or not all(line.startswith("PASS") for line in checks):
        problems.append("validate: not every check line is PASS")
    if text != expected:
        problems.append("validate: report differs from reference")
    return problems
