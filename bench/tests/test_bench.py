"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import checks  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS, Workload, cli_seed  # noqa: E402

sys.path.insert(0, run.SRC)
from spinfaraday.cli import main as cli_main  # noqa: E402

TINY_FLAGS = {
    "fig2": ("--samples", "2", "--grid=-10:10:5"),
    "fig4": ("--samples", "20", "--grid=-3:3:5"),
    "fig5": ("--samples", "20", "--grid=-3:3:5"),
    "fig6": (),
    "validate": ("--samples", "10"),
}


def tiny(workload: Workload) -> Workload:
    steps = tuple(step + TINY_FLAGS[step[0]] for step in workload.steps)
    return dataclasses.replace(workload, steps=steps, exact_counts={})


@pytest.fixture(scope="module")
def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny_bench(tmp_path, monkeypatch):
    """Tiny versions of every workload, with references written to tmp_path."""
    workloads = {name: tiny(w) for name, w in WORKLOADS.items()}
    reference = tmp_path / "reference"
    for name, workload in workloads.items():
        make_reference.write_reference(cli_main, workload, str(reference / name))
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(checks, "REFERENCE_DIR", str(reference))
    monkeypatch.setattr(run, "RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return workloads


def run_bench(*argv: str) -> tuple[int, dict, str]:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = run.main(list(argv))
    text = printed.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def test_benchmark_json_matches_the_code(bench_json):
    assert [(w["name"], w["why"]) for w in bench_json["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in bench_json["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(tiny_bench, bench_json, workload, trace):
    code, result, text = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert "failed_ratio = 0.0 ratio" in text
    expected = bench_json["end_to_end" if trace == "0" else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_traced_counts_follow_the_workload_size(tiny_bench):
    _, result, _ = run_bench("--workload", "lineshape", "--seconds", "0.01", "--trace", "1")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # 3 powers x 2 positions, each solving 5 detunings at Fock cutoff 3.
    assert values["lindblad.liouvillian_calls"] == 6
    assert values["lindblad.solves"] == 30
    assert values["lindblad.solve_bytes_computed"] == 30 * (64 * 64 + 64) * 16
    assert values["lindblad.fock_cutoff"] == 3
    assert values["lindblad.failed_points"] == 0
    assert values["cli.files_written"] == 2


def test_count_drift_fails_the_traced_run(tiny_bench, monkeypatch):
    drifted = dataclasses.replace(tiny_bench["design"], exact_counts={"scans.max_rotation_calls": 67})
    monkeypatch.setitem(run.WORKLOADS, "design", drifted)
    code, result, text = run_bench("--workload", "design", "--seconds", "0.01", "--trace", "1")
    assert code == 1 and result["correct"] is False
    assert "COUNT DRIFT" in text


def test_wall_norm_scales_each_iteration_by_its_calibration(tiny_bench):
    code, _, _ = run_bench("--workload", "design", "--seconds", "0.01", "--trace", "0")
    assert code == 0
    (report_dir,) = os.listdir(run.RUNS_DIR)
    with open(os.path.join(run.RUNS_DIR, report_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    timed = [r for r in report["iterations"] if r["tag"] != "reference"]
    assert len(timed) >= run.MIN_ITERATIONS
    for record in timed:
        assert record["cal_s"] > 0
        assert record["wall_norm_s"] == pytest.approx(record["wall_s"] * calibration.REFERENCE_S / record["cal_s"])
    expected = sorted(r["wall_norm_s"] for r in timed)
    assert report["metrics"]["wall_norm_s"]["value"] == pytest.approx(
        (expected[(len(expected) - 1) // 2] + expected[len(expected) // 2]) / 2
    )


def test_calibration_helper_times_the_kernel_and_exits():
    with calibration.Calibrator() as calibrator:
        assert calibrator.slot(0.0) > 0
    assert calibrator.proc.returncode == 0


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, tracing.CLI_SPAN, 0.0, 10.0, None, "it"),
        Span(1, "lindblad.fluorescence_lineshape", 1.0, 7.0, 0, "it"),
        Span(2, "lindblad.liouvillian", 1.5, 2.0, 1, "it"),
        Span(3, tracing.SOLVE_SPAN, 2.0, 4.0, 1, "it"),
        Span(4, "lindblad.liouvillian", 5.0, 5.5, 1, "it"),
        Span(5, "params.build_settings", 8.0, 9.0, 0, "it"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 0.5, 3: 2.0, 4: 0.5, 5: 1.0})

    # Overlapping children are covered once.
    overlap = [Span(0, "a", 0.0, 4.0, None, "x"), Span(1, "b", 1.0, 3.0, 0, "x"), Span(2, "c", 2.0, 3.5, 0, "x")]
    assert tracing.self_times(overlap)[0] == pytest.approx(1.5)

    counters = Counter({"lindblad.solves": 242, "lindblad.fock_cutoff": 3})
    metrics = tracing.iteration_metrics(spans, counters)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["lindblad.lineshape_s"] == pytest.approx(6.0)
    assert metrics["lindblad.lineshape_self_s"] == pytest.approx(3.0)
    assert metrics["lindblad.liouvillian_calls"] == 2
    assert metrics["lindblad.liouvillian_s"] == pytest.approx(1.0)
    assert metrics["lindblad.solve_us"] == pytest.approx(2.0e6 / 242)
    assert metrics["params.build_settings_s"] == pytest.approx(1.0)
    assert metrics["scans.max_rotation_calls"] == 0


def test_import_seconds_sums_self_time_per_package():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy._core",
        "import time:        50 |        150 | numpy",
        "import time:       400 |        400 |     scipy.optimize",
        "import time:        30 |        430 |   spinfaraday.scans",
        "import time:         7 |          7 | json",
    ])
    assert run.import_seconds(log) == pytest.approx(
        {"setup.import_numpy_s": 150e-6, "setup.import_scipy_s": 400e-6, "setup.import_spinfaraday_s": 30e-6}
    )


def _perturb(path: str, column: str, factor: float, row: int = 3) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    index = header.index(column)
    cells[index] = repr(float(cells[index]) * factor)
    lines[2 + row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _copy(tmp_path, workload: str) -> str:
    out = tmp_path / f"copy-{workload}"
    shutil.copytree(os.path.join(checks.REFERENCE_DIR, workload), out)
    with contextlib.suppress(FileNotFoundError):
        os.remove(out / checks.VALIDATE_REPORT)
    return str(out)


def _validate_stdout(workload: str) -> dict[str, str]:
    report = os.path.join(checks.REFERENCE_DIR, workload, checks.VALIDATE_REPORT)
    if not os.path.exists(report):
        return {}
    with open(report, encoding="utf-8") as fh:
        return {"validate": fh.read()}


def test_correctness_gate_passes_unchanged_outputs(tiny_bench, tmp_path):
    for workload in tiny_bench:
        out = _copy(tmp_path, workload)
        assert checks.check_outputs(workload, out, 0, _validate_stdout(workload)) == []


@pytest.mark.parametrize(
    "workload, name, column, factor, seed",
    [
        ("lineshape", "fig2.csv", "normalized_fluorescence", 1 + 1e-6, 0),  # beyond 1e-9 at the reference seed
        ("ensemble", "fig4a.csv", "averaged_transmittance", 1 + 1e-9, 0),  # beyond 1e-12
        ("ensemble", "fig4b.csv", "pinned_angle_deg", 1 + 1e-9, 5),  # seed-free column, any seed
        ("ensemble", "fig5a.csv", "p_down", 1 + 1e-9, 5),  # seed-free file
        ("coincidence", "fig4a.csv", "averaged_transmittance", 1e3, 5),  # |t| > 1
        ("design", "fig6a.csv", "max_angle_deg", 1 + 1e-9, 5),  # fig6 matches exactly
    ],
)
def test_correctness_gate_trips_on_a_perturbed_csv(tiny_bench, tmp_path, workload, name, column, factor, seed):
    out = _copy(tmp_path, workload)
    if seed:
        for manifest in (n for n in os.listdir(out) if n.endswith(".manifest.json")):
            path = os.path.join(out, manifest)
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if data["command"] in ("fig2", "fig4", "fig5"):
                data["seed"] = cli_seed(data["command"], seed)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        assert checks.check_outputs(workload, out, seed, _validate_stdout(workload)) == []
    _perturb(os.path.join(out, name), column, factor)
    problems = checks.check_outputs(workload, out, seed, _validate_stdout(workload))
    assert problems and {command for command, _ in problems} == {checks.command_of(name)}


def test_correctness_gate_trips_on_a_failed_validate_line(tiny_bench, tmp_path):
    out = _copy(tmp_path, "design")
    stdout = _validate_stdout("design")
    stdout["validate"] = stdout["validate"].replace("PASS", "FAIL", 1)
    problems = checks.check_outputs("design", out, 0, stdout)
    assert ("validate", "validate: not every check line is PASS") in problems


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "design"]) == 2
    assert capsys.readouterr().out == ""
