"""Command-line interface: outputs, manifests, reproducibility, exit codes."""

import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinfaraday
from spinfaraday import cli, lindblad, measurement, montecarlo, optics
from spinfaraday.cli import OUTPUT_ENV_VAR, main


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def csv_rows(path):
    lines = read(path).splitlines()
    assert lines[0].startswith("# manifest: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def patch_everywhere(monkeypatch, original, replacement):
    """Replace a package function at every module attribute that holds it, so
    a call goes through the replacement whichever module looks it up."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "spinfaraday":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_every_command_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes every import of scipy fail, so a
    # command that still reached for it would exit non-zero or raise.
    config = tmp_path / "coincidence.json"
    config.write_text(json.dumps({"ensemble": "coincidence"}))
    argvs = [
        ["fig2", "--samples", "1", "--grid=-1:1:3"],
        ["fig4", "--samples", "20"],
        ["fig4", "--samples", "20", "--config", str(config)],
        ["fig5", "--samples", "20"],
        ["fig6"],
        ["validate", "--samples", "5"],
    ]
    for i, argv in enumerate(argvs):
        argv += ["--out", str(tmp_path / str(i))]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from spinfaraday.cli import main\n"
        f"print([main(argv) for argv in {argvs!r}], sys.modules['scipy'])"
    )
    src = os.path.dirname(os.path.dirname(spinfaraday.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == f"{[0] * len(argvs)} None"


class TestValidate:
    def test_passes_and_prints_a_line_per_check(self, tmp_path, capsys):
        rc = main(["validate", "--out", str(tmp_path), "--samples", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 5
        assert all(l.startswith("PASS") for l in lines)
        assert "all checks passed" in out
        assert os.path.exists(tmp_path / "validate.manifest.json")

    @pytest.mark.parametrize(
        "target, failing",
        [
            ("t_minus_value", ["steady-state transmittance vs analytic"]),
            ("kraus", ["Kraus completeness", "measurement reversal proportional to identity"]),
        ],
    )
    def test_nan_deviation_fails_its_check(self, tmp_path, capsys, monkeypatch, target, failing):
        # A NaN deviation must not vanish into the running worst value.
        nan = {
            "t_minus_value": lambda *args, **kwargs: complex("nan"),
            "kraus": lambda theta, phi: np.full((2, 2), np.nan, dtype=complex),
        }[target]
        monkeypatch.setattr(cli, target, nan)
        rc = main(["validate", "--samples", "5", "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert [l.split(":")[0] for l in lines if l.startswith("FAIL")] == [
            f"FAIL  {name}" for name in failing
        ]
        assert f"{len(failing)} check(s) failed" in lines
        assert not (tmp_path / "out").exists()


class TestFig6:
    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fig6", "--out", str(a)]) == 0
        assert main(["fig6", "--out", str(b)]) == 0
        for name in ("fig6a.csv", "fig6b.csv", "fig6.manifest.json"):
            assert read(a / name) == read(b / name)

        header, rows = csv_rows(a / "fig6a.csv")
        assert header[0] == "length_um"
        assert len(rows) == 25
        header, rows = csv_rows(a / "fig6b.csv")
        assert header[0] == "reflectivity"
        assert len(rows) == 43

    def test_rotation_curve_calls(self, tmp_path, monkeypatch):
        # 68 maxima: one coarse grid call each, then a golden-section
        # refinement that evaluates several steps' points per call.
        original = optics.rotation_curve
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
        assert main(["fig6", "--out", str(tmp_path)]) == 0
        assert len(calls) <= 1150

    def test_manifest_contents(self, tmp_path):
        main(["fig6", "--out", str(tmp_path)])
        manifest = json.loads(read(tmp_path / "fig6.manifest.json"))
        assert manifest["command"] == "fig6"
        assert manifest["kappa_mhz"] == pytest.approx(4.5)
        assert manifest["g0_mhz"] == pytest.approx(2.8)
        assert manifest["reflectivity"] == pytest.approx(0.999972)

    def test_config_overrides_physics(self, tmp_path):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text("kappa_mhz = 9.0\n# comment line\n")
        assert main(["fig6", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        manifest = json.loads(read(tmp_path / "fig6.manifest.json"))
        assert manifest["kappa_mhz"] == pytest.approx(9.0)


class TestFig4:
    def test_threshold_ensemble_small_run(self, tmp_path):
        rc = main(
            [
                "fig4",
                "--out",
                str(tmp_path),
                "--samples",
                "50",
                "--grid=-2:2:9",
            ]
        )
        assert rc == 0
        header, rows = csv_rows(tmp_path / "fig4a.csv")
        assert header == ["delta_mhz", "averaged_transmittance", "pinned_transmittance"]
        assert len(rows) == 9
        header, rows = csv_rows(tmp_path / "fig4b.csv")
        assert header == ["delta_mhz", "averaged_angle_deg", "pinned_angle_deg"]
        assert len(rows) == 9
        # averaging washes the dispersive curve out relative to a pinned atom
        mid = rows[2]
        assert abs(float(mid[1])) <= abs(float(mid[2]))

    def test_coincidence_ensemble_small_run(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"ensemble": "coincidence"}))
        rc = main(
            [
                "fig4",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
                "--samples",
                "40",
                "--grid=-2:2:5",
            ]
        )
        assert rc == 0
        manifest = json.loads(read(tmp_path / "fig4.manifest.json"))
        assert manifest["ensemble"] == "coincidence"

    def test_transmittance_elements_evaluated_once(self, tmp_path, monkeypatch):
        # The benchmark pins the t_minus_value element count, wrapping every
        # binding as done here. fig4 makes two moment sweeps over 5 detunings
        # x 50 trajectories x 69 window times, plus the pinned atom's t and
        # rotation curve over the 5 detunings.
        original = optics.t_minus_value
        elements = []

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            elements.append(np.size(result))
            return result

        patch_everywhere(monkeypatch, original, counted)
        assert main(["fig4", "--out", str(tmp_path), "--samples", "50", "--grid=-1:1:5"]) == 0
        assert sum(elements) == 2 * 5 * 50 * 69 + 5 + 5

    def test_peak_rss_flat_in_the_trajectory_count(self, tmp_path):
        # Each run is the one child of its own wrapper process, whose
        # RUSAGE_CHILDREN is then that run's peak RSS alone. Averages over a
        # whole coupling matrix grew it about 3.7x from 2,500 to 40,000.
        src = os.path.dirname(os.path.dirname(spinfaraday.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        wrapper = (
            "import resource, subprocess, sys\n"
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        peaks = []
        for n in (2500, 40_000):
            fig4 = [
                sys.executable, "-m", "spinfaraday.cli", "fig4", "--out", str(tmp_path / str(n)),
                "--samples", str(n), "--grid=-3:3:5",
            ]
            out = subprocess.run(
                [sys.executable, "-c", wrapper, *fig4],
                env=env, capture_output=True, text=True, check=True,
            )
            peaks.append(int(out.stdout))
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["fig4", "--out", str(a), "--samples", "30", "--grid=-1:1:3", "--seed", "1"])
        main(["fig4", "--out", str(b), "--samples", "30", "--grid=-1:1:3", "--seed", "2"])
        assert read(a / "fig4a.csv") != read(b / "fig4a.csv")

    def test_unknown_ensemble_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"ensemble": "levitating"}))
        rc = main(["fig4", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "ensemble" in capsys.readouterr().err

    def test_hopeless_coincidence_rate_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"ensemble": "coincidence", "rate_max_per_s": 1.0})
        )
        rc = main(
            [
                "fig4",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "out"),
                "--samples",
                "5",
                "--grid=-1:1:3",
            ]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_click_slab_above_its_cap_is_config_error(self, tmp_path, capsys):
        # 1e9 /s would need k_max = 336,807 clicks per row, two slabs of 539 MB;
        # 1.115e7 /s needs 4,092, just under the cap, and still runs.
        def fig4(rate):
            cfg = tmp_path / f"{rate}.json"
            cfg.write_text(json.dumps({"ensemble": "coincidence", "rate_max_per_s": rate}))
            argv = ["--config", str(cfg), "--out", str(tmp_path / f"out-{rate}")]
            return main(["fig4", *argv, "--samples", "1", "--grid=-1:1:3"])

        start = time.perf_counter()
        assert fig4(1e9) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: rate_max_per_s")
        assert not (tmp_path / f"out-{1e9}").exists()
        assert fig4(1.115e7) == 0


class TestFig2:
    def test_three_power_curves(self, tmp_path):
        rc = main(
            [
                "fig2",
                "--out",
                str(tmp_path),
                "--samples",
                "4",
                "--grid=-8:8:5",
            ]
        )
        assert rc == 0
        header, rows = csv_rows(tmp_path / "fig2.csv")
        assert header == ["detuning_mhz", "normalized_fluorescence", "power_label"]
        assert len(rows) == 15
        assert {r[2] for r in rows} == {"1 nW", "100 nW", "300 nW"}
        values = [float(r[1]) for r in rows]
        assert max(values) == pytest.approx(1.0, abs=1e-9)

    def test_failed_point_warning_counts_grid_points_over_positions(
        self, tmp_path, capsys, monkeypatch
    ):
        steady_states = lindblad._steady_states
        calls = []

        def fail_last_point_once(model, detunings):
            rho, top_fock, ok = steady_states(model, detunings)
            if not calls:
                ok[-1] = False
                rho[-1] = np.nan
                top_fock[-1] = np.nan
            calls.append(detunings.size)
            return rho, top_fock, ok

        monkeypatch.setattr(lindblad, "_steady_states", fail_last_point_once)
        argv = ["fig2", "--out", str(tmp_path), "--samples", "2", "--grid=-2:2:5"]
        assert main(argv) == 0
        # The first solve of 1 nW covers 0, 1, 2 MHz; its failed +2 MHz point
        # also feeds -2 MHz. 2 positions x 5 detunings are reported.
        assert calls[0] == 3
        err = capsys.readouterr().err
        assert "warning: 2/10 solver points failed for 1 nW" in err
        assert "100 nW" not in err and "300 nW" not in err

    def test_draws_its_sites_once(self, tmp_path, monkeypatch):
        draw, lineshape = montecarlo.lineshape_sites, lindblad.fluorescence_lineshape
        drawn, received = [], []

        def counted_draw(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        def recorded(params, power_scale, grid, couplings, beam):
            received.append((couplings, beam))
            return lineshape(params, power_scale, grid, couplings, beam)

        patch_everywhere(monkeypatch, draw, counted_draw)
        patch_everywhere(monkeypatch, lineshape, recorded)
        assert main(["fig2", "--out", str(tmp_path), "--samples", "3", "--grid=-1:1:3"]) == 0
        assert len(drawn) == 1 and len(received) == 3
        # All three powers average over the very arrays of the one draw.
        assert all(sites[0] is drawn[0][0] and sites[1] is drawn[0][1] for sites in received)


class TestFig5:
    def test_outputs(self, tmp_path):
        rc = main(
            [
                "fig5",
                "--out",
                str(tmp_path),
                "--samples",
                "60",
                "--grid=-2:2:5",
            ]
        )
        assert rc == 0

        header, rows = csv_rows(tmp_path / "fig5a.csv")
        assert header == ["phi_deg", "prior", "p_down"]
        assert len(rows) == 3 * 181
        crossing = [r for r in rows if float(r[0]) == 90.0]
        assert len(crossing) == 3
        for r in crossing:
            assert float(r[2]) == pytest.approx(1.0, abs=1e-9)

        header, rows = csv_rows(tmp_path / "fig5b.csv")
        assert header == ["phi_deg", "port", "p_down", "click_prob"]
        ports = {r[1] for r in rows}
        assert ports == {"transmitted", "reflected"}
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0

        header, rows = csv_rows(tmp_path / "fig5_inset.csv")
        assert header == ["delta_mhz", "p_down"]
        assert len(rows) == 5


    def test_draws_one_ensemble(self, tmp_path, monkeypatch):
        original = montecarlo.threshold_trajectories
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
        assert main(["fig5", "--out", str(tmp_path), "--samples", "20", "--grid=-1:1:3"]) == 0
        assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["fig2", "--samples", "2", "--grid=-1:1:3"],
        ["fig4", "--samples", "20", "--grid=-1:1:3"],
        ["fig5", "--samples", "20", "--grid=-1:1:3"],
        ["fig6"],
        ["validate", "--samples", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_manifest_round_trip_is_byte_identical(tmp_path, capsys, argv):
    command = argv[0]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + ["--out", str(first)]) == 0
    manifest = first / f"{command}.manifest.json"
    assert main([command, "--config", str(manifest), "--out", str(second)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    assert f"{command}.manifest.json" in names
    for name in names:
        assert read(first / name) == read(second / name)


@pytest.mark.parametrize(
    "command, key, value",
    [("fig6", "samples", "5"), ("fig6", "grid", "-1:1:3"), ("validate", "grid", "-1:1:3")],
)
def test_unread_config_key_is_recorded_as_null(tmp_path, capsys, command, key, value):
    # The same value as a flag exits 2; from a config file it is checked, then dropped.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert json.loads(read(tmp_path / f"{command}.manifest.json"))[key] is None


class TestErrorHandling:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--grid=1:2"],
            ["fig4", "--grid=2:1:5"],
            ["fig4", "--grid=a:b:c"],
            ["fig4", "--grid=-1:1:0"],
            ["fig4", "--seed", "-3"],
            ["fig4", "--samples", "0"],
            # flags the command does not read
            ["fig6", "--samples", "3"],
            ["fig6", "--grid=1:2:3"],
            ["validate", "--grid=1:2:3"],
        ],
    )
    def test_bad_run_arguments_exit_2(self, tmp_path, capsys, argv):
        rc = main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err != ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body",
        # the last names another command, whose run keys are checked, then dropped
        ["seed = abc\n", "samples = 2.5\n", '{"samples": true}', "command = fig5\nsamples = abc\n"],
    )
    def test_non_integer_run_key_exit_2(self, tmp_path, capsys, body):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(body)
        rc = main(["fig4", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_with_null_run_keys_loads(self, tmp_path, capsys):
        # fig6 records seed, samples and grid as null; fig5 reads all three.
        assert main(["fig6", "--out", str(tmp_path / "fig6")]) == 0
        manifest = tmp_path / "fig6" / "fig6.manifest.json"
        assert main(["fig5", "--config", str(manifest), "--out", str(tmp_path / "fig5")]) == 0
        assert json.loads(read(tmp_path / "fig5" / "fig5.manifest.json"))["seed"] == 12345

    def test_unknown_command_in_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("command = fig9\n")
        rc = main(["fig5", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "command must be one of" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["seed", "samples", "grid"])
    def test_null_run_key_the_command_reads_exit_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: None}))
        rc = main(["fig5", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{key} is read by fig5 and cannot be null" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("fig4", "time_step_us", "0"),
            # 34 / 0.7 and 4 / 0.7 are not whole; 100 us exceeds either window.
            ("fig4", "time_step_us", "0.7"),
            ("fig4", "time_step_us", "100"),
            ("fig5", "time_step_us", "0.7"),
            ("fig5", "time_step_us", "100"),
            ("fig4", "window_us", "0"),
            ("fig5", "window_us", "0"),
            ("fig4", "v_fall_mps", "-1"),
            ("fig4", "excitation_waist_um", "0"),
            ("fig2", "excitation_waist_um", "-24"),
            ("fig4", "rate_max_per_s", "0"),
            ("fig4", "coincidence_window_ns", "-600"),
            ("fig4", "v_transverse_rms_mps", "-0.1"),
            ("fig4", "selection_threshold", "1.5"),
            ("fig4", "selection_threshold", "1"),
            ("fig4", "selection_threshold", "-0.1"),
            ("fig4", "window_us", "nan"),
            ("fig4", "v_fall_mps", "fast"),
            ("fig4", "ensemble", "levitating"),
            # validate reads none of these, so a file naming no command holds unknown keys.
            ("validate", "window_us", "-1"),
            ("validate", "selection_threshold", "7"),
            ("validate", "ensemble", "levitating"),
        ],
    )
    def test_out_of_range_run_key_exit_2(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        message = f"unknown configuration keys: {key}" if command == "validate" else f"{key} must be"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [("fig5", "selection_threshold", "0.5"), ("fig6", "coincidence_window_ns", "5"),
         ("fig2", "ensemble", "coincidence")],
    )
    def test_other_commands_run_key_exit_2(self, tmp_path, capsys, command, key, value):
        # A file naming no command lends its run keys to this command only; a
        # valid key that only another command reads is unknown here.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"unknown configuration keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fig5", "fig6", "validate"])
    def test_sibling_manifest_loads(self, tmp_path, capsys, command):
        first = tmp_path / "fig4"
        assert main(["fig4", "--samples", "20", "--grid=-1:1:3", "--out", str(first)]) == 0
        manifest = first / "fig4.manifest.json"
        # fig4's run keys stay behind; a changed physics key carries over.
        data = json.loads(read(manifest))
        data["g0_mhz"] = 2.5
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        out = tmp_path / command
        assert main([command, "--config", str(manifest), "--out", str(out)]) == 0
        recorded = json.loads(read(out / f"{command}.manifest.json"))
        assert recorded["g0_mhz"] == 2.5
        if command == "validate":
            assert "over 300 draws" in capsys.readouterr().out
        if command == "fig5":
            assert (recorded["samples"], recorded["grid"], recorded["window_us"]) == (
                2000, "-3:3:121", 4.0
            )

    @pytest.mark.parametrize(
        "command, body, argv",
        [
            ("fig5", "window_us = inf\n", []),
            ("fig4", "v_fall_mps = inf\n", []),
            ("fig4", "kappa_mhz = nan\n", []),
            ("fig4", "kappa_mhz = inf\n", []),
            ("fig4", "", ["--grid=nan:1:5"]),
            ("fig4", "", ["--grid=-inf:inf:3"]),
            # numbers too large for a float
            pytest.param("fig6", "g0_mhz = 1" + "0" * 400 + "\n", [], id="huge-physics-key"),
            pytest.param("fig6", '{"g0_mhz": 1' + "0" * 400 + "}", [], id="huge-json-key"),
            pytest.param("fig5", "window_us = 1" + "0" * 400 + "\n", [], id="huge-run-key"),
            # finite in MHz, beyond a float once converted to rad/s
            *(
                pytest.param(command, "", ["--grid=1e308:1.7e308:3"], id=f"{command}-huge-grid")
                for command in ("fig2", "fig4", "fig5")
            ),
        ],
    )
    def test_non_finite_value_exit_2(self, tmp_path, capsys, command, body, argv):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(body)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *argv])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            (b'{"command": ["fig4"]}', "command must be one of"),
            # "\xb5" is a Latin-1 micro sign, not UTF-8
            (b"length_um = 200  # 200 \xb5m\n", "cannot read config file"),
        ],
        ids=["unhashable-command", "not-utf-8"],
    )
    def test_malformed_config_file_exit_2(self, tmp_path, capsys, body, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(body)
        rc = main(["fig4", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_key_given_twice_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("g0_mhz = 2\ng0_mhz = 3\n")
        rc = main(["fig6", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line 2: key 'g0_mhz' given twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fig4", "fig5"])
    def test_non_finite_cell_exit_1(self, tmp_path, command):
        # Finite grid bounds at which the transmittance overflows to nan. The
        # run is a subprocess, so numpy's overflow warning stays a warning.
        src = os.path.dirname(os.path.dirname(spinfaraday.__file__))
        argv = [command, "--samples", "20", "--grid=1e294:1e295:3", "--out", str(tmp_path)]
        out = subprocess.run(
            [sys.executable, "-m", "spinfaraday.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert "holds non-finite nan" in out.stderr
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_cell_names_its_file_and_column(self, tmp_path, capsys, monkeypatch):
        # In process: a body that hands over a nan cell exits 1 before any write.
        help_text, defaults, _ = cli._COMMANDS["fig6"]

        def body(params, geometry, run, grid, write):
            write("fig6a.csv", ["length_um", "max_angle_deg"], [[150.0, 27.1], [200.0, np.nan]])
            return 0

        monkeypatch.setitem(cli._COMMANDS, "fig6", (help_text, defaults, body))
        rc = main(["fig6", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: fig6a.csv: column max_angle_deg holds non-finite nan"
        ]
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("coupling_mhz = 2.8\n")
        rc = main(["fig6", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "coupling_mhz" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [True, "2.8"])
    def test_non_numeric_physics_value_exit_2(self, tmp_path, capsys, value):
        # A JSON boolean or quoted number is not a number; key=value text is
        # parsed into numbers before it gets here.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"g0_mhz": value}))
        rc = main(["fig6", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'g0_mhz' must be numeric" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_physics_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kappa_mhz = -4.4\n")
        rc = main(["fig6", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        capsys.readouterr()
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["fig6", "--config", str(tmp_path / "absent.json"), "--out", str(out)])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err
        assert not out.exists()

    def test_failure_during_the_run_writes_nothing(self, tmp_path, capsys):
        # The mirror radius passes the settings check, but the fixed length
        # scan runs past 2 * roc = 4 mm, an unstable cavity, mid-computation.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("roc_mm = 2\n")
        rc = main(["fig6", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unstable cavity" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failing_validate_writes_nothing(self, tmp_path, capsys):
        # A 0.9999 reflectivity moves the derived kappa off its anchor.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("reflectivity = 0.9999\n")
        rc = main(["validate", "--samples", "20", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "FAIL  derived cavity decay" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_bad_grid_writes_no_files(self, tmp_path):
        main(["fig4", "--grid=oops", "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "error",
        [
            lindblad.CutoffError,
            montecarlo.SelectionError,
            measurement.MeasurementError,
            optics.InsufficientCountsError,
            np.linalg.LinAlgError,
            MemoryError,
        ],
    )
    def test_numerical_failure_exit_1(self, tmp_path, capsys, monkeypatch, error):
        def fail(**_):
            raise error("injected")

        monkeypatch.setattr(cli, "scan_length", fail)
        rc = main(["fig6", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: injected")
        assert not (tmp_path / "out").exists()

    def test_every_package_error_reaches_the_two_base_catch(self):
        # main catches ValueError and RuntimeError alone, so an error class
        # with any other base would escape as a traceback.
        defined = {
            cls
            for info in pkgutil.iter_modules(spinfaraday.__path__, "spinfaraday.")
            for _, cls in inspect.getmembers(importlib.import_module(info.name), inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == info.name
        }
        assert {cls.__name__ for cls in defined} >= {
            "ConfigError", "CutoffError", "GeometryError", "InsufficientCountsError",
            "MeasurementError", "SelectionError",
        }
        assert [c for c in defined if not issubclass(c, (ValueError, RuntimeError))] == []


class TestOutputDirectory:
    def test_environment_variable_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(target))
        assert main(["validate", "--samples", "20"]) == 0
        assert (target / "validate.manifest.json").exists()

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "env"))
        explicit = tmp_path / "flag"
        assert main(["validate", "--samples", "20", "--out", str(explicit)]) == 0
        assert (explicit / "validate.manifest.json").exists()
        assert not (tmp_path / "env").exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "beneath-a-file"])
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_uncreatable_directory_exit_2(self, tmp_path, capsys, monkeypatch, below, source):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        target = str(afile / below) if below else str(afile)
        argv = ["fig6"]
        if source == "flag":
            argv += ["--out", target]
        else:
            monkeypatch.setenv(OUTPUT_ENV_VAR, target)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot create output directory {target!r}")
        assert "Traceback" not in err
        assert afile.read_text() == "kept\n"

    def test_write_failure_exit_1(self, tmp_path, capsys):
        # A directory squatting on the manifest's name makes its open fail.
        (tmp_path / "validate.manifest.json").mkdir()
        assert main(["validate", "--samples", "5", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "validate.manifest.json" in err

    def test_grid_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": "-1:1:3"}))
        rc = main(
            [
                "fig4",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
                "--samples",
                "20",
                "--grid=-2:2:7",
            ]
        )
        assert rc == 0
        manifest = json.loads(read(tmp_path / "fig4.manifest.json"))
        assert manifest["grid"] == "-2:2:7"
        _, rows = csv_rows(tmp_path / "fig4a.csv")
        assert len(rows) == 7


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


# Physics keys drawn by the config-space property, log-uniform over wide
# ranges; reflectivity is drawn as 1 - R.
PHYSICS_DRAWS = {
    "g0_mhz": st.one_of(st.just(0.0), log_uniform(1e-4, 1e3)),
    "kappa_mhz": log_uniform(1e-4, 1e3),
    "gamma_khz": log_uniform(1e-2, 1e5),
    "length_um": log_uniform(1.0, 9e4),
    "roc_mm": log_uniform(0.1, 1e3),  # below length / 2 the cavity is unstable: exit 2
    "reflectivity": log_uniform(1e-9, 0.5).map(lambda loss: 1.0 - loss),
    "wavelength_nm": log_uniform(10.0, 1e5),
    "waist_um": log_uniform(1e-2, 1e4),
    "rabi_mhz": log_uniform(1e-4, 1e3),
}

# Run keys within their rules, three of them capped for time. A
# selection_threshold under 0.99 keeps a threshold selection from drawing
# 4e6 candidates before it is judged hopeless. rate_max_per_s <= 1e6 and
# v_fall_mps >= 0.2 keep the coincidence sampler's rows within 1.8 times
# their default width, so a hopeless coincidence selection (50,000
# candidates) takes about 0.6 s. fig2 needs no cap: at 2 sites and 5
# detunings a climb to cutoff 9 takes 0.6-0.9 s.
RUN_DRAWS = {
    "seed": st.integers(0, 2**32 - 1),
    "excitation_waist_um": log_uniform(0.1, 1e3),
    "selection_threshold": st.floats(0.0, 0.99),
    "rate_max_per_s": log_uniform(1e3, 1e6),
    "coincidence_window_ns": log_uniform(1.0, 1e4),
    "v_fall_mps": log_uniform(0.2, 3.0),
    "v_transverse_rms_mps": st.one_of(st.just(0.0), log_uniform(1e-3, 1.0)),
}

# Each command at a tiny size.
TINY_RUNS = {
    "fig2": ["--samples", "2", "--grid=-5:5:5"],
    "fig4": ["--samples", "20"],
    "fig5": ["--samples", "20"],
    "fig6": [],
    "validate": ["--samples", "20"],
}


@st.composite
def configs(draw, command):
    """1-4 physics keys and some of the run keys ``command`` accepts."""
    config = {
        key: draw(PHYSICS_DRAWS[key])
        for key in draw(st.lists(st.sampled_from(sorted(PHYSICS_DRAWS)), min_size=1,
                                 max_size=4, unique=True))
    }
    accepted = [key for key in RUN_DRAWS if key in cli._COMMANDS[command][1]]  # seed at least
    for key in draw(st.lists(st.sampled_from(accepted), unique=True)):
        config[key] = draw(RUN_DRAWS[key])
    if command == "fig4":
        config["ensemble"] = draw(st.sampled_from(["threshold", "coincidence"]))
    if command in ("fig4", "fig5") and draw(st.booleans()):
        window = draw(log_uniform(0.1, 100.0))
        config["window_us"] = window
        config["time_step_us"] = window / draw(st.integers(1, 100))
    return config


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_accepted_config_space(command, data):
    # Aim 3 over the config space: any drawn config either runs cleanly or
    # stops with one error line, a status of 1 or 2 and no output directory.
    config = data.draw(configs(command))
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = os.path.join(tmp, "c.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            # Garbage collection can report any file left open in the process.
            warnings.simplefilter("ignore", ResourceWarning)
            rc = main([command, *TINY_RUNS[command], "--config", path, "--out", out_dir])
        assert [str(w.message) for w in caught] == []
        assert rc in (0, 1, 2)
        errors = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
        if rc == 0:
            assert errors == []
            for name in os.listdir(out_dir):
                if name.endswith(".csv"):
                    _, rows = csv_rows(os.path.join(out_dir, name))
                    for cell in (cell for row in rows for cell in row):
                        with contextlib.suppress(ValueError):
                            assert math.isfinite(float(cell)), (name, cell)
            return
        assert not os.path.exists(out_dir)
        if command == "validate" and rc == 1 and not errors:
            # validate still fails its anchor checks at valid geometries and rates.
            failed = [line for line in out.getvalue().splitlines() if line.startswith("FAIL")]
            assert failed and out.getvalue().endswith(f"{len(failed)} check(s) failed\n")
        else:
            prefix = "configuration error: " if rc == 2 else "error: "
            assert len(errors) == 1 and errors[0].startswith(prefix), errors
