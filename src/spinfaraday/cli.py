"""Command-line front end.

Each subcommand reproduces one figure-style dataset as CSV (angles in
degrees, detunings in MHz; everything stays in rad/s internally) and writes
a JSON manifest echoing the fully-resolved configuration. Re-running a
command from its own manifest reproduces the output byte for byte. The
commands, their run-level defaults and their bodies form the ``_COMMANDS``
table; ``spinfaraday --help`` lists them.

Every command accepts ``--seed``, so one seed can be passed to all of them;
fig6 draws nothing random and ignores it. A run resolves and checks its
settings, computes, and only then writes, so a command that stops on an
error writes no file.

Exit codes: 0 success, 1 numerical failure, exhausted memory or a failed
write, 2 configuration error (an output directory that cannot be created
among them).
The default output directory can be set with SPINFARADAY_OUT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable

import numpy as np

from .lindblad import fluorescence_lineshape, transmittance_steady
from .measurement import (
    conditional_curves,
    conditional_population,
    detection_prob_down,
    kraus,
    population_vs_detuning,
    pure_rotation_curves,
)
from .montecarlo import (
    MotionModel,
    average_rotation,
    average_transmittance,
    coincidence_clicks,
    lineshape_sites,
    sample_selected_trajectories,
    threshold_trajectories,
)
from .optics import rotation_curve, t_minus_value
from .params import (
    ConfigError,
    GeometryError,
    TWO_PI,
    build_settings,
    derive_kappa,
    derive_waist,
    load_config,
    settings_to_flat,
)
from .scans import scan_length, scan_reflectivity

OUTPUT_ENV_VAR = "SPINFARADAY_OUT"

ENSEMBLE_THRESHOLD = "threshold"
ENSEMBLE_COINCIDENCE = "coincidence"

# Rows of validate's random draws that each check evaluates per array call.
DRAW_BLOCK = 4096

# Falling-atom kinematics shared by fig4 and fig5; fig5 probes a shorter window.
_MOTION_DEFAULTS = {
    "v_fall_mps": 0.3, "v_transverse_rms_mps": 0.04, "window_us": 34.0, "time_step_us": 0.5,
}

# Numeric run keys: (rule as printed, test of an admitted value).
_RUN_RANGES: dict[str, tuple[str, Callable[[float], bool]]] = {
    **dict.fromkeys(
        ("time_step_us", "window_us", "v_fall_mps", "excitation_waist_um",
         "rate_max_per_s", "coincidence_window_ns"),
        ("> 0", lambda x: x > 0.0),
    ),
    "v_transverse_rms_mps": (">= 0", lambda x: x >= 0.0),
    "selection_threshold": ("in [0, 1)", lambda x: 0.0 <= x < 1.0),
}


def _check_run_key(key: str, value: object) -> None:
    """Raise ConfigError unless a run key's value obeys its rule. A null seed,
    samples or grid is how a manifest records a key its command does not read."""
    if key in ("seed", "samples", "grid") and value is None:
        return
    if key in ("seed", "samples"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if key == "seed" and value < 0:
            raise ConfigError("seed must be non-negative")
        if key == "samples" and value < 1:
            raise ConfigError("samples must be at least 1")
    elif key == "grid":
        _parse_grid(value)
    elif key in _RUN_RANGES:
        rule, admitted = _RUN_RANGES[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        # An exact comparison: an int too large for a float fails it, as do NaN and inf.
        if not (number and abs(value) <= sys.float_info.max and admitted(value)):
            raise ConfigError(f"{key} must be a finite number {rule}, got {value!r}")
    elif key == "ensemble" and str(value) not in (ENSEMBLE_THRESHOLD, ENSEMBLE_COINCIDENCE):
        raise ConfigError(
            f"ensemble must be '{ENSEMBLE_THRESHOLD}' or '{ENSEMBLE_COINCIDENCE}', got {value!r}"
        )


def _resolve(args: argparse.Namespace):
    """Merge CLI flags > config file > defaults, check them, and parse the grid."""
    defaults = _COMMANDS[args.command][1]
    file_cfg = dict(load_config(args.config)) if args.config else {}

    run = dict(defaults)
    # Run keys belong to the command the file names, or to this one if it
    # names none; another command's are checked, then dropped, so its
    # manifest lends only physics keys. build_settings rejects any other key.
    command = file_cfg.pop("command", args.command)
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ConfigError(f"command must be one of {', '.join(_COMMANDS)}, got {command!r}")
    taken = {key: file_cfg.pop(key) for key in _COMMANDS[command][1] if key in file_cfg}
    if command == args.command:
        run.update(taken)
    else:
        for key, value in taken.items():
            _check_run_key(key, value)

    # Every command takes --seed, so one seed can be passed to all of them.
    if args.seed is not None:
        run["seed"] = args.seed
    for key in ("samples", "grid"):
        flag = getattr(args, key)
        if flag is None:
            continue
        if defaults[key] is None:
            raise ConfigError(f"--{key} is not read by {args.command}")
        run[key] = flag

    for key, value in run.items():
        if value is None and defaults[key] is not None:
            raise ConfigError(f"{key} is read by {args.command} and cannot be null")
        _check_run_key(key, value)
    if "time_step_us" in run:
        # MotionModel owns the window rule; build one now so a bad window
        # stops the run before any work.
        try:
            _motion_from_run(run)
        except ValueError as exc:
            raise ConfigError(
                "time_step_us must be window_us / n for a whole n >= 1, "
                f"got {run['window_us']!r} / {run['time_step_us']!r}"
            ) from exc
    if run.get("ensemble") == ENSEMBLE_COINCIDENCE:
        try:
            coincidence_clicks(float(run["rate_max_per_s"]), float(run["v_fall_mps"]))
        except ValueError as exc:
            raise ConfigError(f"rate_max_per_s / v_fall_mps: {exc}") from exc

    params, geometry, detection = build_settings(file_cfg)
    # Run keys the command does not read are checked above, then dropped:
    # they reach neither the body nor the manifest.
    run.update((key, None) for key, default in defaults.items() if default is None)
    grid = None if run["grid"] is None else _parse_grid(run["grid"])
    return params, geometry, detection, run, grid


def _parse_grid(text: object) -> np.ndarray:
    """Parse 'min:max:n' (MHz) into a detuning grid in rad/s with finite bounds."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be 'min:max:n' in MHz, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid must be 'min:max:n' in MHz, got {text!r}") from exc
    scale = TWO_PI * 1e6
    if not (math.isfinite(lo * scale) and math.isfinite(hi * scale)):
        raise ConfigError(f"grid bounds must be finite in rad/s, got {text!r}")
    if n < 1:
        raise ConfigError("grid must contain at least one point")
    if hi < lo or (hi == lo and n > 1):
        raise ConfigError("grid maximum must exceed the minimum")
    return scale * np.linspace(lo, hi, n)


def _format_cell(value: object) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.10g}"


def _motion_from_run(run: dict) -> MotionModel:
    return MotionModel(
        v_fall=float(run["v_fall_mps"]),
        v_transverse_rms=float(run["v_transverse_rms_mps"]),
        window=float(run["window_us"]) * 1e-6,
        seed=int(run["seed"]),
        time_step=float(run["time_step_us"]) * 1e-6,
    )


def _fig2(params, geometry, run, grid, write) -> int:
    n = int(run["samples"])
    sites = lineshape_sites(params, n, int(run["seed"]), float(run["excitation_waist_um"]) * 1e-6)
    rows = []
    for label, scale in (("1 nW", 1.0 / 300.0), ("100 nW", 100.0 / 300.0), ("300 nW", 1.0)):
        shape = fluorescence_lineshape(params, scale, grid, *sites)
        if shape.failed_points:
            # failed_points counts grid points over every site.
            print(
                f"warning: {shape.failed_points}/{n * grid.size} solver points failed "
                f"for {label}; curve continued without them",
                file=sys.stderr,
            )
        for detuning, value in zip(grid, shape.normalized):
            rows.append([detuning / (TWO_PI * 1e6), value, label])
    write("fig2.csv", ["detuning_mhz", "normalized_fluorescence", "power_label"], rows)
    return 0


def _fig4(params, geometry, run, grid, write) -> int:
    motion = _motion_from_run(run)
    n = int(run["samples"])
    if run["ensemble"] == ENSEMBLE_THRESHOLD:
        trajectories = threshold_trajectories(
            motion, params, n, threshold=float(run["selection_threshold"])
        )
    else:
        trajectories = sample_selected_trajectories(
            motion,
            params,
            n,
            window_ns=float(run["coincidence_window_ns"]),
            rate_max=float(run["rate_max_per_s"]),
            excitation_waist=float(run["excitation_waist_um"]) * 1e-6,
        )

    delta_mhz = grid / (TWO_PI * 1e6)
    averaged_t = average_transmittance(trajectories, grid, params)
    pinned_t = np.abs(t_minus_value(grid, params.g0, params))
    # Staged first: non-finite moments show here, with the file and column
    # named, before the count estimator would reject them.
    write(
        "fig4a.csv",
        ["delta_mhz", "averaged_transmittance", "pinned_transmittance"],
        list(zip(delta_mhz, averaged_t, pinned_t)),
    )
    averaged_angle = np.degrees(average_rotation(trajectories, grid, params))
    pinned_angle = np.degrees(rotation_curve(grid, params.g0, params))
    write(
        "fig4b.csv",
        ["delta_mhz", "averaged_angle_deg", "pinned_angle_deg"],
        list(zip(delta_mhz, averaged_angle, pinned_angle)),
    )
    return 0


def _fig5(params, geometry, run, grid, write) -> int:
    motion = _motion_from_run(run)
    n = int(run["samples"])

    # Panel (a): ideal rotation of -10 degrees, three priors, transmitted port.
    phi_deg = np.linspace(0.0, 180.0, 181)
    phi = np.radians(phi_deg)
    priors = (0.75, 0.5, 0.25)
    curves = pure_rotation_curves(math.radians(-10.0), priors, phi)
    rows_a = [[deg, prior, p] for prior, row in zip(priors, curves) for deg, p in zip(phi_deg, row)]
    write("fig5a.csv", ["phi_deg", "prior", "p_down"], rows_a)

    # Panel (b): elliptical transmittance at delta = -2pi x 1.1 MHz averaged
    # over one threshold-selected ensemble and its probe window, both analyzer
    # ports, prior 1/2. The inset averages over the same ensemble.
    trajectories = threshold_trajectories(motion, params, n)
    p_down, click = conditional_curves(0.5, phi, -TWO_PI * 1.1e6, params, trajectories)
    rows_b = [
        [deg, port, p, c]
        for port, p_row, c_row in zip(("transmitted", "reflected"), p_down, click)
        for deg, p, c in zip(phi_deg, p_row, c_row)
    ]
    write("fig5b.csv", ["phi_deg", "port", "p_down", "click_prob"], rows_b)

    # Inset: population versus detuning at a fixed 60-degree analyzer.
    inset = population_vs_detuning(0.5, math.radians(60.0), grid, params, trajectories)
    write("fig5_inset.csv", ["delta_mhz", "p_down"], list(zip(grid / (TWO_PI * 1e6), inset)))
    return 0


def _fig6(params, geometry, run, grid, write) -> int:
    write("fig6a.csv", *scan_length(anchor=params, anchor_geometry=geometry).rows())
    write("fig6b.csv", *scan_reflectivity(anchor=params, anchor_geometry=geometry).rows())
    return 0


def _draw_checks(rng: np.random.Generator, draws: int, low, high, identities):
    """Yield (name, passed, detail) for each (name, deviation) of ``identities``.

    All of them read the same ``draws`` rows of uniforms in [low, high), drawn
    in the order of one scalar draw after another, ``DRAW_BLOCK`` rows at a
    time, so memory stays bounded as ``draws`` grows. Each deviation takes a
    block's columns as arrays and returns one value per row; the running worst
    is an ``np.maximum``, so a NaN deviation fails its check.
    """
    worst = [-np.inf] * len(identities)
    for start in range(0, draws, DRAW_BLOCK):
        block = rng.uniform(low, high, size=(min(DRAW_BLOCK, draws - start), len(low))).T
        for k, (_, deviation) in enumerate(identities):
            worst[k] = np.maximum(worst[k], np.max(deviation(*block)))
    for (name, _), value in zip(identities, worst):
        yield name, value < 1e-12, f"max deviation {value:.3e} over {draws} draws (tol 1e-12)"


def _completeness(theta, phi, basis):
    """Kraus weights of both ports (reflected: analyzer a quarter turn on), off identity."""
    ops = kraus(theta, phi), kraus(theta, phi + math.pi / 2.0)
    total = sum(op.conj().swapaxes(-1, -2) @ op for op in ops)
    return np.max(np.abs(total - np.eye(2)), axis=(-2, -1))


def _reversal(theta, phi, basis):
    product = kraus(-theta, basis - theta) @ kraus(theta, basis)
    scale = np.cos(basis) * np.cos(basis - theta)
    return np.max(np.abs(product - scale[..., None, None] * np.eye(2)), axis=(-2, -1))


def _bayes_total(prior, phi, phase):
    t = np.exp(1j * phase)[..., None]
    ports = np.stack([phi, phi + math.pi / 2.0], axis=-1)
    p_down, click = conditional_population(prior[..., None], ports, t)
    return np.abs(np.sum(p_down * click, axis=-1) - prior)


def _port_sum(phi, magnitude, phase):
    t = magnitude * np.exp(1j * phase)
    total = detection_prob_down(phi, t) + detection_prob_down(phi + math.pi / 2.0, t)
    return np.abs(total - (1.0 + np.square(np.abs(t))) / 2.0)


def _validate_checks(params, geometry, rng: np.random.Generator, draws: int):
    """Yield (name, passed, detail) for the numerical invariant suite."""
    # Steady-state solver against the analytic transmittance.
    deltas = TWO_PI * 1e6 * np.array([-4.0, -1.1, 0.0, 0.7, 3.3])
    analytic = [t_minus_value(delta, params.g0, params) for delta in deltas]
    worst = np.max([
        abs(transmittance_steady(delta, params.g0, params) - a) / abs(a)
        for delta, a in zip(deltas, analytic)
    ])
    yield (
        "steady-state transmittance vs analytic",
        worst < 1e-6,
        f"max relative error {worst:.3e} (tol 1e-06)",
    )

    # Kraus completeness and reversal share each draw's (theta, phi, basis).
    # The Bayes total draws (prior, phi, phase of t) on the lossless manifold
    # |t| = 1, and the port sum (phi, |t|, phase of t) for a lossy t.
    yield from _draw_checks(rng, draws, [-math.pi] * 3, [math.pi] * 3, [
        ("Kraus completeness", _completeness),
        ("measurement reversal proportional to identity", _reversal),
    ])
    yield from _draw_checks(rng, draws, [0.0, 0.0, -math.pi], [1.0, math.pi, math.pi],
                            [("Bayes total probability (lossless)", _bayes_total)])
    yield from _draw_checks(rng, draws, [0.0, 0.0, -math.pi], [math.pi, 1.0, math.pi],
                            [("two-port click probability sum", _port_sum)])

    # Geometry anchors.
    waist = derive_waist(geometry, params.wavelength)
    kappa = derive_kappa(geometry)
    waist_ok = abs(waist - 19e-6) < 1e-6
    kappa_ok = abs(kappa - TWO_PI * 4.5e6) / (TWO_PI * 4.5e6) < 0.05
    yield (
        "derived waist near 19 um",
        waist_ok,
        f"waist {waist * 1e6:.3f} um (tol +-1 um)",
    )
    yield (
        "derived cavity decay near 2pi x 4.5 MHz",
        kappa_ok,
        f"kappa 2pi x {kappa / (TWO_PI * 1e6):.4f} MHz (tol 5%)",
    )


def _validate(params, geometry, run, grid, write) -> int:
    rng = np.random.default_rng(int(run["seed"]))
    failures = 0
    for name, passed, detail in _validate_checks(params, geometry, rng, int(run["samples"])):
        tag = "PASS" if passed else "FAIL"
        print(f"{tag}  {name}: {detail}")
        if not passed:
            failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# Command -> (help, run-level defaults, body). Every run-level key is accepted
# as a config-file key (and echoed into the manifest); remaining keys must be
# physics keys. A None default marks a run key the command does not read: its
# --samples or --grid flag is a configuration error, and a config-file value
# is checked, then recorded as null. A body only computes: it passes each
# table to ``write`` as (file name, header, rows) and returns the exit status.
_COMMANDS: dict[str, tuple[str, dict[str, object], Callable[..., int]]] = {
    "fig2": (
        "fluorescence lineshapes at 1/100/300 nW-equivalent powers",
        {"seed": 7, "samples": 1000, "grid": "-10:10:121", "excitation_waist_um": 24.0},
        _fig2,
    ),
    "fig4": (
        "ensemble-averaged transmittance and rotation vs detuning",
        {
            "seed": 12345, "samples": 10000, "grid": "-3:3:121",
            "ensemble": ENSEMBLE_THRESHOLD, "selection_threshold": 0.9,
            "rate_max_per_s": 7.6e5, "coincidence_window_ns": 600.0, "excitation_waist_um": 24.0,
            **_MOTION_DEFAULTS,
        },
        _fig4,
    ),
    "fig5": (
        "conditional spin populations vs analyzer angle",
        {"seed": 12345, "samples": 2000, "grid": "-3:3:121", **_MOTION_DEFAULTS, "window_us": 4.0},
        _fig5,
    ),
    "fig6": (
        "cavity length and mirror reflectivity design scans",
        {"seed": None, "samples": None, "grid": None},
        _fig6,
    ),
    "validate": (
        "run the numerical invariant suite",
        {"seed": 12345, "samples": 300, "grid": None},
        _validate,
    ),
}


def _run(args: argparse.Namespace) -> int:
    """Resolve the settings, run the command body, then write its output.

    Each table is checked as the body hands it over: a numeric cell that is
    not finite stops the command there, before any later table is computed
    and before anything is written.
    """
    params, geometry, detection, run, grid = _resolve(args)
    tables: list[tuple[str, list, list]] = []

    def stage(name: str, header: list, rows: list) -> None:
        for row in rows:
            for column, value in zip(header, row):
                if not isinstance(value, str) and not math.isfinite(value):
                    raise RuntimeError(f"{name}: column {column} holds non-finite {value}")
        tables.append((name, header, rows))

    status = _COMMANDS[args.command][2](params, geometry, run, grid, stage)
    if status:
        return status

    out_dir = args.out or os.environ.get(OUTPUT_ENV_VAR) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc.strerror}") from exc
    manifest = f"{args.command}.manifest.json"
    payload = {"command": args.command, **run, **settings_to_flat(params, geometry, detection)}
    with open(os.path.join(out_dir, manifest), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, header, rows in tables:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# manifest: {manifest}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_cell(v) for v in row) + "\n")
        print(f"wrote {path}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfaraday",
        description="Cavity-enhanced spin-dependent polarization rotation: figure data and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON or key=value config file")
        sp.add_argument(
            "--out",
            metavar="DIR",
            help=f"output directory (default: ${OUTPUT_ENV_VAR} or current directory)",
        )
        sp.add_argument(
            "--seed", type=int, metavar="N",
            help="random seed override; every command accepts it (fig6 ignores it)",
        )
        sp.add_argument(
            "--samples", type=int, metavar="N", help="sample count override"
        )
        sp.add_argument(
            "--grid",
            metavar="MIN:MAX:N",
            help="detuning grid in MHz; write --grid=-3:3:121 for negative minima",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
