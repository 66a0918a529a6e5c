"""Acceptance gate: one test per criterion, each at its declared tolerance.

Each test prints a single ``AC<n> PASS/FAIL`` line (visible with ``pytest -s``
or in the failure report) and then asserts. Three criteria are known not to
hold for the model as built and fail honestly; README.md discusses each.
"""

import math
import time

import numpy as np
import pytest

from spinfaraday.cli import main
from spinfaraday.lindblad import (
    LindbladModel,
    curve_fwhm,
    fluorescence_lineshape,
    fluorescence_rate,
    purcell_rate_formula,
    transmittance_steady,
)
from spinfaraday.measurement import (
    REFLECTED,
    TRANSMITTED,
    conditional_curves,
    conditional_population,
    kraus,
    pure_rotation_curves,
)
from spinfaraday.montecarlo import (
    MotionModel,
    average_rotation,
    threshold_trajectories,
)
from spinfaraday.optics import rotation_curve, t_minus_value
from spinfaraday.params import (
    DEFAULT_GEOMETRY,
    DEFAULT_PARAMS,
    TWO_PI,
    derive_kappa,
    derive_waist,
)
from spinfaraday.scans import (
    CAVITY_EQUALS_ATOM,
    PROBE_EQUALS_CAVITY,
    max_rotation,
    scan_length,
    scan_reflectivity,
)

P = DEFAULT_PARAMS
MHZ = TWO_PI * 1e6


def report(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def design_scans():
    """Both geometry scans plus their combined wall-clock time."""
    start = time.perf_counter()
    length = scan_length()
    reflectivity = scan_reflectivity()
    elapsed = time.perf_counter() - start
    return length, reflectivity, elapsed


def test_ac01_master_equation_matches_analytic_transmittance():
    start = time.perf_counter()
    deltas = MHZ * np.linspace(-6.0, 6.0, 25)
    worst = 0.0
    for delta in deltas:
        numeric = transmittance_steady(float(delta), P.g0, P)
        analytic = complex(t_minus_value(float(delta), P.g0, P))
        worst = max(worst, abs(numeric - analytic) / abs(analytic))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(
        "AC1",
        ok,
        f"steady-state vs analytic transmittance: worst rel err {worst:.2e} "
        f"(< 1e-6) on 25 points, {elapsed:.1f} s (< 30 s)",
    )


def test_ac02_purcell_rate_and_detected_counts():
    omega = TWO_PI * 0.01e6
    model = LindbladModel(
        fock_cutoff=4,
        g=P.g0,
        kappa=P.kappa,
        gamma=P.gamma,
        drive_amplitude=0.5 * omega,
        drive_target="atom",
        detuning_atom=0.0,
        detuning_cavity=0.0,
    )
    numeric = fluorescence_rate(model)
    formula = purcell_rate_formula(P, omega)
    ratio = numeric / formula
    detected = 0.4 * purcell_rate_formula(P)
    target = 7.6e5
    ok = abs(ratio - 1.0) < 0.10 and abs(detected - target) / target < 0.10
    report(
        "AC2",
        ok,
        f"resonant output rate / formula = {ratio:.4f} (within 10%); "
        f"detected rate at 40% efficiency = {detected:.3g} /s "
        f"vs {target:.3g} /s ({abs(detected - target) / target:.1%} off, < 10%)",
    )


def test_ac03_geometry_anchors():
    waist_um = derive_waist(DEFAULT_GEOMETRY) * 1e6
    kappa_mhz = derive_kappa(DEFAULT_GEOMETRY) / MHZ
    ok = abs(waist_um - 19.0) <= 1.0 and abs(kappa_mhz - 4.5) / 4.5 <= 0.05
    report(
        "AC3",
        ok,
        f"waist {waist_um:.2f} um (19 +- 1); kappa/2pi {kappa_mhz:.3f} MHz "
        f"(4.5 +- 5%)",
    )


def test_ac04a_max_rotation_probe_on_cavity():
    angle = math.degrees(max_rotation(P, PROBE_EQUALS_CAVITY).angle)
    ok = abs(angle - 21.1) <= 0.5
    report("AC4a", ok, f"max |rotation| {angle:.2f} deg vs 21.1 +- 0.5 deg")


def test_ac04b_max_rotation_cavity_on_atom():
    angle = math.degrees(max_rotation(P, CAVITY_EQUALS_ATOM).angle)
    ok = abs(angle - 23.6) <= 0.5
    report("AC4b", ok, f"max |rotation| {angle:.2f} deg vs 23.6 +- 0.5 deg")


def test_ac05a_high_reflectivity_endpoint(design_scans):
    _, reflectivity, _ = design_scans
    at = {round(float(r), 9): float(a) for r, a in zip(reflectivity.axis, reflectivity.max_angle_deg)}
    angle = at[0.99999]
    best = reflectivity.best_angle_deg
    ok = abs(angle - 45.0) <= 2.0
    report(
        "AC5a",
        ok,
        f"angle at reflectivity 0.999990 is {angle:.2f} deg vs 45 +- 2 deg "
        f"(scan maximum {best:.3f} deg at reflectivity "
        f"{reflectivity.best_axis_value:.7f})",
    )


def test_ac05b_long_cavity_plateau(design_scans):
    length, _, elapsed = design_scans
    plateau = float(length.max_angle_deg[-1])
    ok = abs(plateau - 28.0) <= 2.0 and elapsed < 300.0
    report(
        "AC5b",
        ok,
        f"angle at 6 mm is {plateau:.2f} deg vs 28 +- 2 deg; "
        f"both scans took {elapsed:.1f} s (< 300 s)",
    )


def test_ac05c_scans_pass_through_quoted_anchor(design_scans):
    length, reflectivity, _ = design_scans
    anchor_by_length = float(length.max_angle_deg[0])
    at = {round(float(r), 9): float(a) for r, a in zip(reflectivity.axis, reflectivity.max_angle_deg)}
    anchor_by_reflectivity = at[round(DEFAULT_GEOMETRY.reflectivity, 9)]
    ok = (
        abs(anchor_by_length - 23.6) <= 0.5
        and abs(anchor_by_reflectivity - 23.6) <= 0.5
    )
    report(
        "AC5c",
        ok,
        f"scan values at the anchor geometry: {anchor_by_length:.2f} deg "
        f"(length scan) and {anchor_by_reflectivity:.2f} deg (reflectivity "
        f"scan) vs 23.6 +- 0.5 deg",
    )


def test_ac06_trajectory_averaged_rotation_peak():
    start = time.perf_counter()
    trajectories = threshold_trajectories(MotionModel(seed=12345), P, 10_000)
    grid = MHZ * np.linspace(-3.0, 3.0, 121)
    averaged = np.degrees(average_rotation(trajectories, grid, P))
    pinned = np.degrees(rotation_curve(grid, P.g0, P))
    i = int(np.argmax(np.abs(averaged)))
    peak = abs(float(averaged[i]))
    peak_delta_mhz = abs(float(grid[i])) / MHZ
    ratio = peak / float(np.max(np.abs(pinned)))
    elapsed = time.perf_counter() - start
    ok = (
        peak > 10.0
        and 0.25 <= peak_delta_mhz <= 1.75
        and 0.40 <= ratio <= 0.60
        and elapsed < 600.0
    )
    report(
        "AC6",
        ok,
        f"averaged peak {peak:.2f} deg (> 10) at |detuning| "
        f"{peak_delta_mhz:.2f} MHz (near 1), ratio to pinned {ratio:.3f} "
        f"(40-60%), 10^4 trajectories in {elapsed:.1f} s (< 600 s)",
    )


def test_ac07_measurement_algebra_identities():
    rng = np.random.default_rng(20260815)
    worst_complete = 0.0
    worst_reversal = 0.0
    for _ in range(1000):
        theta = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
        phi = rng.uniform(0.0, math.pi)
        op = kraus(theta, phi)
        reflected = kraus(theta, phi + math.pi / 2.0)
        total = op.conj().T @ op + reflected.conj().T @ reflected
        worst_complete = max(
            worst_complete, float(np.max(np.abs(total - np.eye(2))))
        )
        reversal = kraus(theta, theta - phi)
        product = reversal @ op
        scale = product[0, 0]
        worst_reversal = max(
            worst_reversal,
            float(np.max(np.abs(product - scale * np.eye(2)))),
        )

    worst_bayes = 0.0
    for _ in range(1000):
        prior = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, math.pi)
        delta = rng.uniform(-3.0, 3.0) * MHZ
        g = rng.uniform(0.1, 1.0) * P.g0
        t = complex(t_minus_value(delta, g, P))
        down_weight = 0.5 * (1.0 + abs(t) ** 2)
        total_click = 0.0
        joint_down = 0.0
        for port in (TRANSMITTED, REFLECTED):
            result = conditional_population(prior, phi, t, port=port)
            total_click += result.click_probability
            joint_down += result.p_down_given_click * result.click_probability
        expected_click = (1.0 - prior) + prior * down_weight
        expected_down = prior * down_weight
        worst_bayes = max(
            worst_bayes,
            abs(total_click - expected_click),
            abs(joint_down - expected_down),
        )

    ok = worst_complete < 1e-12 and worst_reversal < 1e-12 and worst_bayes < 1e-12
    report(
        "AC7",
        ok,
        f"completeness {worst_complete:.1e}, reversal {worst_reversal:.1e}, "
        f"Bayes total probability {worst_bayes:.1e} (all < 1e-12, 10^3 draws each)",
    )


def test_ac08_conditional_population_behavior():
    delta = -TWO_PI * 1.1e6
    t = complex(t_minus_value(delta, P.g0, P))
    certain = conditional_population(0.5, math.radians(90.0), t, port=TRANSMITTED)
    exact_certainty = certain.p_down_given_click == 1.0

    # Beyond 90 degrees each port takes over the other's curve: on the
    # 181-point 1-degree grid, P_T(phi + 90) == P_R(phi) and vice versa.
    curves = conditional_curves(0.5, delta, P)
    swap = np.allclose(
        curves.p_down_transmitted[90:], curves.p_down_reflected[:91], atol=1e-12
    ) and np.allclose(
        curves.p_down_reflected[90:], curves.p_down_transmitted[:91], atol=1e-12
    )
    deg = curves.phi_deg
    below = (deg >= 45.0) & (deg < 90.0)
    transmitted_indicates_down = np.all(
        curves.p_down_transmitted[below] > curves.p_down_reflected[below]
    )

    flat = pure_rotation_curves(0.0, (0.25, 0.5, 0.75), np.radians(np.linspace(1.0, 179.0, 101)))
    flat_at_prior = np.allclose(flat, [[0.25], [0.5], [0.75]], atol=1e-12)

    ok = bool(exact_certainty and swap and transmitted_indicates_down and flat_at_prior)
    report(
        "AC8",
        ok,
        f"P(down|90 deg, transmitted) = {certain.p_down_given_click} (exactly 1); "
        f"port roles interchange beyond 90 deg (exact curve swap): {swap}; "
        f"zero-rotation curves flat at the prior: {flat_at_prior}",
    )


def test_ac09_lineshape_power_ordering_and_floor():
    grid = MHZ * np.linspace(-8.0, 8.0, 161)

    def width(scale: float) -> float:
        shape = fluorescence_lineshape(P, scale, grid, n_samples=200, seed=7)
        return curve_fwhm(shape.detunings, shape.normalized) / MHZ

    w_low, w_mid, w_high = width(1.0 / 300.0), width(100.0 / 300.0), width(1.0)
    ordered = w_low < w_mid < w_high

    w_floor_a = width(1.0 / 3000.0)
    w_floor_b = width(1.0 / 30000.0)
    drift = abs(w_floor_a - w_floor_b) / w_floor_b
    gamma_mhz = P.gamma / MHZ
    floor_ok = drift < 0.02 and w_floor_b > 1.5 * gamma_mhz

    ok = ordered and floor_ok
    report(
        "AC9",
        ok,
        f"FWHM {w_low:.3f} < {w_mid:.3f} < {w_high:.3f} MHz (power-ordered); "
        f"floor width {w_floor_b:.3f} MHz, drift {drift:.1%} per decade "
        f"(< 2%), floor > 1.5x atomic linewidth ({1.5 * gamma_mhz:.3f} MHz)",
    )


def test_ac10_cli_determinism(tmp_path):
    runs = (
        ["fig2", "--samples", "4", "--grid=-8:8:5"],
        ["fig4", "--samples", "40", "--grid=-2:2:9"],
        ["fig5", "--samples", "50", "--grid=-2:2:5"],
        ["fig6"],
        ["validate", "--samples", "30"],
    )
    identical = True
    compared = 0
    for argv in runs:
        a = tmp_path / f"{argv[0]}_a"
        b = tmp_path / f"{argv[0]}_b"
        assert main(argv + ["--seed", "7", "--out", str(a)]) == 0
        assert main(argv + ["--seed", "7", "--out", str(b)]) == 0
        for file_a in sorted(a.iterdir()):
            file_b = b / file_a.name
            if file_a.read_bytes() != file_b.read_bytes():
                identical = False
            compared += 1
    ok = identical and compared >= 10
    report(
        "AC10",
        ok,
        f"{compared} output files byte-identical across repeated seeded runs "
        f"of all five commands: {identical}",
    )
