"""Detuning optimization, geometry scans, and the two-qubit gate budget."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spinfaraday import scans
from spinfaraday.optics import rotation_curve, t_minus_value
from spinfaraday.params import (
    DEFAULT_GEOMETRY,
    DEFAULT_PARAMS,
    TWO_PI,
    CavityGeometry,
    params_for_geometry,
)
from spinfaraday.scans import (
    CAVITY_EQUALS_ATOM,
    PROBE_EQUALS_CAVITY,
    CnotReport,
    cnot_feasibility,
    default_reflectivity_grid,
    lossless_rotation_point,
    max_rotation,
    scan_length,
    scan_reflectivity,
)

P = DEFAULT_PARAMS
MHZ = TWO_PI * 1e6


class TestMaxRotation:
    def test_probe_on_cavity_frozen(self):
        # frozen from a 2001-point brute-force detuning scan plus golden
        # refinement, cross-checked against the coarse grid maximum
        result = max_rotation(P, PROBE_EQUALS_CAVITY)
        assert math.degrees(result.angle) == pytest.approx(
            21.079103037003442, rel=1e-9
        )
        assert result.delta_star / MHZ == pytest.approx(-1.2978799663055907, abs=1e-5)
        assert not result.non_unimodal

    def test_cavity_on_atom_frozen(self):
        result = max_rotation(P, CAVITY_EQUALS_ATOM)
        assert math.degrees(result.angle) == pytest.approx(
            27.006780310693085, rel=1e-9
        )
        assert result.delta_star / MHZ == pytest.approx(-1.3736101856633443, abs=1e-5)

    def test_cavity_on_atom_derived_kappa(self):
        anchor = params_for_geometry(DEFAULT_GEOMETRY, P, DEFAULT_GEOMETRY)
        result = max_rotation(anchor, CAVITY_EQUALS_ATOM)
        assert math.degrees(result.angle) == pytest.approx(
            27.142878946001787, rel=1e-9
        )

    def test_optimum_is_a_true_maximum(self):
        result = max_rotation(P, PROBE_EQUALS_CAVITY)
        for bump in (-0.01 * MHZ, 0.01 * MHZ):
            nearby = abs(rotation_curve(result.delta_star + bump, P.g0, P)[0])
            assert nearby <= result.angle + 1e-12

    def test_coarse_grid_insensitive(self, monkeypatch):
        a = max_rotation(P, PROBE_EQUALS_CAVITY)
        monkeypatch.setattr(scans, "MAX_ROTATION_COARSE_POINTS", 501)
        b = max_rotation(P, PROBE_EQUALS_CAVITY)
        assert abs(math.degrees(a.angle) - math.degrees(b.angle)) < 1e-6

    def test_zero_coupling(self):
        result = max_rotation(replace(P, g0=0.0), PROBE_EQUALS_CAVITY)
        assert result.angle == 0.0
        assert result.delta_star == 0.0
        assert not result.non_unimodal

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            max_rotation(P, "sideways")


class TestLosslessPoint:
    def test_frozen_values(self):
        point = lossless_rotation_point()
        assert point.kappa / MHZ == pytest.approx(1.847754795266799, rel=1e-9)
        assert point.delta / MHZ == pytest.approx(-2.021916340101459, rel=1e-9)
        assert point.reflectivity == pytest.approx(0.9999883822444183, abs=1e-9)

    def test_defining_relations(self):
        point = lossless_rotation_point()
        g_sq = P.g0**2
        # detuning that cancels the common-mode attenuation
        assert point.delta == pytest.approx(
            -g_sq / (2.0 * (point.kappa + 0.5 * P.gamma)), rel=1e-12
        )
        # at that detuning the residual loss vanishes
        residual = point.kappa * 0.5 * P.gamma - point.delta**2 + 0.5 * g_sq
        assert abs(residual) < 1e-3 * point.kappa * P.gamma

    def test_transmittance_is_pure_quarter_wave(self):
        point = lossless_rotation_point()
        tuned = replace(P, kappa=point.kappa)
        t = t_minus_value(point.delta, P.g0, tuned, cavity_detuning=point.delta)
        assert abs(t - 1j) < 1e-9

    def test_estimator_saturates_at_45_degrees(self):
        point = lossless_rotation_point()
        tuned = replace(P, kappa=point.kappa)
        angle = rotation_curve(point.delta, P.g0, tuned, cavity_detuning=point.delta)[0]
        assert math.degrees(abs(angle)) == pytest.approx(45.0, abs=1e-7)


class TestScanLength:
    def test_default_grid(self):
        grid = scan_length().axis * 1e-6
        assert grid.size == 25
        assert grid[0] == pytest.approx(150e-6)
        assert grid[-1] == pytest.approx(6e-3)
        assert np.all(np.diff(grid) > 0.0)

    def test_anchor_point_reproduced(self):
        result = scan_length()
        assert result.axis[0] == pytest.approx(150.0, rel=1e-12)  # micrometers
        assert result.max_angle_deg[0] == pytest.approx(27.142878946001787, rel=1e-9)

    def test_frozen_endpoint_and_peak(self):
        result = scan_length()
        assert result.max_angle_deg[-1] == pytest.approx(27.679277082598325, rel=1e-9)
        assert result.best_angle_deg == pytest.approx(31.466495235751374, rel=1e-9)
        # interior peak in the millimeter range
        assert 1000.0 < result.best_axis_value < 3000.0
        assert 0 < result.argmax_index < result.axis.size - 1

    def test_g0_and_kappa_vary_with_length(self):
        result = scan_length()
        assert result.g0_mhz[0] > result.g0_mhz[-1]
        assert result.kappa_mhz[0] > result.kappa_mhz[-1]
        assert np.all(result.gamma_khz == result.gamma_khz[0])

    def test_rows_shape(self):
        result = scan_length()
        header, rows = result.rows()
        assert header == [
            "length_um",
            "max_angle_deg",
            "delta_star_mhz",
            "g0_mhz",
            "kappa_mhz",
            "gamma_khz",
        ]
        assert len(rows) == result.axis.size
        assert rows[0][0] == pytest.approx(150.0)


class TestScanReflectivity:
    def test_default_grid_contains_landmarks(self):
        grid = default_reflectivity_grid()
        assert np.all(np.diff(grid) > 0.0)
        for landmark in (DEFAULT_GEOMETRY.reflectivity, 0.999990):
            assert np.min(np.abs(grid - landmark)) < 1e-15

    def test_peak_is_the_lossless_point(self):
        result = scan_reflectivity()
        point = lossless_rotation_point()
        assert result.best_axis_value == pytest.approx(point.reflectivity, abs=1e-12)
        assert result.best_angle_deg == pytest.approx(45.0, abs=1e-7)

    def test_frozen_landmark_angles(self):
        result = scan_reflectivity()
        at = {float(r): float(a) for r, a in zip(result.axis, result.max_angle_deg)}
        assert at[0.99999] == pytest.approx(41.20737878144908, rel=1e-9)
        assert at[0.999972] == pytest.approx(27.142878946001787, rel=1e-9)

    def test_g0_fixed_kappa_varies(self):
        result = scan_reflectivity()
        assert np.all(result.g0_mhz == result.g0_mhz[0])
        assert result.kappa_mhz[0] > result.kappa_mhz[-1]  # better mirrors, slower decay

    def test_g0_is_the_anchor_coupling(self):
        result = scan_reflectivity()
        np.testing.assert_allclose(result.g0_mhz, P.g0 / MHZ, rtol=1e-15)

    def test_angle_monotone_toward_lossless_point(self):
        result = scan_reflectivity()
        upto = result.axis <= lossless_rotation_point().reflectivity + 1e-15
        angles = result.max_angle_deg[upto]
        assert np.all(np.diff(angles) > 0.0)


class TestCnotFeasibility:
    def test_default_report_frozen(self):
        report = cnot_feasibility()
        assert isinstance(report, CnotReport)
        assert report.feasible
        assert report.best_angle_deg == pytest.approx(45.0, abs=1e-9)
        assert report.best_reflectivity == pytest.approx(0.9999883822444183, abs=1e-9)
        assert report.best_delta_mhz == pytest.approx(-2.021916340101459, rel=1e-6)
        assert report.angle_at_limit_deg == pytest.approx(41.20737878144908, rel=1e-9)
        assert report.spin_split_deg == pytest.approx(90.0, abs=1e-9)
        assert report.rotation_up_deg == pytest.approx(-45.0, abs=1e-9)
        assert report.required_deg == 45.0

    def test_opposite_spin_rotations(self):
        report = cnot_feasibility()
        assert report.rotation_up_deg == pytest.approx(-report.best_angle_deg)
        assert report.spin_split_deg == pytest.approx(2.0 * report.best_angle_deg)

    def test_limit_below_lossless_point_infeasible(self):
        # (coupling scale, rho_limit, best angle in deg): the best mirror is the limit
        for scale, rho_limit, angle in [
            (1.0, 0.99998, 32.60115963881565),
            (0.5, 0.99999, 31.200372509198385),
        ]:
            report = cnot_feasibility(replace(P, g0=scale * P.g0), rho_limit=rho_limit)
            assert not report.feasible
            assert report.best_angle_deg == pytest.approx(angle, rel=1e-6)
            assert report.best_reflectivity == pytest.approx(rho_limit, abs=1e-9)

    def test_lossless_point_inside_bound_feasible(self):
        # (coupling scale, rho_limit, lossless reflectivity)
        for scale, rho_limit, reflectivity in [
            (2.0, 0.99999, 0.9999759469521942),
            (1.0, 0.9999999, 0.9999883822444183),
        ]:
            report = cnot_feasibility(replace(P, g0=scale * P.g0), rho_limit=rho_limit)
            assert report.feasible
            assert report.best_angle_deg == pytest.approx(45.0, abs=1e-9)
            assert report.best_reflectivity == pytest.approx(reflectivity, abs=1e-9)

    def test_anchor_mirrors_far_from_feasible(self):
        report = cnot_feasibility(rho_limit=DEFAULT_GEOMETRY.reflectivity)
        assert not report.feasible
        assert report.best_angle_deg == pytest.approx(27.142878946001787, rel=1e-6)

    def test_zero_coupling_infeasible(self):
        geometry = CavityGeometry(
            length=DEFAULT_GEOMETRY.length,
            mirror_roc=DEFAULT_GEOMETRY.mirror_roc,
            reflectivity=DEFAULT_GEOMETRY.reflectivity,
        )
        report = cnot_feasibility(replace(P, g0=0.0), geometry)
        assert not report.feasible
        assert report.best_angle_deg == 0.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            cnot_feasibility(rho_limit=0.999, rho_floor=0.9999)
        with pytest.raises(ValueError):
            cnot_feasibility(rho_limit=1.0)
