"""Falling-atom ensembles, coincidence selection, and curve averaging."""

import math
import os

import numpy as np
import pytest

from spinfaraday.montecarlo import (
    CoincidenceConfig,
    MotionModel,
    Ensemble,
    SelectionError,
    _first_coincidence_index,
    average_rotation,
    average_transmittance,
    coincidence_gap_probability,
    coupling_matrix,
    export_trajectories_csv,
    pinned_trajectories,
    sample_selected_trajectories,
    selected_mean_coupling,
    threshold_trajectories,
)
from spinfaraday.optics import (
    coupling_grid,
    rotation_curve,
    t_minus_value,
)
from spinfaraday.params import DEFAULT_PARAMS, TWO_PI

MHZ = TWO_PI * 1e6
P = DEFAULT_PARAMS
GRID = MHZ * np.linspace(-3.0, 3.0, 31)


def closed_form_coupling(x, y, z):
    """g0 * exp(-(x^2+y^2)/w^2) * cos(2 pi z / lambda) at one point."""
    envelope = math.exp(-(x**2 + y**2) / P.waist**2)
    return P.g0 * envelope * math.cos(2.0 * math.pi * z / P.wavelength)


def pointwise_couplings(r0, velocity, times):
    """Closed-form coupling at r0 + v t for every t, evaluated with math."""
    return [
        closed_form_coupling(*(float(r) + float(v) * float(t) for r, v in zip(r0, velocity)))
        for t in times
    ]


def single(r0, velocity, window, time_step=0.5e-6):
    return Ensemble(np.array([r0]), np.array([velocity]), window, time_step)


class TestTrajectories:
    def test_time_grid(self):
        ensemble = single((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), window=34e-6, time_step=0.5e-6)
        t = ensemble.times()
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(34e-6)
        assert t.size == 69

    def test_positions_linear(self):
        r0, velocity = (1e-6, 2e-6, 3e-6), (1.0, -0.3, 0.5)
        ensemble = single(r0, velocity, window=10e-6)
        matrix = coupling_matrix(ensemble, P)
        expected = pointwise_couplings(r0, velocity, ensemble.times())
        assert matrix[0, -1] == pytest.approx(
            closed_form_coupling(1e-6 + 1.0 * 10e-6, 2e-6 - 0.3 * 10e-6, 3e-6 + 0.5 * 10e-6)
        )
        assert list(matrix[0]) == pytest.approx(expected)

    def test_coupling_row_matches_pointwise(self):
        r0, velocity = (2e-6, -1e-6, 50e-9), (0.05, -0.3, 0.01)
        ensemble = single(r0, velocity, window=34e-6)
        series = coupling_matrix(ensemble, P)[0]
        expected = pointwise_couplings(r0, velocity, ensemble.times())
        np.testing.assert_allclose(series, expected, rtol=1e-12)

    def test_coupling_matrix_matches_series(self):
        ensemble = threshold_trajectories(MotionModel(seed=3), P, 20)
        matrix = coupling_matrix(ensemble, P)
        assert matrix.shape == (20, ensemble.times().size)
        for i in (0, 7, 19):
            expected = pointwise_couplings(ensemble.r0[i], ensemble.velocity[i], ensemble.times())
            np.testing.assert_allclose(matrix[i], expected, rtol=1e-12)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(np.zeros((2, 3)), np.zeros((3, 3)), window=34e-6)
        with pytest.raises(ValueError):
            Ensemble(np.zeros((2, 2)), np.zeros((2, 2)), window=34e-6)
        with pytest.raises(ValueError):
            Ensemble(np.zeros(3), np.zeros(3), window=34e-6)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(np.zeros((0, 3)), np.zeros((0, 3)), window=34e-6)
        with pytest.raises(ValueError):
            pinned_trajectories(0)

    def test_len_is_sample_count(self):
        assert len(threshold_trajectories(MotionModel(seed=3), P, 37)) == 37
        selected = sample_selected_trajectories(MotionModel(seed=3), CoincidenceConfig(), P, 23)
        assert len(selected) == 23
        assert len(pinned_trajectories(5)) == 5


class TestPinnedEnsemble:
    def test_degenerate_averages_match_single_atom(self):
        trajs = pinned_trajectories(5)
        averaged_t = average_transmittance(trajs, GRID, P)
        pinned_t = np.abs(t_minus_value(GRID, P.g0, P))
        np.testing.assert_allclose(averaged_t, pinned_t, rtol=1e-12)

        averaged_angle = average_rotation(trajs, GRID, P)
        np.testing.assert_allclose(
            averaged_angle, rotation_curve(GRID, P.g0, P), rtol=1e-10, atol=1e-14
        )


class TestThresholdEnsemble:
    def test_selection_criterion_enforced(self):
        trajs = threshold_trajectories(MotionModel(seed=5), P, 200, threshold=0.9)
        assert len(trajs) == 200
        assert np.all(np.abs(coupling_grid(*trajs.r0[:50].T, P)) >= 0.9 * P.g0)

    def test_deterministic_in_seed(self):
        a = threshold_trajectories(MotionModel(seed=8), P, 30)
        b = threshold_trajectories(MotionModel(seed=8), P, 30)
        c = threshold_trajectories(MotionModel(seed=9), P, 30)
        assert np.array_equal(a.r0, b.r0)
        assert not np.array_equal(a.r0, c.r0)

    def test_velocity_statistics(self):
        trajs = threshold_trajectories(MotionModel(seed=21), P, 4000)
        v = trajs.velocity
        assert np.allclose(v[:, 1], -0.3)  # fall speed
        combined_rms = math.sqrt(float(np.mean(v[:, 0] ** 2 + v[:, 2] ** 2)))
        assert combined_rms == pytest.approx(0.04, rel=0.05)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            threshold_trajectories(MotionModel(), P, 0)
        with pytest.raises(ValueError):
            threshold_trajectories(MotionModel(), P, 10, threshold=1.0)


class TestCoincidenceSelection:
    def test_first_coincidence_index_hand_cases(self):
        w = 600e-9
        assert _first_coincidence_index(np.array([0.0, 1e-6, 1.5e-6]), w) == 2
        assert _first_coincidence_index(np.array([0.0, 0.4e-6]), w) == 1
        assert _first_coincidence_index(np.array([0.0, 1e-6, 2e-6]), w) == -1
        assert _first_coincidence_index(np.array([0.0]), w) == -1
        assert _first_coincidence_index(np.array([]), w) == -1

    def test_gap_probability_matches_analytic(self):
        # frozen analytic value: 1 - exp(-7.6e5 * 600e-9)
        analytic = 0.3661861629014509
        n = 200_000
        estimate = coincidence_gap_probability(7.6e5, 600e-9, n, seed=0)
        sigma = math.sqrt(analytic * (1.0 - analytic) / n)
        assert abs(estimate - analytic) < 3.0 * sigma

    def test_selection_biases_toward_strong_coupling(self):
        motion = MotionModel(seed=77)
        trajs = sample_selected_trajectories(motion, CoincidenceConfig(), P, 500)
        assert len(trajs) == 500
        mean_coupling = selected_mean_coupling(trajs, P)
        # unselected drop points on the source disc average well below this
        assert 0.55 < mean_coupling < 0.85

    def test_selected_points_lie_in_bright_region(self):
        motion = MotionModel(seed=13)
        trajs = sample_selected_trajectories(motion, CoincidenceConfig(), P, 200)
        r0 = trajs.r0[:40]
        assert np.all(np.abs(r0[:, 0]) < 2.0 * P.waist)
        assert np.all(np.abs(coupling_grid(*r0.T, P)) > 0.0)

    def test_brighter_source_weakens_selection(self):
        # measured direction (documented): raising the click-rate ceiling
        # makes the two-click coincidence easier everywhere, so the selected
        # ensemble's mean coupling falls monotonically
        motion = MotionModel(seed=2025)
        means = []
        for factor in (0.5, 1.0, 2.0, 4.0):
            coinc = CoincidenceConfig(rate_max=7.6e5 * factor)
            trajs = sample_selected_trajectories(motion, coinc, P, 1000)
            g = coupling_grid(*trajs.r0.T, P) / P.g0
            means.append(float(np.mean(g**2)))
        assert means[0] > means[1] > means[2] > means[3]

    def test_deterministic_in_seed(self):
        a = sample_selected_trajectories(MotionModel(seed=4), CoincidenceConfig(), P, 50)
        b = sample_selected_trajectories(MotionModel(seed=4), CoincidenceConfig(), P, 50)
        assert np.array_equal(a.r0, b.r0) and np.array_equal(a.velocity, b.velocity)

    def test_hopeless_rate_raises(self):
        with pytest.raises(SelectionError):
            sample_selected_trajectories(
                MotionModel(seed=1), CoincidenceConfig(rate_max=1.0), P, 10
            )


class TestAveragedCurves:
    def test_averaging_raises_resonant_transmittance(self):
        trajs = threshold_trajectories(MotionModel(seed=6), P, 2000)
        averaged = average_transmittance(trajs, np.array([0.0]), P)
        pinned = abs(complex(t_minus_value(0.0, P.g0, P)))
        assert averaged[0] > pinned

    def test_far_detuned_transparent(self):
        trajs = threshold_trajectories(MotionModel(seed=6), P, 500)
        averaged = average_transmittance(trajs, np.array([6.0 * MHZ]), P)
        assert averaged[0] > 0.9

    def test_angle_magnitude_reduced_by_averaging(self):
        trajs = threshold_trajectories(MotionModel(seed=6), P, 2000)
        delta = np.array([-0.7 * MHZ])
        averaged = average_rotation(trajs, delta, P)
        pinned = rotation_curve(delta, P.g0, P)
        assert abs(averaged[0]) < abs(pinned[0])
        assert averaged[0] * pinned[0] > 0.0  # same sign

    def test_doubling_samples_converges(self):
        a = average_rotation(
            threshold_trajectories(MotionModel(seed=30), P, 2000), GRID, P
        )
        b = average_rotation(
            threshold_trajectories(MotionModel(seed=31), P, 4000), GRID, P
        )
        assert np.max(np.abs(np.degrees(a - b))) < 0.5

    def test_halving_time_step_converges(self):
        coarse = threshold_trajectories(MotionModel(seed=40, time_step=0.5e-6), P, 1500)
        fine = threshold_trajectories(MotionModel(seed=40, time_step=0.25e-6), P, 1500)
        a = average_transmittance(coarse, GRID, P)
        b = average_transmittance(fine, GRID, P)
        assert np.max(np.abs(a - b)) < 0.01


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        trajs = threshold_trajectories(MotionModel(seed=2), P, 7)
        path = os.path.join(tmp_path, "ensemble.csv")
        export_trajectories_csv(trajs, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape == (7,)
        np.testing.assert_allclose(data["x0_um"][0], trajs.r0[0, 0] * 1e6, rtol=1e-6)
        np.testing.assert_allclose(data["vy_mps"], -0.3, rtol=1e-6)

    def test_csv_layout(self, tmp_path):
        path = os.path.join(tmp_path, "pinned.csv")
        export_trajectories_csv(pinned_trajectories(2), path)
        with open(path, "rb") as fh:
            content = fh.read().decode("utf-8")
        row = "0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,34.000,0.500\r\n"
        assert content == (
            "x0_um,y0_um,z0_um,vx_mps,vy_mps,vz_mps,window_us,step_us\r\n" + row + row
        )
