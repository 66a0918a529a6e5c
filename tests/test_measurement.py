"""Back-action model: Kraus operators, Bayesian updates, conditional curves."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfaraday.measurement import (
    MeasurementError,
    conditional_curves,
    conditional_population,
    detection_prob_down,
    detection_prob_up,
    kraus,
    population_vs_detuning,
    pure_rotation_curves,
)
from spinfaraday.montecarlo import MotionModel, coupling_matrix, threshold_trajectories
from spinfaraday.optics import MOMENT_BLOCK, t_minus_value
from spinfaraday.params import DEFAULT_PARAMS, TWO_PI

MHZ = TWO_PI * 1e6
P = DEFAULT_PARAMS

angles = st.floats(-math.pi, math.pi, allow_nan=False)


class TestKraus:
    def test_matrix_entries(self):
        op = kraus(0.3, 0.8)
        assert isinstance(op, np.ndarray) and op.shape == (2, 2) and op.dtype == complex
        assert op[0, 0] == pytest.approx(math.cos(0.8))
        assert op[1, 1] == pytest.approx(math.cos(0.5))
        assert op[0, 1] == 0.0 and op[1, 0] == 0.0

    def test_zero_rotation_proportional_to_identity(self):
        op = kraus(0.0, 0.6)
        np.testing.assert_allclose(op, math.cos(0.6) * np.eye(2), atol=1e-15)

    @given(theta=angles, phi=angles)
    @settings(max_examples=300)
    def test_completeness(self, theta, phi):
        # The reflected port's operator is the quarter-turned analyzer's.
        op, reflected = kraus(theta, phi), kraus(theta, phi + math.pi / 2.0)
        total = op.conj().T @ op + reflected.conj().T @ reflected
        assert np.max(np.abs(total - np.eye(2))) < 1e-12

    @given(theta=angles, basis=angles)
    @settings(max_examples=300)
    def test_reversal_proportional_to_identity(self, theta, basis):
        product = kraus(-theta, basis - theta) @ kraus(theta, basis)
        scale = math.cos(basis) * math.cos(basis - theta)
        assert np.max(np.abs(product - scale * np.eye(2))) < 1e-12


class TestKrausStack:
    THETA = np.linspace(-math.pi, math.pi, 5).reshape(5, 1)
    PHI = np.linspace(-3.0, 3.1, 7)

    def test_broadcast_shape(self):
        ops = kraus(self.THETA, self.PHI)
        assert ops.shape == (5, 7, 2, 2) and ops.dtype == complex
        assert kraus(self.THETA[:, 0], 0.4).shape == (5, 2, 2)
        assert kraus(0.4, self.PHI).shape == (7, 2, 2)

    def test_slices_equal_scalar_calls_bit_for_bit(self):
        ops = kraus(self.THETA, self.PHI)
        for (i, j), _ in np.ndenumerate(ops[..., 0, 0]):
            scalar = kraus(float(self.THETA[i, 0]), float(self.PHI[j]))
            assert ops[i, j].tobytes() == scalar.tobytes()

    def test_off_diagonals_are_zero(self):
        ops = kraus(self.THETA, self.PHI)
        assert np.all(ops[..., 0, 1] == 0.0) and np.all(ops[..., 1, 0] == 0.0)

    def test_scalar_angles_give_one_complex_matrix(self):
        for theta, phi in ((0.3, 0.8), (np.float64(-1.2), np.float64(2.5))):
            op = kraus(theta, phi)
            assert op.shape == (2, 2) and op.dtype == complex
            assert op[0, 0] == math.cos(phi) and op[1, 1] == math.cos(phi - theta)


def click(amplitudes, op):
    """Spin amplitudes (up, down) after a click, renormalized, and its probability."""
    updated = np.diagonal(op) * np.asarray(amplitudes, dtype=complex)
    probability = float(np.sum(np.abs(updated) ** 2))
    return updated / math.sqrt(probability), probability


class TestApplyMeasurement:
    def test_identity_like_operator_keeps_state(self):
        post, prob = click([math.sqrt(0.3), math.sqrt(0.7)], kraus(0.0, 0.25))
        assert abs(post[1]) ** 2 == pytest.approx(0.7)
        assert prob == pytest.approx(math.cos(0.25) ** 2)

    def test_pure_state_update(self):
        theta, phi = math.radians(20.0), math.radians(60.0)
        amp = 1.0 / math.sqrt(2.0)
        post, prob = click([amp, amp], kraus(theta, phi))
        c_up, c_down = math.cos(phi), math.cos(phi - theta)
        assert prob == pytest.approx((c_up**2 + c_down**2) / 2.0, rel=1e-12)
        assert abs(post[1]) ** 2 == pytest.approx(
            c_down**2 / (c_up**2 + c_down**2), rel=1e-12
        )

    def test_projective_at_ninety_degrees(self):
        # phi = 90 deg blocks the up component entirely
        amp = 1.0 / math.sqrt(2.0)
        post, prob = click([amp, amp], kraus(math.radians(-10.0), math.pi / 2.0))
        assert abs(post[1]) ** 2 == pytest.approx(1.0)
        assert prob == pytest.approx(math.sin(math.radians(-10.0)) ** 2 / 2.0, rel=1e-12)

    def test_reversal_restores_pure_state(self):
        theta, basis = 0.35, 0.2
        state = np.array([0.6, 0.8])
        mid, p1 = click(state, kraus(theta, basis))
        final, p2 = click(mid, kraus(-theta, basis - theta))
        assert abs(final[1]) ** 2 == pytest.approx(0.8**2, rel=1e-12)
        # overall success probability equals the identity-scale squared
        scale = math.cos(basis) * math.cos(basis - theta)
        assert p1 * p2 == pytest.approx(scale**2, rel=1e-12)


class TestDetectionProbabilities:
    def test_transparent_equalizes_spins(self):
        t = 1.0 + 0.0j
        for phi in (0.0, 0.3, 1.2):
            assert detection_prob_down(phi, t) == pytest.approx(
                detection_prob_up(phi), rel=1e-12
            )

    def test_frozen_cross_check(self):
        t = complex(t_minus_value(MHZ, P.g0, P))
        assert detection_prob_down(0.0, t) == pytest.approx(
            0.4415933563741458, rel=1e-12
        )

    @given(
        phi=angles,
        amp=st.floats(0.0, 1.0),
        phase=angles,
    )
    @settings(max_examples=300)
    def test_port_sum_identity(self, phi, amp, phase):
        t = amp * cmath.exp(1j * phase)
        total = detection_prob_down(phi, t) + detection_prob_down(
            phi + math.pi / 2.0, t
        )
        assert total == pytest.approx((1.0 + amp**2) / 2.0, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        t = 0.3 - 0.4j
        phis = np.linspace(0.0, math.pi, 19)
        vec = detection_prob_down(phis, t)
        scalar = [detection_prob_down(float(x), t) for x in phis]
        assert all(isinstance(p, float) for p in scalar)
        np.testing.assert_allclose(vec, scalar, rtol=1e-14)
        up = [detection_prob_up(float(x)) for x in phis]
        assert all(isinstance(p, float) for p in up)
        np.testing.assert_allclose(detection_prob_up(phis), up, rtol=1e-14)


class TestConditionalPopulation:
    def test_frozen_oracle(self):
        t = complex(t_minus_value(MHZ, P.g0, P))
        p_down, _ = conditional_population(0.5, 0.0, t)
        assert p_down == pytest.approx(0.3063231072906917, rel=1e-12)

    def test_certain_outcome_at_ninety_degrees(self):
        t = complex(t_minus_value(-1.1 * MHZ, P.g0, P))
        p_down, _ = conditional_population(0.5, math.pi / 2.0, t)
        assert p_down == pytest.approx(1.0, rel=1e-14)

    def test_prior_extremes_fixed_points(self):
        t = 0.2 + 0.1j
        assert conditional_population(0.0, 0.4, t)[0] == 0.0
        assert conditional_population(1.0, 0.4, t)[0] == 1.0

    def test_scalar_inputs_return_float64_pair(self):
        p_down, click = conditional_population(0.5, 0.3, 0.2 + 0.1j)
        assert type(p_down) is np.float64 and type(click) is np.float64

    def test_arrays_match_per_element_calls_bit_for_bit(self):
        # The pinned t grid at both ports' angles, and an array of angles.
        t_grid = t_minus_value(MHZ * np.linspace(-3.0, 3.0, 13), P.g0, P)
        t = complex(t_minus_value(-1.1 * MHZ, P.g0, P))
        phi_grid = np.radians(np.linspace(0.0, 180.0, 181))
        for phi, t_minus in ((0.7, t_grid), (0.7 + math.pi / 2.0, t_grid), (phi_grid, t)):
            p_down, click = conditional_population(0.4, phi, t_minus)
            pairs = [conditional_population(0.4, a, b) for a, b in np.broadcast(phi, t_minus)]
            np.testing.assert_array_equal(p_down, [pair[0] for pair in pairs])
            np.testing.assert_array_equal(click, [pair[1] for pair in pairs])

    def test_zero_click_probability_raises(self):
        # t = -1 cancels the uncoupled component exactly at phi = 0, so a
        # certain-down prior leaves literally no photon to condition on
        with pytest.raises(MeasurementError):
            conditional_population(1.0, 0.0, -1.0 + 0.0j)
        # one such element among several is enough
        with pytest.raises(MeasurementError):
            conditional_population(1.0, np.array([0.3, 0.0, 1.1]), -1.0 + 0.0j)

    def test_invalid_prior_rejected(self):
        with pytest.raises(ValueError):
            conditional_population(1.2, 0.1, 1.0 + 0.0j)

    @given(prior=st.floats(0.0, 1.0), phi=angles, phase=angles)
    @settings(max_examples=300)
    def test_total_probability_on_lossless_manifold(self, prior, phi, phase):
        t = cmath.exp(1j * phase)
        try:
            transmitted = conditional_population(prior, phi, t)
            reflected = conditional_population(prior, phi + math.pi / 2.0, t)
        except MeasurementError:
            return  # degenerate zero-click geometry; identity not defined
        total = transmitted[0] * transmitted[1] + reflected[0] * reflected[1]
        assert total == pytest.approx(prior, abs=1e-12)

    @given(
        prior=st.floats(0.0, 1.0),
        phi=angles,
        amp=st.floats(0.0, 1.0),
        phase=angles,
    )
    @settings(max_examples=300)
    def test_joint_probability_identity_general(self, prior, phi, amp, phase):
        # for lossy transmittance the two-port joint probabilities satisfy
        # P(down & T) + P(down & R) = prior * (P(phi|down) + P(phi+90|down))
        t = amp * cmath.exp(1j * phase)
        try:
            transmitted = conditional_population(prior, phi, t)
            reflected = conditional_population(prior, phi + math.pi / 2.0, t)
        except MeasurementError:
            return
        joint = transmitted[0] * transmitted[1] + reflected[0] * reflected[1]
        expected = prior * (
            detection_prob_down(phi, t) + detection_prob_down(phi + math.pi / 2.0, t)
        )
        assert joint == pytest.approx(expected, abs=1e-12)


class TestPureRotationCurves:
    PHI = np.radians(np.linspace(0.0, 180.0, 721))

    def test_flat_at_prior_for_zero_rotation(self):
        curves = pure_rotation_curves(0.0, (0.25, 0.5, 0.75), self.PHI)
        for i, prior in enumerate((0.25, 0.5, 0.75)):
            np.testing.assert_allclose(curves[i], prior, atol=1e-12)

    def test_common_crossing_at_half_rotation(self):
        # curves for every prior return to the prior where the two click
        # probabilities are equal: phi = theta/2 mod 90 degrees
        theta = math.radians(-10.0)
        crossing = math.radians(85.0)  # theta/2 + 90 degrees
        curves = pure_rotation_curves(theta, (0.25, 0.5, 0.75), np.array([crossing]))
        for i, prior in enumerate((0.25, 0.5, 0.75)):
            assert curves[i, 0] == pytest.approx(prior, rel=1e-9)

    def test_unit_population_where_up_blocked(self):
        theta = math.radians(-10.0)
        curves = pure_rotation_curves(theta, (0.5,), np.array([math.pi / 2.0]))
        assert curves[0, 0] == pytest.approx(1.0)

    def test_shape(self):
        curves = pure_rotation_curves(0.1, (0.5, 0.25), self.PHI)
        assert curves.shape == (2, self.PHI.size)

    @pytest.mark.parametrize("priors", [(1.5,), (-0.1,), (math.nan,), (0.5, 2.0)])
    def test_prior_outside_unit_interval_rejected(self, priors):
        with pytest.raises(ValueError, match=r"prior must lie in \[0, 1\]"):
            pure_rotation_curves(0.1, priors, self.PHI)


class TestConditionalCurves:
    DEG = np.linspace(0.0, 180.0, 181)
    PHI = np.radians(DEG)

    def at(self, deg):
        return int(np.argmin(np.abs(self.DEG - deg)))

    def test_pinned_transmitted_port_certain_at_ninety(self):
        (transmitted, _), _ = conditional_curves(0.5, self.PHI, -1.1 * MHZ, P)
        assert transmitted[self.at(90.0)] == pytest.approx(1.0, rel=1e-12)

    def test_ports_interchange_roles_beyond_ninety(self):
        (transmitted, reflected), _ = conditional_curves(0.5, self.PHI, -1.1 * MHZ, P)
        i60, i120 = self.at(60.0), self.at(120.0)
        gap_before = transmitted[i60] - reflected[i60]
        gap_after = transmitted[i120] - reflected[i120]
        assert gap_before * gap_after < 0.0

    def test_click_probabilities_sum_constant(self):
        _, click = conditional_curves(0.5, self.PHI, -1.1 * MHZ, P)
        total = click[0] + click[1]
        np.testing.assert_allclose(total, total[0], rtol=1e-12)

    def test_motion_averaging_reduces_contrast(self):
        trajectories = threshold_trajectories(MotionModel(window=4e-6, seed=99), P, 300)
        (pinned, _), _ = conditional_curves(0.5, self.PHI, -1.1 * MHZ, P)
        (averaged, _), _ = conditional_curves(0.5, self.PHI, -1.1 * MHZ, P, trajectories)
        # averaging over weaker couplings pulls the curve toward the prior
        i30 = self.at(30.0)
        assert abs(averaged[i30] - 0.5) < abs(pinned[i30] - 0.5)
        # but the exact zero of P(click|up) still pins phi = 90 to unity
        assert averaged[self.at(90.0)] == pytest.approx(1.0, rel=1e-12)

    def test_invalid_prior_rejected(self):
        with pytest.raises(ValueError):
            conditional_curves(-0.1, self.PHI, -1.1 * MHZ, P)

    def test_averaged_click_probability_matches_per_sample_mean(self):
        # With prior 1 the click probability is P(click | down) itself.
        trajectories = threshold_trajectories(MotionModel(seed=5), P, 100)
        g = coupling_matrix(trajectories, P).reshape(-1)
        for delta in MHZ * np.array([-2.0, -1.1, 0.0, 0.7, 3.0]):
            t = t_minus_value(delta, g, P)
            _, click = conditional_curves(1.0, self.PHI, delta, P, trajectories)
            for row, angle in zip(click, (self.PHI, self.PHI + math.pi / 2.0)):
                expected = detection_prob_down(angle[:, None], t).mean(axis=1)
                np.testing.assert_allclose(row, expected, rtol=1e-12)

    def test_peak_memory_independent_of_the_angle_count(self):
        # A few complex arrays over the samples (16 bytes each), however many
        # analyzer angles: no array may span angles and samples together.
        trajectories = threshold_trajectories(MotionModel(window=4e-6), P, 6_000)
        samples = len(trajectories) * trajectories.motion.times().size  # 54,000
        tracemalloc.start()
        try:
            conditional_curves(0.5, self.PHI, -1.1 * MHZ, P, trajectories)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * samples

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_ports_stack_over_the_angle_shape(self, shape):
        phi = np.linspace(0.1, 3.0, int(np.prod(shape))).reshape(shape)
        flat = conditional_curves(0.5, phi.reshape(-1), -1.1 * MHZ, P)
        for stacked, rows in zip(conditional_curves(0.5, phi, -1.1 * MHZ, P), flat):
            assert stacked.shape == (2, *shape)
            np.testing.assert_allclose(stacked.reshape(2, -1), rows, rtol=1e-15)

    @pytest.mark.parametrize("averaged", [False, True], ids=["pinned", "ensemble"])
    def test_reflected_row_is_transmitted_row_a_quarter_turn_on(self, averaged):
        ensemble = threshold_trajectories(MotionModel(window=4e-6), P, 200) if averaged else None
        direct = conditional_curves(0.5, self.PHI, -1.1 * MHZ, P, ensemble)
        turned = conditional_curves(0.5, self.PHI + math.pi / 2.0, -1.1 * MHZ, P, ensemble)
        for rows, turned_rows in zip(direct, turned):
            np.testing.assert_array_equal(rows[1], turned_rows[0])


class TestReadoutMemory:
    def test_peak_memory_independent_of_the_trajectory_count(self):
        # fig5's readout stage, on 18,000 and 360,000 window samples: a few
        # complex blocks of temporaries either way, where building the whole
        # coupling matrix holds its positions, 24 bytes per sample (8.2 MiB).
        grid = MHZ * np.linspace(-3.0, 3.0, 121)
        phi = np.radians(np.linspace(0.0, 180.0, 181))
        motion = MotionModel(window=4e-6)
        for n in (2_000, 40_000):
            trajectories = threshold_trajectories(motion, P, n)
            tracemalloc.start()
            try:
                conditional_curves(0.5, phi, -1.1 * MHZ, P, trajectories)
                population_vs_detuning(0.5, math.radians(60.0), grid, P, trajectories)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * MOMENT_BLOCK * 16, n


class TestPopulationVsDetuning:
    def test_far_detuned_returns_prior(self):
        grid = MHZ * np.array([-200.0, 200.0])
        pops = population_vs_detuning(0.5, math.radians(60.0), grid, P)
        np.testing.assert_allclose(pops, 0.5, atol=0.01)

    def test_near_resonance_deviates(self):
        grid = MHZ * np.array([-1.1])
        pops = population_vs_detuning(0.5, math.radians(60.0), grid, P)
        assert abs(pops[0] - 0.5) > 0.05

    def test_reflected_port_supported(self):
        grid = MHZ * np.array([-1.1, 0.0, 1.1])
        pops = population_vs_detuning(0.5, 0.3 + math.pi / 2.0, grid, P)
        assert pops.shape == (3,)
        assert np.all((0.0 <= pops) & (pops <= 1.0))

    def test_pinned_matches_per_detuning_conditional_population(self):
        grid = MHZ * np.linspace(-3.0, 3.0, 13)
        t = t_minus_value(grid, P.g0, P)
        for phi in (0.7, 0.7 + math.pi / 2.0):
            pops = population_vs_detuning(0.4, phi, grid, P)
            expected, _ = conditional_population(0.4, phi, t)
            np.testing.assert_allclose(pops, expected, rtol=0.0, atol=1e-12)

    def test_averaged_matches_bayes_over_per_sample_means(self):
        trajectories = threshold_trajectories(MotionModel(seed=6), P, 100)
        g = coupling_matrix(trajectories, P).reshape(-1)
        grid = MHZ * np.linspace(-3.0, 3.0, 13)
        for angle in (0.7, 0.7 + math.pi / 2.0):
            pops = population_vs_detuning(0.4, angle, grid, P, trajectories)
            t = t_minus_value(grid[:, None], g, P)
            p_down = detection_prob_down(angle, t).mean(axis=1)
            p_up = detection_prob_up(angle)
            expected = p_down * 0.4 / (p_up * 0.6 + p_down * 0.4)
            np.testing.assert_allclose(pops, expected, rtol=1e-12)

    @pytest.mark.parametrize("prior", [-0.1, 1.5])
    def test_prior_checked_with_coupling_samples(self, prior):
        trajectories = threshold_trajectories(MotionModel(window=4e-6), P, 20)
        with pytest.raises(ValueError, match="prior"):
            population_vs_detuning(
                prior, math.radians(60.0), MHZ * np.array([-1.1]), P, trajectories
            )
