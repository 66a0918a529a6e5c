"""Back-action model: Kraus operators, Bayesian updates, conditional curves."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfaraday.measurement import (
    MeasurementError,
    REFLECTED,
    TRANSMITTED,
    SpinState,
    apply_measurement,
    conditional_curves,
    conditional_population,
    detection_prob_down,
    detection_prob_up,
    kraus,
    population_vs_detuning,
    pure_rotation_curves,
)
from spinfaraday.montecarlo import MotionModel
from spinfaraday.optics import Transmittance, t_minus_value
from spinfaraday.params import DEFAULT_PARAMS, TWO_PI

MHZ = TWO_PI * 1e6
P = DEFAULT_PARAMS

angles = st.floats(-math.pi, math.pi, allow_nan=False)


class TestKraus:
    def test_matrix_entries(self):
        op = kraus(0.3, 0.8)
        assert op.matrix[0, 0] == pytest.approx(math.cos(0.8))
        assert op.matrix[1, 1] == pytest.approx(math.cos(0.5))
        assert op.matrix[0, 1] == 0.0 and op.matrix[1, 0] == 0.0

    def test_zero_rotation_proportional_to_identity(self):
        op = kraus(0.0, 0.6)
        np.testing.assert_allclose(op.matrix, math.cos(0.6) * np.eye(2), atol=1e-15)

    def test_partner_is_quarter_turn(self):
        op = kraus(0.4, 0.1)
        partner = op.partner()
        assert partner.basis_angle == pytest.approx(0.1 + math.pi / 2.0)
        assert partner.rotation == op.rotation

    @given(theta=angles, phi=angles)
    @settings(max_examples=300)
    def test_completeness(self, theta, phi):
        op = kraus(theta, phi)
        partner = op.partner()
        total = (
            op.matrix.conj().T @ op.matrix
            + partner.matrix.conj().T @ partner.matrix
        )
        assert np.max(np.abs(total - np.eye(2))) < 1e-12

    @given(theta=angles, basis=angles)
    @settings(max_examples=300)
    def test_reversal_proportional_to_identity(self, theta, basis):
        forward = kraus(theta, basis)
        reverse = kraus(-theta, basis - theta)
        product = reverse.matrix @ forward.matrix
        scale = math.cos(basis) * math.cos(basis - theta)
        assert np.max(np.abs(product - scale * np.eye(2))) < 1e-12


class TestApplyMeasurement:
    def test_identity_like_operator_keeps_state(self):
        state = SpinState.mixed(0.3, 0.7)
        post, prob = apply_measurement(state, kraus(0.0, 0.25))
        assert post.p_down == pytest.approx(0.7)
        assert prob == pytest.approx(math.cos(0.25) ** 2)

    def test_pure_state_update(self):
        theta, phi = math.radians(20.0), math.radians(60.0)
        amp = 1.0 / math.sqrt(2.0)
        post, prob = apply_measurement(SpinState.pure(amp, amp), kraus(theta, phi))
        c_up, c_down = math.cos(phi), math.cos(phi - theta)
        assert prob == pytest.approx((c_up**2 + c_down**2) / 2.0, rel=1e-12)
        assert post.p_down == pytest.approx(
            c_down**2 / (c_up**2 + c_down**2), rel=1e-12
        )

    def test_projective_at_ninety_degrees(self):
        # phi = 90 deg blocks the up component entirely
        post, prob = apply_measurement(
            SpinState.mixed(0.5, 0.5), kraus(math.radians(-10.0), math.pi / 2.0)
        )
        assert post.p_down == pytest.approx(1.0)
        assert prob == pytest.approx(math.sin(math.radians(-10.0)) ** 2 / 2.0, rel=1e-12)

    def test_zero_probability_raises(self):
        # cos(pi/2) is never exactly zero in floats, so build the degenerate
        # operator directly: support orthogonal to the state
        from spinfaraday.measurement import MeasurementOperator

        blocked = MeasurementOperator(
            rotation=0.0, basis_angle=0.0, matrix=np.diag([0.0, 1.0]).astype(complex)
        )
        with pytest.raises(MeasurementError):
            apply_measurement(SpinState.pure(1.0, 0.0), blocked)
        with pytest.raises(MeasurementError):
            apply_measurement(SpinState.mixed(1.0, 0.0), blocked)

    def test_reversal_restores_pure_state(self):
        theta, basis = 0.35, 0.2
        state = SpinState.pure(0.6, 0.8)
        mid, p1 = apply_measurement(state, kraus(theta, basis))
        final, p2 = apply_measurement(mid, kraus(-theta, basis - theta))
        assert final.p_down == pytest.approx(state.p_down, rel=1e-12)
        # overall success probability equals the identity-scale squared
        scale = math.cos(basis) * math.cos(basis - theta)
        assert p1 * p2 == pytest.approx(scale**2, rel=1e-12)


class TestDetectionProbabilities:
    def test_transparent_equalizes_spins(self):
        t = Transmittance(t_minus=1.0 + 0.0j)
        for phi in (0.0, 0.3, 1.2):
            assert detection_prob_down(phi, t) == pytest.approx(
                detection_prob_up(phi), rel=1e-12
            )

    def test_frozen_cross_check(self):
        t = Transmittance(t_minus=complex(t_minus_value(MHZ, P.g0, P)))
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
        t = Transmittance(t_minus=amp * cmath.exp(1j * phase))
        total = detection_prob_down(phi, t) + detection_prob_down(
            phi + math.pi / 2.0, t
        )
        assert total == pytest.approx((1.0 + amp**2) / 2.0, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        t = Transmittance(t_minus=0.3 - 0.4j)
        phis = np.linspace(0.0, math.pi, 19)
        vec = detection_prob_down(phis, t)
        scalar = [detection_prob_down(float(x), t) for x in phis]
        np.testing.assert_allclose(vec, scalar, rtol=1e-14)


class TestConditionalPopulation:
    def test_frozen_oracle(self):
        t = Transmittance(t_minus=complex(t_minus_value(MHZ, P.g0, P)))
        result = conditional_population(0.5, 0.0, t)
        assert result.p_down_given_click == pytest.approx(
            0.3063231072906917, rel=1e-12
        )

    def test_certain_outcome_at_ninety_degrees(self):
        t = Transmittance(t_minus=complex(t_minus_value(-1.1 * MHZ, P.g0, P)))
        result = conditional_population(0.5, math.pi / 2.0, t)
        assert result.p_down_given_click == pytest.approx(1.0, rel=1e-14)

    def test_prior_extremes_fixed_points(self):
        t = Transmittance(t_minus=0.2 + 0.1j)
        assert conditional_population(0.0, 0.4, t).p_down_given_click == 0.0
        assert conditional_population(1.0, 0.4, t).p_down_given_click == 1.0

    def test_zero_click_probability_raises(self):
        # both circular components fully blocked and a certain-down prior
        # leaves literally no photon to condition on
        t = Transmittance(t_minus=0.0j, t_plus=0.0j)
        with pytest.raises(MeasurementError):
            conditional_population(1.0, 0.3, t)

    def test_invalid_prior_rejected(self):
        with pytest.raises(ValueError):
            conditional_population(1.2, 0.1, Transmittance(t_minus=1.0 + 0.0j))

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError):
            conditional_population(0.5, 0.1, Transmittance(t_minus=1.0 + 0.0j), port="up")

    @given(prior=st.floats(0.0, 1.0), phi=angles, phase=angles)
    @settings(max_examples=300)
    def test_total_probability_on_lossless_manifold(self, prior, phi, phase):
        t = Transmittance(t_minus=cmath.exp(1j * phase))
        try:
            transmitted = conditional_population(prior, phi, t, port=TRANSMITTED)
            reflected = conditional_population(prior, phi, t, port=REFLECTED)
        except MeasurementError:
            return  # degenerate zero-click geometry; identity not defined
        total = (
            transmitted.p_down_given_click * transmitted.click_probability
            + reflected.p_down_given_click * reflected.click_probability
        )
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
        t = Transmittance(t_minus=amp * cmath.exp(1j * phase))
        try:
            transmitted = conditional_population(prior, phi, t, port=TRANSMITTED)
            reflected = conditional_population(prior, phi, t, port=REFLECTED)
        except MeasurementError:
            return
        joint = (
            transmitted.p_down_given_click * transmitted.click_probability
            + reflected.p_down_given_click * reflected.click_probability
        )
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


class TestConditionalCurves:
    def test_pinned_transmitted_port_certain_at_ninety(self):
        cc = conditional_curves(0.5, -1.1 * MHZ, P)
        i90 = int(np.argmin(np.abs(cc.phi_deg - 90.0)))
        assert cc.p_down_transmitted[i90] == pytest.approx(1.0, rel=1e-12)

    def test_ports_interchange_roles_beyond_ninety(self):
        cc = conditional_curves(0.5, -1.1 * MHZ, P)
        i60 = int(np.argmin(np.abs(cc.phi_deg - 60.0)))
        i120 = int(np.argmin(np.abs(cc.phi_deg - 120.0)))
        gap_before = cc.p_down_transmitted[i60] - cc.p_down_reflected[i60]
        gap_after = cc.p_down_transmitted[i120] - cc.p_down_reflected[i120]
        assert gap_before * gap_after < 0.0

    def test_click_probabilities_sum_constant(self):
        cc = conditional_curves(0.5, -1.1 * MHZ, P)
        total = cc.click_prob_transmitted + cc.click_prob_reflected
        np.testing.assert_allclose(total, total[0], rtol=1e-12)

    def test_motion_averaging_reduces_contrast(self):
        motion = MotionModel(window=4e-6, seed=99)
        pinned = conditional_curves(0.5, -1.1 * MHZ, P)
        averaged = conditional_curves(0.5, -1.1 * MHZ, P, motion, n_samples=300)
        # averaging over weaker couplings pulls the curve toward the prior
        i30 = int(np.argmin(np.abs(pinned.phi_deg - 30.0)))
        assert abs(averaged.p_down_transmitted[i30] - 0.5) < abs(
            pinned.p_down_transmitted[i30] - 0.5
        )
        # but the exact zero of P(click|up) still pins phi = 90 to unity
        i90 = int(np.argmin(np.abs(pinned.phi_deg - 90.0)))
        assert averaged.p_down_transmitted[i90] == pytest.approx(1.0, rel=1e-12)

    def test_invalid_prior_rejected(self):
        with pytest.raises(ValueError):
            conditional_curves(-0.1, -1.1 * MHZ, P)


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
        pops = population_vs_detuning(0.5, 0.3, grid, P, port=REFLECTED)
        assert pops.shape == (3,)
        assert np.all((0.0 <= pops) & (pops <= 1.0))
