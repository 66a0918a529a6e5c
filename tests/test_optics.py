"""Analytic transmittance, polarization propagation, and the count estimator."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfaraday.optics import (
    BALANCED_ANALYZER_OFFSET,
    InsufficientCountsError,
    PolarizationField,
    Transmittance,
    angle_from_counts,
    coupling_grid,
    polarization_azimuth,
    propagate,
    rotation_angle,
    rotation_curve,
    t_minus_value,
    transmittance,
)
from spinfaraday.params import DEFAULT_PARAMS, TWO_PI

MHZ = TWO_PI * 1e6
P = DEFAULT_PARAMS


class TestCoupling:
    def test_antinode_is_maximum(self):
        assert coupling_grid(0.0, 0.0, 0.0, P) == pytest.approx(P.g0)

    def test_node_vanishes(self):
        g = coupling_grid(0.0, 0.0, P.wavelength / 4.0, P)
        assert abs(g) < 1e-9 * P.g0

    def test_transverse_gaussian(self):
        g = coupling_grid(P.waist, 0.0, 0.0, P)
        assert g == pytest.approx(P.g0 * math.exp(-1.0), rel=1e-12)

    def test_standing_wave_sign(self):
        # half a wavelength along the axis flips the field sign
        g = coupling_grid(0.0, 0.0, P.wavelength / 2.0, P)
        assert g == pytest.approx(-P.g0, rel=1e-9)

    def test_grid_matches_scalar(self):
        x = np.array([0.0, 5e-6, -3e-6])
        y = np.array([0.0, 2e-6, 1e-6])
        z = np.array([0.0, 100e-9, 250e-9])
        grid = coupling_grid(x, y, z, P)
        scalar = [
            P.g0
            * math.exp(-(xi**2 + yi**2) / P.waist**2)
            * math.cos(2.0 * math.pi * zi / P.wavelength)
            for xi, yi, zi in zip(x.tolist(), y.tolist(), z.tolist())
        ]
        np.testing.assert_allclose(grid, scalar, rtol=1e-12)


class TestTransmittance:
    def test_resonant_oracle(self):
        # frozen: kappa*(gamma/2) / (kappa*gamma/2 + g0^2) at delta = 0
        t = t_minus_value(0.0, P.g0, P)
        assert complex(t) == pytest.approx(0.04963937208315655 + 0.0j, rel=1e-12)

    def test_off_resonant_oracle(self):
        t = complex(t_minus_value(MHZ, P.g0, P))
        assert t.real == pytest.approx(0.2675768174590215, rel=1e-12)
        assert t.imag == pytest.approx(-0.39952776791737726, rel=1e-12)
        assert abs(t) == pytest.approx(0.4808531902551341, rel=1e-12)

    def test_decoupled_atom_transparent(self):
        assert complex(t_minus_value(0.7 * MHZ, 0.0, P)) == pytest.approx(1.0 + 0.0j)

    def test_far_detuned_transparent(self):
        t = complex(t_minus_value(3e3 * MHZ, P.g0, P))
        assert abs(t - 1.0) < 1e-2

    def test_cavity_detuning_zero_matches_default(self):
        delta = -1.3 * MHZ
        a = complex(t_minus_value(delta, P.g0, P))
        b = complex(t_minus_value(delta, P.g0, P, cavity_detuning=0.0))
        assert a == pytest.approx(b, rel=1e-14)

    def test_two_detuning_normalization(self):
        # with the atom decoupled the normalized transmittance is unity at
        # any cavity detuning (empty-cavity reference divides out)
        t = complex(t_minus_value(0.4 * MHZ, 0.0, P, cavity_detuning=2.0 * MHZ))
        assert t == pytest.approx(1.0 + 0.0j, rel=1e-14)

    @given(
        delta=st.floats(-50e6, 50e6),
        g_mhz=st.floats(0.0, 30.0),
    )
    @settings(max_examples=200)
    def test_passive_cavity_never_amplifies(self, delta, g_mhz):
        t = complex(t_minus_value(TWO_PI * delta, g_mhz * MHZ, P))
        assert abs(t) <= 1.0 + 1e-12

    def test_magnitude_monotone_in_coupling_on_resonance(self):
        gs = np.linspace(0.0, P.g0, 40)
        mags = [abs(complex(t_minus_value(0.0, g, P))) for g in gs]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_vectorized_matches_scalar(self):
        deltas = MHZ * np.linspace(-4, 4, 17)
        vec = t_minus_value(deltas, P.g0, P)
        scalar = [complex(t_minus_value(float(d), P.g0, P)) for d in deltas]
        np.testing.assert_allclose(vec, scalar, rtol=1e-14)

    def test_transmittance_object(self):
        t = transmittance(MHZ, P.g0, P)
        assert isinstance(t, Transmittance)
        assert t.t_plus == 1.0 + 0.0j
        assert t.t_minus == pytest.approx(complex(t_minus_value(MHZ, P.g0, P)))


class TestPropagation:
    def test_unit_transmittance_is_identity(self):
        field = PolarizationField.linear_x()
        out = propagate(field, Transmittance(t_minus=1.0 + 0.0j))
        assert out.amp_plus == pytest.approx(field.amp_plus)
        assert out.amp_minus == pytest.approx(field.amp_minus)

    def test_full_blocking_leaves_circular(self):
        out = propagate(PolarizationField.linear_x(), Transmittance(t_minus=0.0j))
        assert out.amp_minus == 0.0
        assert abs(out.amp_plus) == pytest.approx(1.0 / math.sqrt(2.0))

    @given(
        re=st.floats(-1.0, 1.0),
        im=st.floats(-1.0, 1.0),
        scale=st.floats(0.1, 2.0),
    )
    @settings(max_examples=100)
    def test_linearity(self, re, im, scale):
        t = Transmittance(t_minus=complex(re, im))
        field = PolarizationField.linear_x()
        scaled = PolarizationField(
            amp_plus=scale * field.amp_plus, amp_minus=scale * field.amp_minus
        )
        a = propagate(scaled, t)
        b = propagate(field, t)
        assert a.amp_plus == pytest.approx(scale * b.amp_plus, rel=1e-12, abs=1e-15)
        assert a.amp_minus == pytest.approx(scale * b.amp_minus, rel=1e-12, abs=1e-15)

    def test_port_intensity_oracle(self):
        # frozen cross-check of the analyzer projection at phi = 0 for the
        # +1 MHz elliptical transmittance: |1 + t|^2 / 4
        t = transmittance(MHZ, P.g0, P)
        out = propagate(PolarizationField.linear_x(), t)
        transmitted, reflected = out.port_intensities(0.0)
        assert transmitted == pytest.approx(0.4415933563741458, rel=1e-12)
        total = (1.0 + abs(t.t_minus) ** 2) / 2.0
        assert transmitted + reflected == pytest.approx(total, rel=1e-12)

    def test_port_intensities_swap_at_quarter_turn(self):
        t = transmittance(-2.2 * MHZ, P.g0, P)
        out = propagate(PolarizationField.linear_x(), t)
        t0, r0 = out.port_intensities(0.3)
        t1, r1 = out.port_intensities(0.3 + math.pi / 2.0)
        assert t1 == pytest.approx(r0, rel=1e-12)
        assert r1 == pytest.approx(t0, rel=1e-12)


class TestAngleFromCounts:
    def test_balanced_counts_read_zero(self):
        assert angle_from_counts(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_three_to_one_reads_minus_fifteen_degrees(self):
        assert math.degrees(angle_from_counts(3.0, 1.0)) == pytest.approx(-15.0, rel=1e-12)

    def test_extremes(self):
        assert angle_from_counts(1.0, 0.0) == pytest.approx(-math.pi / 4.0)
        assert angle_from_counts(0.0, 1.0) == pytest.approx(math.pi / 4.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            angle_from_counts(-1.0, 2.0)

    def test_zero_total_rejected(self):
        with pytest.raises(InsufficientCountsError):
            angle_from_counts(0.0, 0.0)

    @given(
        n_t=st.floats(0.0, 1e6),
        n_r=st.floats(0.0, 1e6),
    )
    @settings(max_examples=200)
    def test_range_bounded_by_estimator_limits(self, n_t, n_r):
        if n_t + n_r == 0.0:
            return
        angle = angle_from_counts(n_t, n_r)
        assert -math.pi / 4.0 - 1e-12 <= angle <= math.pi / 4.0 + 1e-12


class TestRotationAngle:
    def test_resonance_reads_zero(self):
        assert rotation_angle(0.0, P.g0, P) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_probe_point(self):
        angle = rotation_angle(-1.1 * MHZ, P.g0, P)
        assert math.degrees(angle) == pytest.approx(-20.730127951503526, rel=1e-12)

    def test_negative_detuning_negative_angle(self):
        assert rotation_angle(-0.5 * MHZ, P.g0, P) < 0.0
        assert rotation_angle(0.5 * MHZ, P.g0, P) > 0.0

    @given(delta_mhz=st.floats(0.01, 6.0))
    @settings(max_examples=100)
    def test_antisymmetric_in_detuning(self, delta_mhz):
        plus = rotation_angle(delta_mhz * MHZ, P.g0, P)
        minus = rotation_angle(-delta_mhz * MHZ, P.g0, P)
        assert plus == pytest.approx(-minus, rel=1e-9, abs=1e-12)

    def test_decoupled_reads_zero_everywhere(self):
        deltas = MHZ * np.linspace(-3, 3, 11)
        np.testing.assert_allclose(rotation_curve(deltas, 0.0, P), 0.0, atol=1e-12)

    def test_curve_matches_scalar(self):
        deltas = MHZ * np.linspace(-3, 3, 13)
        curve = rotation_curve(deltas, P.g0, P)
        scalar = [rotation_angle(float(d), P.g0, P) for d in deltas]
        np.testing.assert_allclose(curve, scalar, rtol=1e-12, atol=1e-15)

    def test_balanced_offset_constant(self):
        assert BALANCED_ANALYZER_OFFSET == pytest.approx(math.pi / 4.0)


class TestAzimuth:
    def test_transparent_reads_zero(self):
        assert polarization_azimuth(Transmittance(t_minus=1.0 + 0.0j)) == pytest.approx(0.0)

    def test_pure_rotation_reads_operator_angle(self):
        # t = e^{2 i psi} rotates the ellipse azimuth by psi; the count
        # estimator reads the opposite sign (documented convention)
        psi = 0.15
        t = Transmittance(t_minus=cmath.exp(2j * psi))
        assert polarization_azimuth(t) == pytest.approx(psi, rel=1e-12)
        n_t, n_r = (
            abs(t.t_minus + 1j) ** 2 / 4.0,
            abs(t.t_minus - 1j) ** 2 / 4.0,
        )
        assert angle_from_counts(n_t, n_r) == pytest.approx(-psi, rel=1e-9)
