"""Analytic transmittance, its ensemble moments, and the count estimator."""

import cmath
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfaraday import optics, scans
from spinfaraday.optics import (
    MOMENT_BLOCK,
    InsufficientCountsError,
    angle_from_counts,
    coupling_grid,
    rotation_curve,
    t_minus_value,
    t_moments,
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
        scalar = [t_minus_value(float(d), P.g0, P) for d in deltas]
        assert all(isinstance(t, complex) for t in scalar)
        np.testing.assert_allclose(vec, scalar, rtol=1e-14)


def blocks(g, size=MOMENT_BLOCK):
    """Consecutive 1-D slices of g of at most ``size`` samples, as ``t_moments`` takes them."""
    return [g[start : start + size] for start in range(0, g.size, size)]


class TestMoments:
    def test_match_direct_sample_means(self):
        g = P.g0 * np.random.default_rng(4).uniform(-1.0, 1.0, size=500)
        deltas = MHZ * np.linspace(-4.0, 4.0, 9)
        m2, m1 = t_moments(deltas, blocks(g), P)
        t = t_minus_value(deltas[:, None], g, P)
        np.testing.assert_allclose(m2, np.mean(np.abs(t) ** 2, axis=1), rtol=1e-12)
        np.testing.assert_allclose(m1, np.mean(t, axis=1), rtol=1e-12)

    def test_scalar_detuning_gives_one_pair(self):
        m2, m1 = t_moments(MHZ, [np.array([P.g0])], P)
        t = complex(t_minus_value(MHZ, P.g0, P))
        assert m2.shape == m1.shape == (1,)
        assert m2[0] == pytest.approx(abs(t) ** 2, rel=1e-14)
        assert m1[0] == pytest.approx(t, rel=1e-14)

    @pytest.mark.parametrize("sweep", [[], [np.full((3, 2), P.g0)]], ids=["empty", "2-D"])
    def test_coupling_samples_must_be_1d_and_non_empty(self, sweep):
        with pytest.raises(ValueError, match="1-D"):
            t_moments(MHZ * np.array([-1.1, 0.0]), sweep, P)

    def test_an_array_is_not_a_block_sequence(self):
        # Iterating a bare 1-D array yields 0-D samples, which are rejected.
        with pytest.raises(ValueError, match="1-D"):
            t_moments(MHZ, np.full(3, P.g0), P)

    @pytest.mark.parametrize("n", [1, 14, 50])
    def test_block_boundaries_match_per_sample_means(self, n):
        # With blocks of 7: one partial block, two whole blocks, and seven
        # whole blocks with a tail of one.
        g = P.g0 * np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
        deltas = MHZ * np.linspace(-3.0, 3.0, 7)
        m2, m1 = t_moments(deltas, blocks(g, 7), P)
        t = t_minus_value(deltas[:, None], g, P)
        np.testing.assert_allclose(m2, np.mean(np.abs(t) ** 2, axis=1), rtol=1e-12)
        np.testing.assert_allclose(m1, np.mean(t, axis=1), rtol=1e-12)

    @pytest.mark.parametrize("block", [7, MOMENT_BLOCK])
    def test_each_sample_evaluated_once_per_detuning(self, monkeypatch, block):
        elements = []

        def counted(*args, **kwargs):
            result = t_minus_value(*args, **kwargs)
            elements.append(np.size(result))
            return result

        monkeypatch.setattr(optics, "t_minus_value", counted)
        g = P.g0 * np.linspace(-1.0, 1.0, 50)
        deltas = MHZ * np.linspace(-2.0, 2.0, 5)
        t_moments(deltas, blocks(g, block), P)
        assert sum(elements) == deltas.size * g.size

    def test_peak_memory_independent_of_the_sample_count(self):
        # Below four complex blocks however many samples; a whole-array
        # kernel holds about 48 bytes per sample.
        g = P.g0 * np.linspace(-1.0, 1.0, 400_000)
        deltas = MHZ * np.linspace(-3.0, 3.0, 121)
        views = blocks(g)
        tracemalloc.start()
        try:
            t_moments(deltas, views, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * MOMENT_BLOCK * 16

    def test_result_independent_of_the_blas_thread_count(self):
        src = os.path.dirname(os.path.dirname(optics.__file__))
        code = (
            "import numpy as np\n"
            "from spinfaraday.optics import MOMENT_BLOCK, t_moments\n"
            "from spinfaraday.params import DEFAULT_PARAMS as P, TWO_PI\n"
            "g = P.g0 * np.random.default_rng(3).uniform(-1.0, 1.0, size=200_000)\n"
            "blocks = [g[i : i + MOMENT_BLOCK] for i in range(0, g.size, MOMENT_BLOCK)]\n"
            "m2, m1 = t_moments(TWO_PI * 1e6 * np.linspace(-3.0, 3.0, 13), blocks, P)\n"
            "print(m2.tobytes().hex() + m1.tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1]


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

    def test_arrays_match_elementwise_scalars(self):
        n_t = np.array([1.0, 3.0, 0.0, 2.5, 1e-3])
        n_r = np.array([1.0, 1.0, 4.0, 0.0, 7.0])
        angles = angle_from_counts(n_t, n_r)
        assert isinstance(angles, np.ndarray) and angles.shape == (5,)
        scalars = [angle_from_counts(float(a), float(b)) for a, b in zip(n_t, n_r)]
        assert all(isinstance(x, float) for x in scalars)
        np.testing.assert_array_equal(angles, scalars)

    @pytest.mark.parametrize(
        "n_t, n_r, error",
        [
            ([1.0, -1e-9, 2.0], [1.0, 1.0, 1.0], ValueError),
            ([1.0, 1.0, 2.0], [1.0, 1.0, -3.0], ValueError),
            ([1.0, 0.0, 2.0], [1.0, 0.0, 1.0], InsufficientCountsError),
            ([1.0, math.nan, 2.0], [1.0, 1.0, 1.0], ValueError),
            ([1.0, 1.0, 2.0], [math.inf, 1.0, 1.0], ValueError),
            ([1.0, 1.0, -math.inf], [1.0, 1.0, 1.0], ValueError),
        ],
    )
    def test_one_invalid_element_rejects_the_array(self, n_t, n_r, error):
        with pytest.raises(error):
            angle_from_counts(np.array(n_t), np.array(n_r))

    @pytest.mark.parametrize(
        "n_t, n_r",
        [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)],
    )
    def test_non_finite_scalar_rejected(self, n_t, n_r):
        with pytest.raises(ValueError, match="finite and non-negative") as caught:
            angle_from_counts(n_t, n_r)
        assert not isinstance(caught.value, InsufficientCountsError)

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
        assert rotation_curve(0.0, P.g0, P)[0] == pytest.approx(0.0, abs=1e-12)

    def test_frozen_probe_point(self):
        angle = rotation_curve(-1.1 * MHZ, P.g0, P)[0]
        assert math.degrees(angle) == pytest.approx(-20.730127951503526, rel=1e-12)

    def test_negative_detuning_negative_angle(self):
        assert rotation_curve(-0.5 * MHZ, P.g0, P)[0] < 0.0
        assert rotation_curve(0.5 * MHZ, P.g0, P)[0] > 0.0

    @given(delta_mhz=st.floats(0.01, 6.0))
    @settings(max_examples=100)
    def test_antisymmetric_in_detuning(self, delta_mhz):
        plus = rotation_curve(delta_mhz * MHZ, P.g0, P)[0]
        minus = rotation_curve(-delta_mhz * MHZ, P.g0, P)[0]
        assert plus == pytest.approx(-minus, rel=1e-9, abs=1e-12)

    def test_decoupled_reads_zero_everywhere(self):
        deltas = MHZ * np.linspace(-3, 3, 11)
        np.testing.assert_allclose(rotation_curve(deltas, 0.0, P), 0.0, atol=1e-12)

    def test_curve_matches_scalar(self):
        deltas = MHZ * np.linspace(-3, 3, 13)
        curve = rotation_curve(deltas, P.g0, P)
        scalar = [rotation_curve(float(d), P.g0, P)[0] for d in deltas]
        np.testing.assert_allclose(curve, scalar, rtol=1e-12, atol=1e-15)


def _max_rotation_grid(mode: str) -> tuple[np.ndarray, np.ndarray | float]:
    """The anchor's coarse ``max_rotation`` grid and its cavity detuning."""
    span = 6.0 * max(P.g0, P.kappa) + 8.0 * P.gamma
    grid = np.linspace(-span, 0.0, scans.MAX_ROTATION_COARSE_POINTS)
    return grid, grid if mode == scans.CAVITY_EQUALS_ATOM else 0.0


def _lookahead_tree() -> tuple[np.ndarray, np.ndarray]:
    """One cavity-locked lookahead tree's points, from the bracket of the
    anchor's grid maximum, and their cavity detuning (the points themselves)."""
    grid, cavity_detuning = _max_rotation_grid(scans.CAVITY_EQUALS_ATOM)
    best = int(np.argmax(np.abs(rotation_curve(grid, P.g0, P, cavity_detuning))))
    xa, xb, xc = grid[best - 1 : best + 2].tolist()
    points = np.array(scans._lookahead_tree((xa, xb, xb + scans._GOLDEN_C * (xc - xb), xc), 2))
    return points, points


class TestRotationCurveCounts:
    """rotation_curve puts its port counts through the count estimator's
    formula without the checks; the angles equal the checked entry's and the
    formula written out, byte for byte."""

    @pytest.mark.parametrize(
        "delta, cavity_detuning",
        [
            _max_rotation_grid(scans.PROBE_EQUALS_CAVITY),
            _max_rotation_grid(scans.CAVITY_EQUALS_ATOM),
            _lookahead_tree(),
        ],
        ids=["coarse-grid-probe-on-cavity", "coarse-grid-cavity-on-atom", "lookahead-tree"],
    )
    def test_equals_checked_estimator_bytes(self, delta, cavity_detuning):
        t = t_minus_value(delta, P.g0, P, cavity_detuning)
        n_t, n_r = np.abs(t + 1j) ** 2, np.abs(t - 1j) ** 2
        curve = rotation_curve(delta, P.g0, P, cavity_detuning)
        assert curve.shape == delta.shape and delta.size in (15, 241)
        assert curve.tobytes() == angle_from_counts(n_t, n_r).tobytes()
        written_out = np.arccos(np.sqrt(n_t / (n_t + n_r))) - math.pi / 4.0
        assert curve.tobytes() == written_out.tobytes()


class TestAzimuth:
    def test_pure_rotation_reads_operator_angle(self):
        # t = e^{2 i psi} rotates the ellipse azimuth, arg(t)/2, by psi; the
        # count estimator reads the opposite sign (documented convention)
        psi = 0.15
        t = cmath.exp(2j * psi)
        assert cmath.phase(t) / 2.0 == pytest.approx(psi, rel=1e-12)
        n_t, n_r = abs(t + 1j) ** 2 / 4.0, abs(t - 1j) ** 2 / 4.0
        assert angle_from_counts(n_t, n_r) == pytest.approx(-psi, rel=1e-9)
