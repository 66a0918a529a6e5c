"""Falling-atom ensembles, coincidence selection, and curve averaging."""

import contextlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfaraday import montecarlo, optics
from spinfaraday.montecarlo import (
    COINCIDENCE_BATCH_SIZE,
    COINCIDENCE_MAX_CLICKS,
    COINCIDENCE_ROW_BLOCK,
    COINCIDENCE_START_HEIGHT,
    SOURCE_RADIUS_FACTOR,
    MotionModel,
    Ensemble,
    SelectionError,
    _click_ratio,
    _closest_approach,
    _first_coincidences,
    _row_envelope,
    _sample_disc,
    _sample_velocities,
    average_rotation,
    average_transmittance,
    coincidence_clicks,
    coupling_blocks,
    coupling_matrix,
    lineshape_sites,
    sample_selected_trajectories,
    threshold_trajectories,
)
from spinfaraday.optics import (
    MOMENT_BLOCK,
    angle_from_counts,
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


def whole_block_selection(
    motion, params, n, *, window_ns=600.0, rate_max=7.6e5, excitation_waist=24e-6
):
    """The coincidence sampler thinned over whole (batch, k_max) arrays.

    Same draws in the same order as ``sample_selected_trajectories``: the
    click rate is evaluated at every candidate click, with one uniform block.
    """
    rng = np.random.default_rng(motion.seed)
    t_total = 2.0 * COINCIDENCE_START_HEIGHT / motion.v_fall
    mean_events = rate_max * t_total
    k_max = int(mean_events + 6.0 * math.sqrt(max(mean_events, 1.0))) + 10
    r0_parts, v_parts, selected = [], [], 0
    while selected < n:
        m = COINCIDENCE_BATCH_SIZE
        x0, z0 = _sample_disc(rng, m, SOURCE_RADIUS_FACTOR * params.waist)
        y0 = np.full(m, COINCIDENCE_START_HEIGHT)
        vx, vz = _sample_velocities(rng, m, motion)
        vy = -motion.v_fall
        times = np.cumsum(rng.exponential(1.0 / rate_max, size=(m, k_max)), axis=1)
        x = x0[:, None] + vx[:, None] * times
        y = y0[:, None] + vy * times
        z = z0[:, None] + vz[:, None] * times
        ratio = (
            np.exp(-2.0 * (x**2 + y**2) / params.waist**2)
            * np.cos(2.0 * math.pi * z / params.wavelength) ** 2
            * np.exp(-2.0 * (y**2 + z**2) / excitation_waist**2)
        )
        accepted = (times <= t_total) & (rng.uniform(size=(m, k_max)) < ratio)
        row, col = np.nonzero(accepted)
        rows, t_sel = _first_coincidences(row, times[row, col], window_ns * 1e-9)
        rows, t_sel = rows[: n - selected], t_sel[: n - selected]
        velocity = np.column_stack([vx[rows], np.full(len(rows), vy), vz[rows]])
        start = np.column_stack([x0[rows], y0[rows], z0[rows]])
        r0_parts.append(start + velocity * t_sel[:, None])
        v_parts.append(velocity)
        selected += len(rows)
    return np.concatenate(r0_parts), np.concatenate(v_parts)


def single(r0, velocity, window, time_step=0.5e-6):
    motion = MotionModel(window=window, time_step=time_step)
    return Ensemble(np.array([r0]), np.array([velocity]), motion)


class TestTrajectories:
    def test_time_grid(self):
        ensemble = single((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), window=34e-6, time_step=0.5e-6)
        t = ensemble.motion.times()
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(34e-6)
        assert t.size == 69

    def test_positions_linear(self):
        r0, velocity = (1e-6, 2e-6, 3e-6), (1.0, -0.3, 0.5)
        ensemble = single(r0, velocity, window=10e-6)
        matrix = coupling_matrix(ensemble, P)
        expected = pointwise_couplings(r0, velocity, ensemble.motion.times())
        assert matrix[0, -1] == pytest.approx(
            closed_form_coupling(1e-6 + 1.0 * 10e-6, 2e-6 - 0.3 * 10e-6, 3e-6 + 0.5 * 10e-6)
        )
        assert list(matrix[0]) == pytest.approx(expected)

    def test_coupling_row_matches_pointwise(self):
        r0, velocity = (2e-6, -1e-6, 50e-9), (0.05, -0.3, 0.01)
        ensemble = single(r0, velocity, window=34e-6)
        series = coupling_matrix(ensemble, P)[0]
        expected = pointwise_couplings(r0, velocity, ensemble.motion.times())
        np.testing.assert_allclose(series, expected, rtol=1e-12)

    def test_coupling_matrix_matches_series(self):
        ensemble = threshold_trajectories(MotionModel(seed=3), P, 20)
        matrix = coupling_matrix(ensemble, P)
        times = ensemble.motion.times()
        assert matrix.shape == (20, times.size)
        for i in (0, 7, 19):
            expected = pointwise_couplings(ensemble.r0[i], ensemble.velocity[i], times)
            np.testing.assert_allclose(matrix[i], expected, rtol=1e-12)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(np.zeros((2, 3)), np.zeros((3, 3)), MotionModel())
        with pytest.raises(ValueError):
            Ensemble(np.zeros((2, 2)), np.zeros((2, 2)), MotionModel())
        with pytest.raises(ValueError):
            Ensemble(np.zeros(3), np.zeros(3), MotionModel())

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(np.zeros((0, 3)), np.zeros((0, 3)), MotionModel())

    @pytest.mark.parametrize(
        "window, time_step",
        [(34e-6, 0.0), (-1e-6, 0.5e-6), (math.nan, 0.5e-6), (34e-6, math.inf)],
    )
    def test_time_grid_must_be_finite_and_positive(self, window, time_step):
        with pytest.raises(ValueError, match="finite and positive"):
            MotionModel(window=window, time_step=time_step)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"v_fall": 0.0}, "v_fall"),
            ({"v_fall": -0.3}, "v_fall"),
            ({"v_fall": math.nan}, "v_fall"),
            ({"v_fall": math.inf}, "v_fall"),
            ({"v_transverse_rms": -0.04}, "v_transverse_rms"),
            ({"v_transverse_rms": math.nan}, "v_transverse_rms"),
            ({"v_transverse_rms": math.inf}, "v_transverse_rms"),
        ],
    )
    def test_kinematics_checked_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MotionModel(**kwargs)

    def test_zero_transverse_speed_builds(self):
        ensemble = threshold_trajectories(MotionModel(v_transverse_rms=0.0), P, 5)
        assert not ensemble.velocity[:, [0, 2]].any()

    @pytest.mark.parametrize(
        "window, time_step", [(34e-6, 0.7e-6), (34e-6, 100e-6), (34e-6, 68.5e-6)]
    )
    def test_window_must_hold_whole_time_steps(self, window, time_step):
        with pytest.raises(ValueError, match="whole number"):
            MotionModel(window=window, time_step=time_step)

    def test_whole_steps_within_rounding(self):
        # (0.1 + 0.2) us misses 3 steps of 0.1 us by one ulp, inside the 1e-9 slack.
        motion = MotionModel(window=(0.1 + 0.2) * 1e-6, time_step=0.1e-6)
        np.testing.assert_allclose(motion.times(), [0.0, 0.1e-6, 0.2e-6, 0.3e-6])

    def test_len_is_sample_count(self):
        assert len(threshold_trajectories(MotionModel(seed=3), P, 37)) == 37
        selected = sample_selected_trajectories(MotionModel(seed=3), P, 23)
        assert len(selected) == 23
        assert len(Ensemble(np.zeros((5, 3)), np.zeros((5, 3)), MotionModel())) == 5


class TestPinnedEnsemble:
    def test_degenerate_averages_match_single_atom(self):
        # atoms at rest at a mode antinode
        trajs = Ensemble(np.zeros((5, 3)), np.zeros((5, 3)), MotionModel())
        averaged_t = average_transmittance(trajs, GRID, P)
        pinned_t = np.abs(t_minus_value(GRID, P.g0, P))
        np.testing.assert_allclose(averaged_t, pinned_t, rtol=1e-12)

        averaged_angle = average_rotation(trajs, GRID, P)
        np.testing.assert_allclose(
            averaged_angle, rotation_curve(GRID, P.g0, P), rtol=1e-10, atol=1e-14
        )


class TestMomentAverages:
    """The two-moment averages against the per-sample formulas they replace."""

    def test_match_direct_per_sample_means(self):
        trajs = threshold_trajectories(MotionModel(seed=21), P, 200)
        g = coupling_matrix(trajs, P)
        t = t_minus_value(GRID[:, None, None], g, P)
        n_t = np.mean(np.abs(t + 1j) ** 2, axis=(1, 2))
        n_r = np.mean(np.abs(t - 1j) ** 2, axis=(1, 2))
        np.testing.assert_allclose(
            average_rotation(trajs, GRID, P), angle_from_counts(n_t, n_r), rtol=1e-12
        )
        np.testing.assert_allclose(
            average_transmittance(trajs, GRID, P),
            np.sqrt(np.mean(np.abs(t) ** 2, axis=(1, 2))),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("n", [1, 5, 1000])
    @pytest.mark.parametrize(
        "block", [7, 69, 100, MOMENT_BLOCK], ids=["7", "row-aligned", "straddling", "default"]
    )
    def test_streamed_blocks_are_the_flattened_matrix(self, monkeypatch, block, n):
        # The default window holds 69 times; a block is whole rows, at least one.
        monkeypatch.setattr(optics, "MOMENT_BLOCK", block)
        trajs = threshold_trajectories(MotionModel(seed=22), P, n)
        blocks = list(coupling_blocks(trajs, P))
        size = max(1, block // 69) * 69
        assert all(b.size == size for b in blocks[:-1])
        assert blocks[-1].size in range(69, size + 1, 69)
        assert np.concatenate(blocks).tobytes() == coupling_matrix(trajs, P).reshape(-1).tobytes()

    def test_peak_memory_independent_of_the_trajectory_count(self):
        # A few blocks of temporaries at 10^4 and 4 x 10^4 trajectories alike;
        # a whole coupling matrix holds about 3.3 KB per trajectory.
        deltas = MHZ * np.linspace(-3.0, 3.0, 5)
        ensembles = [threshold_trajectories(MotionModel(seed=23), P, n) for n in (10_000, 40_000)]
        for average in (average_rotation, average_transmittance):
            peaks = []
            for trajs in ensembles:
                tracemalloc.start()
                try:
                    average(trajs, deltas, P)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= 1.2 * peaks[0]
            assert max(peaks) < 8 * MOMENT_BLOCK * 16


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

    def test_healthy_acceptance_draws_past_the_judging_count(self):
        # About 4.7% pass at the default threshold, so 200,000 atoms take
        # more than THRESHOLD_JUDGED_FROM (4 million) candidates.
        trajs = threshold_trajectories(MotionModel(), P, 200_000)
        assert len(trajs) == 200_000
        assert np.all(np.abs(coupling_grid(*trajs.r0[-50:].T, P)) >= 0.9 * P.g0)

    def test_acceptance_below_the_floor_raises(self):
        # About 4.4e-5 of the disc reaches 0.9999 g0, below the 1e-4 floor.
        with pytest.raises(SelectionError, match="acceptance below"):
            threshold_trajectories(MotionModel(), P, 1000, threshold=0.9999)


class TestCoincidenceSelection:
    def test_first_coincidences_hand_cases(self):
        # One row per case; NaN pads the shorter rows and is never accepted.
        w = 600e-9
        cases = [
            [0.0, 1e-6, 1.5e-6],  # second gap hits: selected at 1.5 us
            [0.0, 0.4e-6],  # first gap hits
            [0.0, 1e-6, 2e-6],  # no gap within the window
            [0.0],  # one click
            [],  # no click
            [0.0, w],  # a gap exactly equal to the window counts
        ]
        times = np.full((len(cases), 3), np.nan)
        for i, row in enumerate(cases):
            times[i, : len(row)] = row
        row, col = np.nonzero(~np.isnan(times))
        rows, t_sel = _first_coincidences(row, times[row, col], w)
        np.testing.assert_array_equal(rows, [0, 1, 5])
        np.testing.assert_array_equal(t_sel, [1.5e-6, 0.4e-6, w])

    def test_selection_biases_toward_strong_coupling(self):
        motion = MotionModel(seed=77)
        trajs = sample_selected_trajectories(motion, P, 500)
        assert len(trajs) == 500
        mean_coupling = np.mean(np.abs(coupling_grid(*trajs.r0.T, P))) / P.g0
        # unselected drop points on the source disc average well below this
        assert 0.55 < mean_coupling < 0.85

    def test_selected_points_lie_in_bright_region(self):
        motion = MotionModel(seed=13)
        trajs = sample_selected_trajectories(motion, P, 200)
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
            trajs = sample_selected_trajectories(motion, P, 1000, rate_max=7.6e5 * factor)
            g = coupling_grid(*trajs.r0.T, P) / P.g0
            means.append(float(np.mean(g**2)))
        assert means[0] > means[1] > means[2] > means[3]

    def test_deterministic_in_seed(self):
        a = sample_selected_trajectories(MotionModel(seed=4), P, 50)
        b = sample_selected_trajectories(MotionModel(seed=4), P, 50)
        assert np.array_equal(a.r0, b.r0) and np.array_equal(a.velocity, b.velocity)

    def test_stops_thinning_once_n_are_selected(self, monkeypatch):
        # the first 500-row slab of the first batch already holds 50 coincidences
        monkeypatch.setattr(montecarlo, "COINCIDENCE_ROW_BLOCK", 500)
        calls = []

        def counted(*args):
            calls.append(args)
            return _first_coincidences(*args)

        monkeypatch.setattr(montecarlo, "_first_coincidences", counted)
        assert len(sample_selected_trajectories(MotionModel(), P, 50)) == 50
        assert len(calls) == 1

    def test_hopeless_rate_raises(self):
        with pytest.raises(SelectionError):
            sample_selected_trajectories(MotionModel(seed=1), P, 10, rate_max=1.0)

    @pytest.mark.parametrize("rate_max", [0.0, -7.6e5])
    def test_non_positive_rate_raises_before_sampling(self, rate_max):
        with pytest.raises(SelectionError, match="must be positive"):
            sample_selected_trajectories(MotionModel(seed=1), P, 10, rate_max=rate_max)

    def test_uncoupled_atoms_raise_before_sampling(self):
        # With g0 = 0 no site couples to the mode, so no atom can ever click.
        with pytest.raises(SelectionError, match="g0 must be positive"):
            sample_selected_trajectories(MotionModel(seed=1), replace(P, g0=0.0), 10)

    def test_clicks_per_row_and_their_cap(self):
        # k_max at the defaults, at the CLI property test's caps and for a
        # slow bright source; over a fine rate sweep across the cap, the
        # largest k_max admitted is the cap itself.
        cases = ((7.6e5, 0.3), (1e6, 0.2), (2e6, 0.1))
        assert [coincidence_clicks(rate, v_fall) for rate, v_fall in cases] == [358, 644, 2278]
        admitted = []
        for rate in np.linspace(1.11e7, 1.12e7, 20001):
            with contextlib.suppress(ValueError):
                admitted.append(coincidence_clicks(float(rate), 0.3))
        assert max(admitted) == COINCIDENCE_MAX_CLICKS and len(admitted) < 20001
        with pytest.raises(ValueError, match="above its cap"):
            coincidence_clicks(1e300, 1e-300)

    @pytest.mark.parametrize(
        "selection, match",
        [
            ({"rate_max": math.nan}, "must be finite"),
            ({"rate_max": math.inf}, "must be finite"),
            ({"window_ns": -1.0}, "must be finite"),
            ({"window_ns": 0.0}, "must be finite"),
            ({"window_ns": math.inf}, "must be finite"),
            ({"excitation_waist": 0.0}, "must be finite"),
            ({"excitation_waist": math.nan}, "must be finite"),
            ({"excitation_waist": -24e-6}, "must be finite"),
            ({"n": 0}, "n must be at least 1"),
            ({"rate_max": 1e9}, "above its cap"),
        ],
        ids=[
            "rate-nan", "rate-inf", "window-negative", "window-zero", "window-inf",
            "waist-zero", "waist-nan", "waist-negative", "n-zero", "rate-above-click-cap",
        ],
    )
    def test_invalid_inputs_raise_before_sampling(self, selection, match):
        selection = {"n": 10} | selection
        with pytest.raises(ValueError, match=match):
            sample_selected_trajectories(MotionModel(seed=1), P, **selection)

    @pytest.mark.parametrize(
        "selection, n, row_block",
        [
            ({}, 1000, None),
            ({"excitation_waist": 2e-6}, 30, None),
            ({"rate_max": 4 * 7.6e5}, 2500, None),
            ({"window_ns": 50.0}, 200, None),
            # 700 does not divide the batch, so each batch ends on a 100-row
            # slab: the replayed gaps and the uniforms must stay in step.
            ({}, 1000, 700),
        ],
        ids=["default", "waist-2um", "rate-x4", "window-50ns", "short-last-slab"],
    )
    def test_matches_whole_block_thinning(self, monkeypatch, selection, n, row_block):
        # each case spans at least two batches
        if row_block is not None:
            assert COINCIDENCE_BATCH_SIZE % row_block == 100
            monkeypatch.setattr(montecarlo, "COINCIDENCE_ROW_BLOCK", row_block)
        motion = MotionModel(seed=99)
        trajs = sample_selected_trajectories(motion, P, n, **selection)
        r0, velocity = whole_block_selection(motion, P, n, **selection)
        assert np.array_equal(trajs.r0, r0)
        assert np.array_equal(trajs.velocity, velocity)

    def test_matches_whole_block_thinning_on_crossing_paths(self):
        # At 0.5 m/s transverse most rows cross x = 0 or z = 0 during the
        # fall, so their envelopes are set by the crossing, not the ends.
        motion = MotionModel(seed=99, v_transverse_rms=0.5)
        rng = np.random.default_rng(motion.seed)
        x0, z0 = _sample_disc(rng, COINCIDENCE_BATCH_SIZE, SOURCE_RADIUS_FACTOR * P.waist)
        vx, vz = _sample_velocities(rng, COINCIDENCE_BATCH_SIZE, motion)
        t_total = 2.0 * COINCIDENCE_START_HEIGHT / motion.v_fall
        crossing = (_closest_approach(x0, vx, t_total) == 0.0) | (
            _closest_approach(z0, vz, t_total) == 0.0
        )
        assert crossing.mean() > 0.5
        # about 150 atoms per batch are selected, so 300 span two batches
        trajs = sample_selected_trajectories(motion, P, 300)
        r0, velocity = whole_block_selection(motion, P, 300)
        assert np.array_equal(trajs.r0, r0)
        assert np.array_equal(trajs.velocity, velocity)

    @staticmethod
    def sampler_peak(n):
        """The sampler's tracemalloc peak; numpy.random, imported lazily, is imported first."""
        np.random.default_rng()
        tracemalloc.start()
        try:
            sample_selected_trajectories(MotionModel(), P, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [500, 2500], ids=["one-batch", "three-batches"])
    def test_peak_memory_of_one_batch(self, n):
        # Measured 5.2 and 5.5 slabs of (COINCIDENCE_ROW_BLOCK x k_max) floats
        # at the two n, with k_max = 358 at the defaults: the gap and uniform
        # slabs plus the clicks within each row's envelope and the batch's
        # rows. Holding a whole (batch, k_max) block reads 70 or more.
        assert self.sampler_peak(n) < 7.5 * COINCIDENCE_ROW_BLOCK * 358 * 8

    def test_peak_memory_below_two_and_a_half_megabytes(self):
        # Measured 1.6 MB at n = 2,500; four 500-row slabs read 8.4 MB.
        assert self.sampler_peak(2500) < 2.5e6


class TestClickEnvelope:
    @pytest.mark.parametrize(
        "p0, v, expected",
        [
            (-1.0, 2.0, 0.0),  # crosses zero mid-path
            (1.0, -1.0, 0.0),  # touches zero at the end
            (0.0, 1.0, 0.0),  # starts at zero
            (1.0, 0.5, 1.0),  # moves away from zero, positive side
            (-1.0, -0.5, 1.0),  # moves away from zero, negative side
            (2.0, -1.0, 1.0),  # moves toward zero without reaching it
            (-2.0, 1.0, 1.0),  # the same from the negative side
            (-3.0, 0.0, 3.0),  # at rest
        ],
        ids=[
            "crosses", "touches-end", "touches-start", "away-positive", "away-negative",
            "toward-positive", "toward-negative", "at-rest",
        ],
    )
    def test_closest_approach_hand_cases(self, p0, v, expected):
        assert _closest_approach(np.array([p0]), np.array([v]), 1.0)[0] == expected

    @settings(max_examples=300, deadline=None)
    @given(
        x0=st.floats(-2.0, 2.0),
        z0=st.floats(-2.0, 2.0),
        vx=st.floats(-1.0, 1.0),
        vz=st.floats(-1.0, 1.0),
        fraction=st.floats(0.0, 1.0),
        excitation_waist=st.sampled_from([24e-6, 2e-6]),
    )
    def test_envelope_bounds_the_click_ratio(self, x0, z0, vx, vz, fraction, excitation_waist):
        # start positions in mode waists on the source disc's square, velocities in m/s
        motion = MotionModel()
        t_total = 2.0 * COINCIDENCE_START_HEIGHT / motion.v_fall
        x0, z0 = np.array([x0 * P.waist]), np.array([z0 * P.waist])
        vx, vz = np.array([vx]), np.array([vz])
        envelope = _row_envelope(x0, vx, z0, vz, t_total, P.waist, excitation_waist)
        t = np.array([fraction * t_total])
        y = -motion.v_fall * t + COINCIDENCE_START_HEIGHT
        c = 2.0 * (1.0 / P.waist**2 + 1.0 / excitation_waist**2)
        ratio = _click_ratio(x0 + vx * t, y, z0 + vz * t, P, excitation_waist)
        assert ratio[0] <= envelope[0] * np.exp(-c * y * y)[0]


class TestLineshapeSites:
    def test_draws_x_then_z_from_one_generator(self):
        g, beam = lineshape_sites(P, 50, 3, 24e-6)
        rng = np.random.default_rng(3)
        x = rng.uniform(-P.waist, P.waist, size=50)
        z = rng.uniform(-24e-6, 24e-6, size=50)
        np.testing.assert_array_equal(g, coupling_grid(x, 0.0, z, P))
        np.testing.assert_array_equal(beam, np.exp(-(z**2) / (24e-6) ** 2))


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
