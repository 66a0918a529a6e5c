"""Stochastic simulation of falling atoms: trajectory sampling, real-time
coincidence selection, and trajectory averaging of transmittance and
rotation curves.

Atoms drop through the cavity mode with a fixed fall velocity and random
transverse velocities. Candidate atoms enter on a disc (radius twice the
mode waist) in the x-z plane at the excitation-beam height. Two selection
models are provided:

* ``sample_selected_trajectories`` simulates the experiment's real-time
  criterion: photon clicks form an inhomogeneous Poisson process whose rate
  follows the local emission rate (coupling squared, scaled to ``rate_max``
  at the mode center, weighted by the excitation-beam profile), and an atom
  is selected when two clicks arrive within the coincidence window. The
  returned trajectory starts at the second click.
* ``threshold_trajectories`` keeps atoms whose initial coupling magnitude is
  at least a set fraction (default 0.9) of the maximum. This is the default
  ensemble for averaged curves: it directly encodes "nearly maximal
  coupling at selection" and is insensitive to brightness assumptions.

Averages are taken over intensities (expected photon counts), not field
amplitudes, since counts accumulate over many atoms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .optics import AtomPosition, angle_from_counts, coupling_grid, t_minus_value
from .params import SystemParams


class SelectionError(RuntimeError):
    """Raised when the selection acceptance rate is implausibly low."""


@dataclass(frozen=True)
class MotionModel:
    """Kinematics of the atom drop and the probe window."""

    v_fall: float = 0.3             # m/s, along -y
    v_transverse_rms: float = 0.04  # m/s, rms of the combined (vx, vz) speed
    window: float = 34e-6           # s, measurement window after selection
    seed: int = 12345
    time_step: float = 0.5e-6       # s, trajectory discretization


@dataclass(frozen=True)
class CoincidenceConfig:
    """Real-time selection criterion: two clicks within the window."""

    window_ns: float = 600.0
    rate_max: float = 7.6e5  # detected photons/s for an atom at the mode center

    @property
    def window_s(self) -> float:
        return self.window_ns * 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Straight-line atom trajectory over one probe window."""

    r0: AtomPosition
    velocity: tuple[float, float, float]
    window: float
    time_step: float = 0.5e-6

    def times(self) -> np.ndarray:
        n_steps = max(1, int(round(self.window / self.time_step)))
        return np.linspace(0.0, self.window, n_steps + 1)

    def positions(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        return (
            self.r0.x + self.velocity[0] * t,
            self.r0.y + self.velocity[1] * t,
            self.r0.z + self.velocity[2] * t,
        )


def coupling_series(traj: Trajectory, params: SystemParams) -> np.ndarray:
    """g(r(t)) sampled on the trajectory's time grid."""
    x, y, z = traj.positions(traj.times())
    return coupling_grid(x, y, z, params)


def coupling_matrix(trajectories: list[Trajectory], params: SystemParams) -> np.ndarray:
    """g(r(t)) for a homogeneous ensemble, shape (n_traj, n_times)."""
    if not trajectories:
        raise ValueError("trajectory list must not be empty")
    window = trajectories[0].window
    step = trajectories[0].time_step
    for traj in trajectories:
        if traj.window != window or traj.time_step != step:
            raise ValueError("trajectories must share one time grid for batch averaging")
    t = trajectories[0].times()[None, :]
    x0 = np.array([traj.r0.x for traj in trajectories])[:, None]
    y0 = np.array([traj.r0.y for traj in trajectories])[:, None]
    z0 = np.array([traj.r0.z for traj in trajectories])[:, None]
    vx = np.array([traj.velocity[0] for traj in trajectories])[:, None]
    vy = np.array([traj.velocity[1] for traj in trajectories])[:, None]
    vz = np.array([traj.velocity[2] for traj in trajectories])[:, None]
    return coupling_grid(x0 + vx * t, y0 + vy * t, z0 + vz * t, params)


def pinned_trajectories(
    n: int, window: float = 34e-6, time_step: float = 0.5e-6
) -> list[Trajectory]:
    """Degenerate ensemble: atoms at rest at a mode antinode."""
    traj = Trajectory(
        r0=AtomPosition(0.0, 0.0, 0.0),
        velocity=(0.0, 0.0, 0.0),
        window=window,
        time_step=time_step,
    )
    return [traj] * n


def _sample_disc(
    rng: np.random.Generator, n: int, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    r = radius * np.sqrt(rng.uniform(size=n))
    psi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return r * np.cos(psi), r * np.sin(psi)


def _sample_velocities(
    rng: np.random.Generator, n: int, motion: MotionModel
) -> tuple[np.ndarray, np.ndarray]:
    sigma = motion.v_transverse_rms / math.sqrt(2.0)
    return rng.normal(0.0, sigma, size=n), rng.normal(0.0, sigma, size=n)


def threshold_trajectories(
    motion: MotionModel,
    params: SystemParams,
    n: int,
    threshold: float = 0.9,
    *,
    source_radius_factor: float = 2.0,
    max_candidates: int = 4_000_000,
) -> list[Trajectory]:
    """Atoms whose initial coupling magnitude is >= threshold * g0.

    Initial positions are uniform over the source disc (x-z plane through
    the mode center); the standing-wave phase varies across the disc, so the
    threshold induces both a transverse and an antinode bias.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 <= threshold < 1.0):
        raise ValueError("threshold must lie in [0, 1)")
    rng = np.random.default_rng(motion.seed)
    radius = source_radius_factor * params.waist
    cut = threshold * params.g0

    out: list[Trajectory] = []
    drawn = 0
    while len(out) < n:
        batch = max(4 * (n - len(out)), 1024)
        drawn += batch
        if drawn > max_candidates:
            raise SelectionError(
                f"threshold acceptance too low: {len(out)} kept from {drawn} candidates"
            )
        x0, z0 = _sample_disc(rng, batch, radius)
        y0 = np.zeros(batch)
        g = coupling_grid(x0, y0, z0, params)
        keep = np.flatnonzero(np.abs(g) >= cut)
        vx, vz = _sample_velocities(rng, keep.size, motion)
        for j, idx in enumerate(keep):
            if len(out) == n:
                break
            out.append(
                Trajectory(
                    r0=AtomPosition(float(x0[idx]), 0.0, float(z0[idx])),
                    velocity=(float(vx[j]), -motion.v_fall, float(vz[j])),
                    window=motion.window,
                    time_step=motion.time_step,
                )
            )
    return out


def _first_coincidence_index(times: np.ndarray, window_s: float) -> int:
    """Index into ``times`` of the second click of the first coincidence.

    ``times`` must be sorted click times; returns -1 when no two consecutive
    clicks fall within the window.
    """
    if times.size < 2:
        return -1
    gaps = np.diff(times)
    hits = np.flatnonzero(gaps <= window_s)
    if hits.size == 0:
        return -1
    return int(hits[0]) + 1


def sample_selected_trajectories(
    motion: MotionModel,
    coinc: CoincidenceConfig,
    params: SystemParams,
    n: int,
    *,
    excitation_waist: float = 24e-6,
    source_radius_factor: float = 2.0,
    start_height: float = 50e-6,
    batch_size: int = 5_000,
    max_candidates: int = 2_000_000,
    min_acceptance: float = 1e-4,
) -> list[Trajectory]:
    """Simulate the real-time coincidence selection.

    Candidate atoms enter ``start_height`` above the mode center on the
    source disc and fall through the excitation region. Detected clicks form
    an inhomogeneous Poisson process with rate

        rate_max * (g(r)/g0)^2 * exp(-2 (y^2+z^2)/w_exc^2),

    simulated exactly by thinning a homogeneous process at ``rate_max``. An
    atom is selected when two consecutive clicks arrive within the
    coincidence window; its trajectory starts at the second click.

    Raises SelectionError when the acceptance rate falls below
    ``min_acceptance`` (or no candidate can ever click).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if coinc.rate_max <= 0.0:
        raise SelectionError("rate_max must be positive for any selection to occur")

    rng = np.random.default_rng(motion.seed)
    radius = source_radius_factor * params.waist
    t_total = 2.0 * start_height / motion.v_fall
    mean_events = coinc.rate_max * t_total
    k_max = int(mean_events + 6.0 * math.sqrt(max(mean_events, 1.0))) + 10

    out: list[Trajectory] = []
    candidates = 0
    while len(out) < n:
        if candidates >= max_candidates:
            raise SelectionError(
                f"selection acceptance too low: {len(out)} of {candidates} candidates"
            )
        m = min(batch_size, max_candidates - candidates)
        candidates += m

        x0, z0 = _sample_disc(rng, m, radius)
        y0 = np.full(m, start_height)
        vx, vz = _sample_velocities(rng, m, motion)
        vy = -motion.v_fall

        # Homogeneous candidate clicks at rate_max, then thinning.
        gaps = rng.exponential(1.0 / coinc.rate_max, size=(m, k_max))
        times = np.cumsum(gaps, axis=1)
        valid = times <= t_total

        x = x0[:, None] + vx[:, None] * times
        y = y0[:, None] + vy * times
        z = z0[:, None] + vz[:, None] * times
        ratio = (
            np.exp(-2.0 * (x**2 + y**2) / params.waist**2)
            * np.cos(2.0 * math.pi * z / params.wavelength) ** 2
            * np.exp(-2.0 * (y**2 + z**2) / excitation_waist**2)
        )
        accepted = valid & (rng.uniform(size=(m, k_max)) < ratio)

        counts = accepted.sum(axis=1)
        for row in np.flatnonzero(counts >= 2):
            click_times = times[row][accepted[row]]
            hit = _first_coincidence_index(click_times, coinc.window_s)
            if hit < 0:
                continue
            t_sel = float(click_times[hit])
            out.append(
                Trajectory(
                    r0=AtomPosition(
                        float(x0[row] + vx[row] * t_sel),
                        float(start_height + vy * t_sel),
                        float(z0[row] + vz[row] * t_sel),
                    ),
                    velocity=(float(vx[row]), vy, float(vz[row])),
                    window=motion.window,
                    time_step=motion.time_step,
                )
            )
            if len(out) == n:
                break

        if candidates >= 50_000 and len(out) < min_acceptance * candidates:
            raise SelectionError(
                f"selection acceptance below {min_acceptance:g}: "
                f"{len(out)} of {candidates} candidates"
            )
    return out


def selected_mean_coupling(trajectories: list[Trajectory], params: SystemParams) -> float:
    """Mean |g(r0)| / g0 over an ensemble's selection points."""
    x0 = np.array([traj.r0.x for traj in trajectories])
    y0 = np.array([traj.r0.y for traj in trajectories])
    z0 = np.array([traj.r0.z for traj in trajectories])
    values = np.abs(coupling_grid(x0, y0, z0, params))
    return float(np.mean(values) / params.g0)


def coincidence_gap_probability(
    rate: float, window_s: float, n_gaps: int, seed: int = 0
) -> float:
    """Monte Carlo estimate of P(next click within window) at constant rate.

    For a constant-rate Poisson process the analytic value is
    1 - exp(-rate * window); this estimator exists to validate the
    exponential-gap sampling used by the selection simulation.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n_gaps)
    return float(np.mean(gaps <= window_s))


def average_transmittance(
    trajectories: list[Trajectory],
    delta: np.ndarray,
    params: SystemParams,
) -> np.ndarray:
    """Ensemble- and window-averaged transmittance magnitude per detuning.

    Averages the transmitted intensity |t(g(r(t)))|^2 over trajectories and
    window times, then takes the square root, matching intensity-based
    photon counting.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    g = coupling_matrix(trajectories, params)
    out = np.empty(delta.size, dtype=float)
    for i, d in enumerate(delta):
        t = t_minus_value(d, g, params)
        out[i] = math.sqrt(float(np.mean(np.abs(t) ** 2)))
    return out


def average_rotation(
    trajectories: list[Trajectory],
    delta_grid: np.ndarray,
    params: SystemParams,
) -> np.ndarray:
    """Ensemble-averaged rotation angle per detuning, radians.

    Expected port intensities are averaged over trajectories and window
    times, then passed through the count estimator, exactly as accumulated
    photon counts would be.
    """
    delta_grid = np.atleast_1d(np.asarray(delta_grid, dtype=float))
    g = coupling_matrix(trajectories, params)
    out = np.empty(delta_grid.size, dtype=float)
    for i, d in enumerate(delta_grid):
        t = t_minus_value(d, g, params)
        n_t = float(np.mean(np.abs(t + 1j) ** 2))
        n_r = float(np.mean(np.abs(t - 1j) ** 2))
        out[i] = angle_from_counts(n_t, n_r)
    return out


def export_trajectories_csv(trajectories: list[Trajectory], path: str) -> None:
    """Write an ensemble to CSV for external inspection."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["x0_um", "y0_um", "z0_um", "vx_mps", "vy_mps", "vz_mps", "window_us", "step_us"]
        )
        for traj in trajectories:
            writer.writerow(
                [
                    f"{traj.r0.x * 1e6:.6f}",
                    f"{traj.r0.y * 1e6:.6f}",
                    f"{traj.r0.z * 1e6:.6f}",
                    f"{traj.velocity[0]:.6f}",
                    f"{traj.velocity[1]:.6f}",
                    f"{traj.velocity[2]:.6f}",
                    f"{traj.window * 1e6:.3f}",
                    f"{traj.time_step * 1e6:.3f}",
                ]
            )
