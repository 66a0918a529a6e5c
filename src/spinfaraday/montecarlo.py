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

Both return an ``Ensemble``: start positions and velocities as two (n, 3)
arrays on one shared probe window and time step, which the averages and
the CSV export read directly.

Averages are taken over intensities (expected photon counts), not field
amplitudes, since counts accumulate over many atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import angle_from_counts, coupling_grid, t_minus_value
from .params import SystemParams

SOURCE_RADIUS_FACTOR = 2.0              # source disc radius, in mode waists
THRESHOLD_MAX_CANDIDATES = 4_000_000    # candidates the threshold sampler may draw
COINCIDENCE_START_HEIGHT = 50e-6        # m, candidate entry height above the mode center
COINCIDENCE_BATCH_SIZE = 5_000          # candidates simulated per batch
COINCIDENCE_MAX_CANDIDATES = 2_000_000  # candidates the coincidence sampler may draw
COINCIDENCE_MIN_ACCEPTANCE = 1e-4       # acceptance floor, checked from 50,000 candidates on


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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Straight-line atom trajectories sharing one probe window and time grid.

    Row i starts at ``r0[i]`` (m, relative to the mode center; z runs along
    the cavity axis) and moves at ``velocity[i]`` (m/s).
    """

    r0: np.ndarray
    velocity: np.ndarray
    window: float
    time_step: float = 0.5e-6

    def __post_init__(self) -> None:
        r0 = np.asarray(self.r0, dtype=float)
        velocity = np.asarray(self.velocity, dtype=float)
        if r0.ndim != 2 or r0.shape[0] < 1 or r0.shape[1] != 3 or velocity.shape != r0.shape:
            raise ValueError(
                "an ensemble needs r0 and velocity of one shape (n, 3) with n >= 1, "
                f"got {r0.shape} and {velocity.shape}"
            )
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "velocity", velocity)

    def __len__(self) -> int:
        return self.r0.shape[0]

    def times(self) -> np.ndarray:
        n_steps = max(1, int(round(self.window / self.time_step)))
        return np.linspace(0.0, self.window, n_steps + 1)


def coupling_matrix(ensemble: Ensemble, params: SystemParams) -> np.ndarray:
    """g(r(t)) over the ensemble's time grid, shape (n_traj, n_times)."""
    r = ensemble.r0[:, :, None] + ensemble.velocity[:, :, None] * ensemble.times()
    return coupling_grid(r[:, 0], r[:, 1], r[:, 2], params)


def pinned_trajectories(n: int, window: float = 34e-6, time_step: float = 0.5e-6) -> Ensemble:
    """Degenerate ensemble: atoms at rest at a mode antinode."""
    return Ensemble(np.zeros((n, 3)), np.zeros((n, 3)), window, time_step)


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
) -> Ensemble:
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
    radius = SOURCE_RADIUS_FACTOR * params.waist
    cut = threshold * params.g0

    r0_parts: list[np.ndarray] = []
    v_parts: list[np.ndarray] = []
    kept = drawn = 0
    while kept < n:
        batch = max(4 * (n - kept), 1024)
        drawn += batch
        if drawn > THRESHOLD_MAX_CANDIDATES:
            raise SelectionError(
                f"threshold acceptance too low: {kept} kept from {drawn} candidates"
            )
        x0, z0 = _sample_disc(rng, batch, radius)
        keep = np.abs(coupling_grid(x0, 0.0, z0, params)) >= cut
        vx, vz = _sample_velocities(rng, np.count_nonzero(keep), motion)
        r0_parts.append(np.column_stack([x0[keep], np.zeros(vx.size), z0[keep]]))
        v_parts.append(np.column_stack([vx, np.full(vx.size, -motion.v_fall), vz]))
        kept += vx.size
    r0, velocity = np.concatenate(r0_parts)[:n], np.concatenate(v_parts)[:n]
    return Ensemble(r0, velocity, motion.window, motion.time_step)


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
) -> Ensemble:
    """Simulate the real-time coincidence selection.

    Candidate atoms enter ``COINCIDENCE_START_HEIGHT`` above the mode center on the
    source disc and fall through the excitation region. Detected clicks form
    an inhomogeneous Poisson process with rate

        rate_max * (g(r)/g0)^2 * exp(-2 (y^2+z^2)/w_exc^2),

    simulated exactly by thinning a homogeneous process at ``rate_max``. An
    atom is selected when two consecutive clicks arrive within the
    coincidence window; its trajectory starts at the second click.

    Raises SelectionError when the acceptance rate falls below
    ``COINCIDENCE_MIN_ACCEPTANCE`` (or no candidate can ever click).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if coinc.rate_max <= 0.0:
        raise SelectionError("rate_max must be positive for any selection to occur")

    rng = np.random.default_rng(motion.seed)
    radius = SOURCE_RADIUS_FACTOR * params.waist
    t_total = 2.0 * COINCIDENCE_START_HEIGHT / motion.v_fall
    mean_events = coinc.rate_max * t_total
    k_max = int(mean_events + 6.0 * math.sqrt(max(mean_events, 1.0))) + 10

    r0_parts: list[np.ndarray] = []
    v_parts: list[np.ndarray] = []
    selected = candidates = 0
    while selected < n:
        if candidates >= COINCIDENCE_MAX_CANDIDATES:
            raise SelectionError(
                f"selection acceptance too low: {selected} of {candidates} candidates"
            )
        m = min(COINCIDENCE_BATCH_SIZE, COINCIDENCE_MAX_CANDIDATES - candidates)
        candidates += m

        x0, z0 = _sample_disc(rng, m, radius)
        y0 = np.full(m, COINCIDENCE_START_HEIGHT)
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
        rows: list[int] = []
        t_sel: list[float] = []
        for row in np.flatnonzero(counts >= 2):
            click_times = times[row][accepted[row]]
            hit = _first_coincidence_index(click_times, coinc.window_s)
            if hit < 0:
                continue
            rows.append(row)
            t_sel.append(click_times[hit])
            if selected + len(rows) == n:
                break
        velocity = np.column_stack([vx[rows], np.full(len(rows), vy), vz[rows]])
        start = np.column_stack([x0[rows], y0[rows], z0[rows]])
        r0_parts.append(start + velocity * np.array(t_sel)[:, None])
        v_parts.append(velocity)
        selected += len(rows)

        if candidates >= 50_000 and selected < COINCIDENCE_MIN_ACCEPTANCE * candidates:
            raise SelectionError(
                f"selection acceptance below {COINCIDENCE_MIN_ACCEPTANCE:g}: "
                f"{selected} of {candidates} candidates"
            )
    r0, velocity = np.concatenate(r0_parts), np.concatenate(v_parts)
    return Ensemble(r0, velocity, motion.window, motion.time_step)


def selected_mean_coupling(ensemble: Ensemble, params: SystemParams) -> float:
    """Mean |g(r0)| / g0 over an ensemble's selection points."""
    return float(np.mean(np.abs(coupling_grid(*ensemble.r0.T, params))) / params.g0)


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
    ensemble: Ensemble,
    delta: np.ndarray,
    params: SystemParams,
) -> np.ndarray:
    """Ensemble- and window-averaged transmittance magnitude per detuning.

    Averages the transmitted intensity |t(g(r(t)))|^2 over trajectories and
    window times, then takes the square root, matching intensity-based
    photon counting.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    g = coupling_matrix(ensemble, params)
    out = np.empty(delta.size, dtype=float)
    for i, d in enumerate(delta):
        t = t_minus_value(d, g, params)
        out[i] = math.sqrt(float(np.mean(np.abs(t) ** 2)))
    return out


def average_rotation(
    ensemble: Ensemble,
    delta_grid: np.ndarray,
    params: SystemParams,
) -> np.ndarray:
    """Ensemble-averaged rotation angle per detuning, radians.

    Expected port intensities are averaged over trajectories and window
    times, then passed through the count estimator, exactly as accumulated
    photon counts would be.
    """
    delta_grid = np.atleast_1d(np.asarray(delta_grid, dtype=float))
    g = coupling_matrix(ensemble, params)
    n_t = np.empty(delta_grid.size, dtype=float)
    n_r = np.empty(delta_grid.size, dtype=float)
    for i, d in enumerate(delta_grid):
        t = t_minus_value(d, g, params)
        n_t[i] = np.mean(np.abs(t + 1j) ** 2)
        n_r[i] = np.mean(np.abs(t - 1j) ** 2)
    return angle_from_counts(n_t, n_r)


def export_trajectories_csv(ensemble: Ensemble, path: str) -> None:
    """Write an ensemble to CSV for external inspection."""
    grid_us = np.tile([ensemble.window * 1e6, ensemble.time_step * 1e6], (len(ensemble), 1))
    columns = np.column_stack([ensemble.r0 * 1e6, ensemble.velocity, grid_us])
    header = "x0_um,y0_um,z0_um,vx_mps,vy_mps,vz_mps,window_us,step_us"
    # "\r\n" line ends, as the csv module writes them, keep the file format.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(
            fh, columns, fmt=["%.6f"] * 6 + ["%.3f"] * 2, delimiter=",",
            newline="\r\n", header=header, comments="",
        )
