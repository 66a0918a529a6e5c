"""Random atom sites and trajectories: fig2's lineshape sites, falling-atom
sampling with real-time coincidence selection, and trajectory averaging of
transmittance and rotation curves.

Atoms drop through the cavity mode with a fixed fall velocity and random
transverse velocities. Candidate atoms enter on a disc (radius twice the
mode waist) in the x-z plane at the excitation-beam height. Two selection
models are provided:

* ``sample_selected_trajectories`` simulates the experiment's real-time
  criterion, set by its keyword arguments ``window_ns``, ``rate_max`` and
  ``excitation_waist``: photon clicks form an inhomogeneous Poisson process
  whose rate follows the local emission rate (coupling squared, scaled to
  ``rate_max`` at the mode center, weighted by the excitation-beam profile),
  and an atom is selected when two clicks arrive within ``window_ns``. The
  returned trajectory starts at the second click. Click times are held one
  slab of ``COINCIDENCE_ROW_BLOCK`` candidates at a time, never a whole
  batch; the click rate is evaluated only where two exact bounds, each
  row's transverse envelope and then the height's factor, say a click can
  pass.
* ``threshold_trajectories`` keeps atoms whose initial coupling magnitude is
  at least a set fraction (default 0.9) of the maximum. This is the default
  ensemble for averaged curves: it directly encodes "nearly maximal
  coupling at selection" and is insensitive to brightness assumptions.

Both return an ``Ensemble``: start positions and velocities as two (n, 3)
arrays plus the ``MotionModel`` that drew them. The motion model checks its
kinematics and probe window at construction and owns the window's time
grid, which the averages read directly.

Averages are taken over intensities (expected photon counts), not field
amplitudes, since counts accumulate over many atoms. They stream the
couplings to the moment sweep one block of whole trajectory rows at a time
(``coupling_blocks``), so their memory does not grow with the trajectory
count.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import optics
from .optics import angle_from_counts, coupling_grid, t_moments
from .params import SystemParams

SOURCE_RADIUS_FACTOR = 2.0              # source disc radius, in mode waists
MIN_ACCEPTANCE = 1e-4                   # both samplers' acceptance floor, once judged
THRESHOLD_JUDGED_FROM = 4_000_000       # candidates drawn before threshold acceptance is judged
COINCIDENCE_START_HEIGHT = 50e-6        # m, candidate entry height above the mode center
COINCIDENCE_BATCH_SIZE = 5_000          # candidates simulated per batch
COINCIDENCE_ROW_BLOCK = 100             # batch rows thinned at a time
COINCIDENCE_JUDGED_FROM = 50_000        # candidates drawn before coincidence acceptance is judged
COINCIDENCE_MAX_CLICKS = 4_096          # candidate clicks per row, k_max, a slab may hold


class SelectionError(RuntimeError):
    """Raised when the selection acceptance rate is implausibly low."""


def _check_acceptance(kept: int, drawn: int, judged_from: int) -> None:
    """The samplers' one stopping rule, checked before each batch.

    Once ``judged_from`` candidates are drawn, sampling goes on only while
    at least ``MIN_ACCEPTANCE`` of them were kept; otherwise SelectionError.
    """
    if drawn >= judged_from and kept < MIN_ACCEPTANCE * drawn:
        raise SelectionError(
            f"selection acceptance below {MIN_ACCEPTANCE:g}: {kept} kept from {drawn} candidates"
        )


@dataclass(frozen=True)
class MotionModel:
    """Kinematics of the atom drop and the probe window.

    Raises ValueError unless ``v_fall``, ``window`` and ``time_step`` are
    finite and positive, ``v_transverse_rms`` is finite and non-negative, and
    the window holds a whole number (>= 1) of steps, within 1e-9 relative,
    so a sampler never draws for motion it cannot probe.
    """

    v_fall: float = 0.3             # m/s, along -y
    v_transverse_rms: float = 0.04  # m/s, rms of the combined (vx, vz) speed
    window: float = 34e-6           # s, measurement window after selection
    seed: int = 12345
    time_step: float = 0.5e-6       # s, trajectory discretization

    def __post_init__(self) -> None:
        for name in ("v_fall", "window", "time_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.v_transverse_rms) and self.v_transverse_rms >= 0.0):
            raise ValueError(f"v_transverse_rms must be finite and >= 0, got {self.v_transverse_rms}")
        steps = self.window / self.time_step
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"window must hold a whole number (>= 1) of time steps, got {steps:.10g}"
            )

    def times(self) -> np.ndarray:
        """The probe window's time grid, from 0 to ``window`` in whole steps."""
        return np.linspace(0.0, self.window, round(self.window / self.time_step) + 1)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Straight-line atom trajectories sharing one motion model's time grid.

    Row i starts at ``r0[i]`` (m, relative to the mode center; z runs along
    the cavity axis) and moves at ``velocity[i]`` (m/s); ``motion.times()``
    is the probe window every row is averaged over.
    """

    r0: np.ndarray
    velocity: np.ndarray
    motion: MotionModel

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


def _coupling_rows(
    ensemble: Ensemble, times: np.ndarray, lo: int, hi: int, params: SystemParams
) -> np.ndarray:
    """g(r(t)) of trajectory rows lo..hi-1 over the time grid, shape (hi - lo, n_times)."""
    r = ensemble.r0[lo:hi, :, None] + ensemble.velocity[lo:hi, :, None] * times
    return coupling_grid(r[:, 0], r[:, 1], r[:, 2], params)


def coupling_matrix(ensemble: Ensemble, params: SystemParams) -> np.ndarray:
    """g(r(t)) over the ensemble motion's time grid, shape (n_traj, n_times)."""
    return _coupling_rows(ensemble, ensemble.motion.times(), 0, len(ensemble), params)


def coupling_blocks(ensemble: Ensemble, params: SystemParams) -> Iterator[np.ndarray]:
    """g(r(t)) of every trajectory row and window time, as 1-D blocks for ``t_moments``.

    The samples run row by row (trajectory-major, the order of
    ``coupling_matrix``). Each block holds ``max(1, optics.MOMENT_BLOCK //
    steps)`` whole rows of the window's ``steps`` times (the last block may
    hold fewer), so a block exceeds ``MOMENT_BLOCK`` samples only when one
    row does. Each block is built when it is reached, so only one is held.
    """
    times = ensemble.motion.times()
    rows = max(1, optics.MOMENT_BLOCK // times.size)  # read per call: optics owns the block size
    for lo in range(0, len(ensemble), rows):
        yield _coupling_rows(ensemble, times, lo, lo + rows, params).reshape(-1)


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

    Raises SelectionError when, from ``THRESHOLD_JUDGED_FROM`` candidates
    on, fewer than ``MIN_ACCEPTANCE`` of them pass the threshold.
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
        _check_acceptance(kept, drawn, THRESHOLD_JUDGED_FROM)
        batch = max(4 * (n - kept), 1024)
        drawn += batch
        x0, z0 = _sample_disc(rng, batch, radius)
        keep = np.abs(coupling_grid(x0, 0.0, z0, params)) >= cut
        vx, vz = _sample_velocities(rng, np.count_nonzero(keep), motion)
        r0_parts.append(np.column_stack([x0[keep], np.zeros(vx.size), z0[keep]]))
        v_parts.append(np.column_stack([vx, np.full(vx.size, -motion.v_fall), vz]))
        kept += vx.size
    r0, velocity = np.concatenate(r0_parts)[:n], np.concatenate(v_parts)[:n]
    return Ensemble(r0, velocity, motion)


def _closest_approach(p0: np.ndarray, v: np.ndarray, duration: float) -> np.ndarray:
    """Smallest |p0 + v t| over t in [0, duration], per row; 0 where the path reaches zero.

    Rounding keeps each computed p0 + v t between p0 and the computed end,
    so no click on the path lies nearer zero than this.
    """
    end = p0 + v * duration
    return np.where(np.sign(p0) == np.sign(end), np.minimum(np.abs(p0), np.abs(end)), 0.0)


def _row_envelope(
    x0: np.ndarray,
    vx: np.ndarray,
    z0: np.ndarray,
    vz: np.ndarray,
    duration: float,
    waist: float,
    excitation_waist: float,
) -> np.ndarray:
    """Each row's transverse bound on the click ratio over [0, duration], with a 1e-9 margin.

    F = exp(-2 x_min^2/w0^2 - 2 z_min^2/w_exc^2) (1 + 1e-9), where x_min and
    z_min are the row's smallest |x| and |z| (``_closest_approach``).
    """
    x_min = _closest_approach(x0, vx, duration)
    z_min = _closest_approach(z0, vz, duration)
    return np.exp(-2.0 * x_min**2 / waist**2 - 2.0 * z_min**2 / excitation_waist**2) * (1.0 + 1e-9)


def _beam(y: np.ndarray | float, z: np.ndarray, waist: float) -> np.ndarray:
    """The excitation beam's field profile exp(-(y^2+z^2)/w_exc^2), 1 on its axis."""
    return np.exp(-(y**2 + z**2) / waist**2)


def _click_ratio(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, params: SystemParams, excitation_waist: float
) -> np.ndarray:
    """The click rate over ``rate_max``: (g/g0)^2 times the excitation-beam intensity."""
    return ((coupling_grid(x, y, z, params) / params.g0) * _beam(y, z, excitation_waist)) ** 2


def lineshape_sites(
    params: SystemParams, n: int, seed: int, excitation_waist: float
) -> tuple[np.ndarray, np.ndarray]:
    """fig2's random atom sites, as (g, beam): couplings and beam factors, each (n,).

    Sites are uniform over the mode waist params.waist in x and the
    excitation waist along the cavity axis z, in the plane y = 0: x, then z,
    from one generator seeded with seed. g is the local ``coupling_grid``,
    beam the Rabi-frequency factor exp(-z^2/w_exc^2) of ``_beam``.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not (math.isfinite(excitation_waist) and excitation_waist > 0.0):
        raise ValueError(f"excitation_waist must be finite and positive, got {excitation_waist}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-params.waist, params.waist, size=n)
    z = rng.uniform(-excitation_waist, excitation_waist, size=n)
    return coupling_grid(x, 0.0, z, params), _beam(0.0, z, excitation_waist)


def _first_coincidences(
    row: np.ndarray, clicks: np.ndarray, window_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows holding a coincidence, and the second-click time of each row's first.

    ``row`` and ``clicks`` list the accepted clicks in row order, with click
    times growing within a row; a coincidence is two consecutive clicks of
    one row within the window.
    """
    hits = np.flatnonzero((row[1:] == row[:-1]) & (np.diff(clicks) <= window_s)) + 1
    rows, first = np.unique(row[hits], return_index=True)
    return rows, clicks[hits[first]]


def coincidence_clicks(rate_max: float, v_fall: float) -> int:
    """k_max, the coincidence sampler's candidate clicks per row: the mean count
    over the fall plus six standard deviations plus 10. Raises ValueError above
    ``COINCIDENCE_MAX_CLICKS`` (3.3 MB per slab; rate_max about 1.1e7 /s at 0.3 m/s)."""
    mean_events = rate_max * (2.0 * COINCIDENCE_START_HEIGHT / v_fall)
    spread = mean_events + 6.0 * math.sqrt(max(mean_events, 1.0))
    if not spread < COINCIDENCE_MAX_CLICKS - 9:  # int(spread) + 10 above the cap, or NaN
        raise ValueError(f"the coincidence sampler needs {spread + 10:.4g} candidate clicks "
                         f"per atom, above its cap of {COINCIDENCE_MAX_CLICKS}")
    return int(spread) + 10


def sample_selected_trajectories(
    motion: MotionModel,
    params: SystemParams,
    n: int,
    *,
    window_ns: float = 600.0,
    rate_max: float = 7.6e5,
    excitation_waist: float = 24e-6,
) -> Ensemble:
    """Simulate the real-time coincidence selection.

    ``rate_max`` is the detected click rate (photons/s) of an atom at the
    mode center, and ``window_ns`` the coincidence window.

    Candidate atoms enter ``COINCIDENCE_START_HEIGHT`` above the mode center on the
    source disc and fall through the excitation region. Detected clicks form
    an inhomogeneous Poisson process with rate

        rate_max * (g(r)/g0)^2 * exp(-2 (y^2+z^2)/w_exc^2),

    simulated exactly by thinning a homogeneous process at ``rate_max``: a
    candidate click at time t is kept when a uniform draw u satisfies
    u < ratio(t), the rate above divided by ``rate_max``. An atom is selected
    when two consecutive clicks arrive within the coincidence window; its
    trajectory starts at the second click.

    The random stream is that of drawing each batch's (batch, k_max)
    exponential gaps as one block, then its uniforms as one block, but no
    batch-sized array is held: two (``COINCIDENCE_ROW_BLOCK``, k_max) float
    slabs are reused for gaps and uniforms. All of a batch's gaps precede
    its uniforms in the stream, so the generator draws the gaps slab by slab
    into one buffer and discards them to reach the uniforms, and a copy
    taken at the first gap replays each slab's gaps just before that slab's
    uniforms are drawn. Each slab is thinned over only the columns up to its
    last click in ``[0, t_total]`` (click times grow along a row), and its
    accepted clicks are paired into coincidences right after thinning;
    thinning stops at the n-th atom.

    The ratio is evaluated only on candidate clicks that pass two exact
    prefilters. A row's path is straight, so over ``[0, t_total]`` its
    |x| and |z| are at least x_min and z_min, each 0 where the path reaches
    zero; the height y depends on t alone; and cos^2 <= 1. Hence

        ratio <= F_r exp(-c y^2),  F_r = exp(-2 x_min^2/w0^2 - 2 z_min^2/w_exc^2),

    with c = 2 (1/w0^2 + 1/w_exc^2). Stage A keeps the clicks with
    u <= F_r (1 + 1e-9), one compare per click; stage B computes y on those
    alone and keeps t <= t_total and u <= F_r (1 + 1e-9) exp(-c y^2). The
    ``<=`` keeps every u == 0. Otherwise u >= 2^-53, so only ratios of at
    least 2^-53 can pass: their exponent arguments, and the bound's smaller
    ones, are at most 53 ln 2 < 37, and their rounding errors about 1e-14
    relative, far inside the 1e-9 margin. The accepted clicks are therefore
    exactly those of thinning the whole block.

    Raises ValueError for a non-finite ``rate_max``, a window or
    excitation waist that is not finite and positive, or a k_max above
    ``COINCIDENCE_MAX_CLICKS`` (``coincidence_clicks``), and SelectionError
    when ``rate_max`` or g0 is not positive or, from ``COINCIDENCE_JUDGED_FROM``
    candidates on, the acceptance rate is below ``MIN_ACCEPTANCE`` (as when
    no candidate can ever click).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not math.isfinite(rate_max):
        raise ValueError(f"rate_max must be finite, got {rate_max}")
    for name, value in (("window_ns", window_ns), ("excitation_waist", excitation_waist)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if rate_max <= 0.0 or params.g0 == 0.0:
        raise SelectionError("rate_max and g0 must be positive for any selection to occur")

    rng = np.random.default_rng(motion.seed)
    radius = SOURCE_RADIUS_FACTOR * params.waist
    t_total = 2.0 * COINCIDENCE_START_HEIGHT / motion.v_fall
    k_max = coincidence_clicks(rate_max, motion.v_fall)
    bound_rate = 2.0 * (1.0 / params.waist**2 + 1.0 / excitation_waist**2)

    r0_parts: list[np.ndarray] = []
    v_parts: list[np.ndarray] = []
    gaps, uniforms = (np.empty((COINCIDENCE_ROW_BLOCK, k_max)) for _ in range(2))
    selected = candidates = 0
    while selected < n:
        _check_acceptance(selected, candidates, COINCIDENCE_JUDGED_FROM)
        m = COINCIDENCE_BATCH_SIZE
        candidates += m

        x0, z0 = _sample_disc(rng, m, radius)
        y0 = np.full(m, COINCIDENCE_START_HEIGHT)
        vx, vz = _sample_velocities(rng, m, motion)
        vy = -motion.v_fall
        envelope = _row_envelope(x0, vx, z0, vz, t_total, params.waist, excitation_waist)

        # Homogeneous candidate clicks at rate_max, then thinning, one slab of
        # rows at a time (the last slab may be shorter). The generator skips
        # the batch's gaps to reach its uniforms; a copy replays the gaps.
        slabs = range(0, m, COINCIDENCE_ROW_BLOCK)
        replay = copy.deepcopy(rng)
        for lo in slabs:
            rng.standard_exponential(out=gaps[: m - lo])
        for lo in slabs:
            t = replay.standard_exponential(out=gaps[: m - lo])
            t *= 1.0 / rate_max
            np.cumsum(t, axis=1, out=t)
            u = rng.random(out=uniforms[: m - lo])
            # Rows are sorted, so the column minima give the last column
            # that any row's click in [0, t_total] reaches.
            k = int(np.searchsorted(t.min(axis=0), t_total, side="right"))
            # Stage A: each row's envelope alone.
            flat = np.flatnonzero(u[:, :k] <= envelope[lo : lo + t.shape[0], None])
            row = flat // k
            # The same clicks' indices in the whole slab: np.nonzero's (row, column)
            # pairs pick them too but index ~18% slower (0.60-0.64 s against 0.51-0.53 s
            # per 10,000 selections, fastest of seeds 0-4, 2-core x86, numpy 2.4).
            flat += row * (k_max - k)
            t, u = t.reshape(-1)[flat], u.reshape(-1)[flat]
            row += lo
            # Stage B: the height's factor, on stage A's clicks only.
            y = vy * t + COINCIDENCE_START_HEIGHT
            passed = (t <= t_total) & (u <= envelope[row] * np.exp(-bound_rate * y * y))
            row, t, u, y = row[passed], t[passed], u[passed], y[passed]
            x = x0[row] + vx[row] * t
            z = z0[row] + vz[row] * t
            keep = u < _click_ratio(x, y, z, params, excitation_waist)
            rows, t_sel = _first_coincidences(row[keep], t[keep], window_ns * 1e-9)
            rows, t_sel = rows[: n - selected], t_sel[: n - selected]
            velocity = np.column_stack([vx[rows], np.full(rows.size, vy), vz[rows]])
            start = np.column_stack([x0[rows], y0[rows], z0[rows]])
            r0_parts.append(start + velocity * t_sel[:, None])
            v_parts.append(velocity)
            selected += rows.size
            if selected == n:
                break
    r0, velocity = np.concatenate(r0_parts), np.concatenate(v_parts)
    return Ensemble(r0, velocity, motion)


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
    m2, _ = t_moments(delta, coupling_blocks(ensemble, params), params)
    return np.sqrt(m2)


def average_rotation(
    ensemble: Ensemble,
    delta_grid: np.ndarray,
    params: SystemParams,
) -> np.ndarray:
    """Ensemble-averaged rotation angle per detuning, radians.

    Expected port intensities E|t +- i|^2 = E|t|^2 + 1 +- 2 Im E[t] are
    averaged over trajectories and window times, then passed through the
    count estimator, exactly as accumulated photon counts would be.
    """
    m2, m1 = t_moments(delta_grid, coupling_blocks(ensemble, params), params)
    return angle_from_counts(m2 + 1.0 + 2.0 * m1.imag, m2 + 1.0 - 2.0 * m1.imag)
