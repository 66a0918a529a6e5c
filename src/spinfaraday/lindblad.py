"""Dense Lindblad master-equation engine for one two-level atom coupled to
one cavity mode.

The Hilbert space is atom (ground, excited) tensor Fock(0..cutoff), so the
density matrix has dimension 2*(cutoff+1) <= 26 and the vectorized
Liouvillian stays small enough for direct dense solves.

Conventions: the frame rotates at the drive frequency, so
H = -delta_c a^dag a - delta_a sp sm + g (a^dag sm + a sp) + drive,
with delta_x = omega_drive - omega_x. kappa is the amplitude HWHM of the
cavity line, so the photon-number collapse rate is 2*kappa; atomic decay has
rate gamma. For an atom drive the Hamiltonian term is amp*sp + conj(amp)*sm,
so a resonant Rabi frequency Omega corresponds to amplitude Omega/2.

Every steady state, single point or detuning grid, comes from one batched
direct trace-row solve (Nation, "Steady-state solution methods for open
quantum optical systems", arXiv:1504.06768) in a real Hermitian operator
basis, where a Hermitian-preserving generator is a real matrix and the trace
row is ones on the diagonal components. Hermiticity is checked on the
generator as it enters that basis (rho = T r is Hermitian by construction),
unit trace and positivity on each solved point; the callers check the top
Fock population.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .optics import coupling_grid
from .params import SystemParams

TOP_FOCK_TOLERANCE = 1e-6
HERMITICITY_TOLERANCE = 1e-10
TRACE_TOLERANCE = 1e-10
EIGENVALUE_FLOOR = -1e-8
PROBE_DRIVE_RATIO = 3e-5   # weak-drive transmittance oracle: cavity drive / kappa
PROBE_FOCK_CUTOFF = 4      # Fock cutoff of the weak-drive transmittance oracle
LINESHAPE_START_CUTOFF = 3  # Fock cutoff the adaptive lineshape starts from
MAX_LINESHAPE_CUTOFF = 10  # highest Fock cutoff the adaptive lineshape may reach
MIRROR_TOLERANCE = 1e-12   # lineshape mirror match, relative to the largest |detuning|
LINESHAPE_BLOCK = 64       # most detunings per solved stack: the default grid's 61 fit one


class CutoffError(RuntimeError):
    """Raised when the Fock cutoff is too small for the requested state."""


@dataclass(frozen=True)
class LindbladModel:
    """One atom, one mode, one coherent drive."""

    fock_cutoff: int
    g: float                    # rad/s
    kappa: float                # rad/s, amplitude HWHM
    gamma: float                # rad/s
    drive_amplitude: complex    # rad/s; for an atom drive this is Omega/2
    drive_target: str           # "atom" or "cavity"
    detuning_atom: float = 0.0  # rad/s, drive minus atom
    detuning_cavity: float = 0.0  # rad/s, drive minus cavity

    def __post_init__(self) -> None:
        if not isinstance(self.fock_cutoff, int) or not (2 <= self.fock_cutoff <= 12):
            raise ValueError("fock_cutoff must be an integer in [2, 12]")
        if self.kappa <= 0.0 or self.gamma <= 0.0:
            raise ValueError("kappa and gamma must be strictly positive")
        if self.g < 0.0:
            raise ValueError("g must be non-negative")
        if self.drive_target not in ("atom", "cavity"):
            raise ValueError("drive_target must be 'atom' or 'cavity'")


@dataclass(frozen=True)
class _Operators:
    """Read-only operator algebra of one Fock cutoff."""

    a: np.ndarray
    sp: np.ndarray
    sm: np.ndarray
    number: np.ndarray
    excited: np.ndarray
    loss: np.ndarray   # unit-rate dissipator of a
    decay: np.ndarray  # unit-rate dissipator of sm


@functools.lru_cache(maxsize=None)
def _operators(cutoff: int) -> _Operators:
    nf = cutoff + 1
    destroy = np.zeros((nf, nf), dtype=complex)
    for n in range(1, nf):
        destroy[n - 1, n] = math.sqrt(n)
    id_atom = np.eye(2, dtype=complex)
    id_fock = np.eye(nf, dtype=complex)
    # Atom basis order (ground, excited); sm = |g><e|.
    sm_atom = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    a = np.kron(id_atom, destroy)
    sm = np.kron(sm_atom, id_fock)
    sp = sm.conj().T
    ops = _Operators(
        a=a, sp=sp, sm=sm, number=a.conj().T @ a, excited=sp @ sm,
        loss=_dissipator(a), decay=_dissipator(sm),
    )
    for array in vars(ops).values():
        array.flags.writeable = False
    return ops


def _dissipator(c: np.ndarray) -> np.ndarray:
    """Unit-rate D[c] = c x c* - (c^dag c x 1 + 1 x (c^dag c)^T)/2."""
    dim = c.shape[0]
    eye = np.eye(dim, dtype=complex)
    cdc = c.conj().T @ c
    return np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))


def _commutator_superoperator(h: np.ndarray) -> np.ndarray:
    """-i(H x 1 - 1 x H^T): the coherent part of the row-major generator."""
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Vectorized generator (row-major vec) of the master equation."""
    ops = _operators(model.fock_cutoff)
    h = (
        -model.detuning_cavity * ops.number
        - model.detuning_atom * ops.excited
        + model.g * (ops.a.conj().T @ ops.sm + ops.a @ ops.sp)
    )
    amp = complex(model.drive_amplitude)
    if model.drive_target == "cavity":
        h = h + amp * ops.a.conj().T + np.conj(amp) * ops.a
    else:
        h = h + amp * ops.sp + np.conj(amp) * ops.sm
    liou = _commutator_superoperator(h)
    liou += 2.0 * model.kappa * ops.loss  # photon loss, HWHM kappa
    liou += model.gamma * ops.decay       # atomic decay
    return liou


def _top_fock_population(rho: np.ndarray, cutoff: int) -> np.ndarray:
    """Population of the top Fock level, over the trailing (d, d) axes."""
    nf = cutoff + 1
    diag = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    # Atom index i, Fock index n live at row i*nf + n.
    return diag[..., nf - 1] + diag[..., 2 * nf - 1]


@functools.lru_cache(maxsize=None)
def _basis_indices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major vec indices of the diagonal, of (i, j) and of (j, i), i < j."""
    upper_i, upper_j = np.triu_indices(dim, 1)
    return np.arange(dim) * (dim + 1), upper_i * dim + upper_j, upper_j * dim + upper_i


def _basis_combination(x: np.ndarray, axis: int, phase: complex) -> np.ndarray:
    """x @ T along the last axis (phase 1j) or T^H @ x along a row axis
    (phase -1j), from the at most two nonzeros per column of T."""
    diag, upper, lower = _basis_indices(math.isqrt(x.shape[axis]))
    x_upper = np.take(x, upper, axis)
    x_lower = np.take(x, lower, axis)
    return np.concatenate(
        (
            np.take(x, diag, axis),
            (x_upper + x_lower) / math.sqrt(2.0),
            (phase / math.sqrt(2.0)) * (x_lower - x_upper),
        ),
        axis,
    )


@functools.lru_cache(maxsize=None)
def _hermitian_basis(dim: int) -> np.ndarray:
    """Unitary T whose columns are the vecs of an orthonormal Hermitian basis:
    the matrix units E_ii, then (E_ij + E_ji)/sqrt(2) for every i < j, then
    i(E_ji - E_ij)/sqrt(2) in the same pair order. The trace of T r is the
    sum of the first dim components of r."""
    basis = _basis_combination(np.eye(dim * dim, dtype=complex), 1, 1j)
    basis.flags.writeable = False
    return basis


def _to_real(liou: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T^H L T of a stack of generators (n, d^2, d^2), and the mask of points
    whose T^H L T is real: a point fails, as a generator that does not map
    Hermitian matrices to Hermitian ones, when the imaginary part exceeds
    1e-10 times its largest |L| entry."""
    full = _basis_combination(_basis_combination(liou, 2, 1j), 1, -1j)
    scale = np.max(np.abs(liou), axis=(1, 2))
    ok = np.max(np.abs(full.imag), axis=(1, 2)) <= HERMITICITY_TOLERANCE * scale
    return np.ascontiguousarray(full.real), ok


def _solve_real(
    liou_r: np.ndarray, cutoff: int, ok: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Checked steady states of a stack of real-basis generators (n, d^2, d^2).

    Row 0 of every generator is overwritten in place by the trace row, and
    the stack is solved in one call; if that call meets a singular system,
    the points are solved one by one. A point fails when it is false in ok
    on entry, when its system is singular, or when its solution misses unit
    trace by more than 1e-10 or has an eigenvalue below -1e-8. Failures are
    reported one way only: the point is cleared in ok, in place. Returns
    (rho, top_fock): the density matrices (n, d, d) and their top Fock
    populations (n,), NaN at the failed points.
    """
    n, size = liou_r.shape[:2]
    dim = 2 * (cutoff + 1)
    liou_r[:, 0, :] = 0.0
    liou_r[:, 0, :dim] = 1.0
    rhs = np.zeros((n, size, 1))
    rhs[:, 0] = 1.0

    try:
        r = np.linalg.solve(liou_r, rhs)
    except np.linalg.LinAlgError:
        r = np.full_like(rhs, np.nan)
        for k in range(n):
            try:
                r[k] = np.linalg.solve(liou_r[k], rhs[k])
            except np.linalg.LinAlgError:
                ok[k] = False

    ok &= np.abs(r[:, :dim, 0].sum(axis=1) - 1.0) <= TRACE_TOLERANCE
    rho = (_hermitian_basis(dim) @ r).reshape(n, dim, dim)
    if ok.any():
        min_eig = np.linalg.eigvalsh(rho[ok]).min(axis=1)
        ok[ok] = min_eig >= EIGENVALUE_FLOOR
    rho[~ok] = np.nan
    return rho, _top_fock_population(rho, cutoff)


def steady_state(model: LindbladModel) -> np.ndarray:
    """Steady-state density matrix of the master equation (dense trace-row solve).

    Raises numpy.linalg.LinAlgError if the system is singular or the
    solution fails the trace, hermiticity or positivity check, and
    CutoffError if the top Fock level holds more than 1e-6 population.
    """
    liou_r, ok = _to_real(liouvillian(model)[None])
    rho, top_fock = _solve_real(liou_r, model.fock_cutoff, ok)
    if not ok[0]:
        raise np.linalg.LinAlgError(
            "steady-state solve is singular or failed the trace, hermiticity "
            "or positivity check"
        )
    if top_fock[0] >= TOP_FOCK_TOLERANCE:
        raise CutoffError(
            "top Fock level holds population "
            f"{top_fock[0]:.2e} >= {TOP_FOCK_TOLERANCE:.0e}; "
            "increase fock_cutoff"
        )
    return rho[0]


def transmittance_steady(
    delta: float,
    g: float,
    params: SystemParams,
    cavity_detuning: float = 0.0,
) -> complex:
    """Probe transmittance from the master equation in the weak-drive limit.

    Drives the cavity with amplitude PROBE_DRIVE_RATIO*kappa and returns the
    steady-state field amplitude normalized by the empty-cavity amplitude at
    the same drive and cavity detuning. Serves as the independent oracle for
    the analytic transmittance.
    """
    drive = PROBE_DRIVE_RATIO * params.kappa
    common = dict(
        fock_cutoff=PROBE_FOCK_CUTOFF,
        kappa=params.kappa,
        gamma=params.gamma,
        drive_amplitude=drive,
        drive_target="cavity",
        detuning_atom=float(delta),
        detuning_cavity=float(cavity_detuning),
    )
    a = _operators(PROBE_FOCK_CUTOFF).a
    coupled = complex(np.trace(steady_state(LindbladModel(g=float(g), **common)) @ a))
    empty = complex(np.trace(steady_state(LindbladModel(g=0.0, **common)) @ a))
    return coupled / empty


def fluorescence_rate(model: LindbladModel) -> float:
    """Photon rate into the cavity output mirror: kappa * <a^dag a>.

    The total cavity emission rate is 2*kappa*<n>; with symmetric mirrors
    half leaves through the output side. In the weak-drive strong-Purcell
    limit this reproduces kappa*Omega^2/(4 g0^2).
    """
    if model.drive_target != "atom":
        raise ValueError("fluorescence_rate expects an atom-driven model")
    number = _operators(model.fock_cutoff).number
    return model.kappa * np.trace(steady_state(model) @ number).real


def purcell_rate_formula(params: SystemParams, rabi: float | None = None) -> float:
    """Output-rate estimate kappa*Omega^2/(4 g0^2) (weak drive, g0^2 >> kappa*gamma)."""
    omega = params.rabi if rabi is None else rabi
    return params.kappa * omega**2 / (4.0 * params.g0**2)


@dataclass(frozen=True)
class Lineshape:
    """Fluorescence versus excitation detuning."""

    detunings: np.ndarray      # rad/s
    normalized: np.ndarray     # peak-normalized curve
    rate: np.ndarray           # photons/s, total scattered rate
    fock_cutoff: int
    failed_points: int


def _mirror_map(detunings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(solved, feeds) for the lineshape's mirror symmetry R(-delta) = R(delta).

    The grid is sorted by |delta| once; a new group starts wherever the
    sorted |delta| steps by more than MIRROR_TOLERANCE times the largest
    |detuning|. Each group is solved at its largest signed value, so a
    non-negative point keeps its own detuning and a lone negative point is
    solved at its own. solved holds one detuning per group, in |delta| order,
    and feeds[k] indexes the one whose rate grid point k takes.
    """
    order = np.argsort(np.abs(detunings), kind="stable")
    magnitude = np.abs(detunings[order])
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    new[1:] = np.diff(magnitude) > MIRROR_TOLERANCE * magnitude[-1]
    feeds = np.empty(order.size, dtype=int)
    feeds[order] = np.cumsum(new) - 1
    return np.maximum.reduceat(detunings[order], np.flatnonzero(new)), feeds


def fluorescence_lineshape(
    params: SystemParams,
    power_scale: float,
    detuning_grid: np.ndarray,
    *,
    average_positions: bool = True,
    n_samples: int = 1000,
    seed: int = 7,
    excitation_waist: float = 24e-6,
) -> Lineshape:
    """Fluorescence spectrum versus excitation-beam detuning.

    The excitation Rabi frequency scales as the square root of power:
    Omega = params.rabi * sqrt(power_scale), with power_scale = 1 at the
    calibration power. The cavity is held resonant with the atom, so both
    detunings equal the grid value. The reported rate counts all scattered
    photons, 2*kappa*<n> + gamma*<sigma_ee>; the cavity channel dominates by
    the Purcell factor when g^2 >> kappa*gamma, and the curve is normalized
    to its own maximum.

    With average_positions the curve is averaged over random atom positions
    across the intersection of the cavity mode (transverse Gaussian, waist
    params.waist) and the excitation beam (waist excitation_waist along the
    cavity axis): the local coupling picks up the mode envelope and
    standing-wave factor, the local Rabi frequency the beam envelope.

    Only the distinct |delta| of the grid are solved. H(delta) is a real
    matrix, and sigma_z on the atom maps -H(delta) to H(-delta) while leaving
    both dissipators invariant, so rho(-delta) = U rho(delta)* U^dag and the
    rate is even in delta (a Lindbladian symmetry in the sense of Albert and
    Jiang, arXiv:1310.1523). Grid points whose |delta| agree within
    MIRROR_TOLERANCE (1e-12) of the largest |detuning| share one solve at the
    largest signed value among them, found by one sort over |delta|; the
    solves run in stacks of at most LINESHAPE_BLOCK detunings. Rates and
    pass marks are kept per atom position and solved detuning, and fed to
    the grid once, after the position average. failed_points counts grid
    points over all atom positions of the final cutoff, so a failed solve
    counts once for each grid point it feeds.

    The Fock cutoff starts at LINESHAPE_START_CUTOFF and adapts upward (in
    steps of 2, up to MAX_LINESHAPE_CUTOFF) until the top level holds less
    than 1e-6 population; CutoffError if that never happens.
    """
    if not (math.isfinite(power_scale) and power_scale >= 0.0):
        raise ValueError(f"power_scale must be finite and non-negative, got {power_scale}")
    if average_positions and n_samples < 1:
        raise ValueError(f"n_samples must be at least 1 to average positions, got {n_samples}")
    if average_positions and not (math.isfinite(excitation_waist) and excitation_waist > 0.0):
        raise ValueError(f"excitation_waist must be finite and positive, got {excitation_waist}")
    detunings = np.asarray(detuning_grid, dtype=float)
    if detunings.size == 0:
        raise ValueError("detuning_grid must not be empty")

    omega = params.rabi * math.sqrt(power_scale)
    if average_positions:
        rng = np.random.default_rng(seed)
        x = rng.uniform(-params.waist, params.waist, size=n_samples)
        z = rng.uniform(-excitation_waist, excitation_waist, size=n_samples)
        g_local = coupling_grid(x, 0.0, z, params)
        omega_local = omega * np.exp(-(z**2) / excitation_waist**2)
    else:
        g_local = np.array([params.g0])
        omega_local = np.array([omega])

    solved, feeds = _mirror_map(detunings)
    for cutoff in range(LINESHAPE_START_CUTOFF, MAX_LINESHAPE_CUTOFF + 1, 2):
        ops = _operators(cutoff)
        # H(delta) = H(0) - delta * N with N = a^dag a + sp sm, so the
        # real-basis generator is L0 + delta * Ld with Ld fixed per cutoff.
        liou_detuning, detuning_ok = _to_real(
            _commutator_superoperator(-(ops.number + ops.excited))[None]
        )
        stack = np.empty((min(solved.size, LINESHAPE_BLOCK),) + liou_detuning.shape[1:])
        # Photons scattered per unit time by each product-basis population.
        emission = np.real(
            2.0 * params.kappa * np.diagonal(ops.number) + params.gamma * np.diagonal(ops.excited)
        )

        # Rates and pass mask per (position, solved detuning).
        rates = np.empty((g_local.size, solved.size))
        ok = np.empty((g_local.size, solved.size), dtype=bool)
        worst_top = 0.0
        for s in range(g_local.size):
            model = LindbladModel(
                fock_cutoff=cutoff,
                g=float(abs(g_local[s])),
                kappa=params.kappa,
                gamma=params.gamma,
                drive_amplitude=0.5 * omega_local[s],
                drive_target="atom",
            )
            liou0, ok0 = _to_real(liouvillian(model)[None])
            ok[s] = ok0[0] and detuning_ok[0]
            for start in range(0, solved.size, LINESHAPE_BLOCK):
                cols = slice(start, start + LINESHAPE_BLOCK)
                block = solved[cols]
                # The stack is refilled in place here and overwritten by the solver.
                view = stack[:block.size]
                np.multiply(block[:, None, None], liou_detuning[0], out=view)
                view += liou0[0]
                rho, top_pop = _solve_real(view, cutoff, ok[s, cols])
                rates[s, cols] = np.real(np.diagonal(rho, axis1=1, axis2=2)) @ emission
                if ok[s, cols].any():
                    worst_top = max(worst_top, float(np.nanmax(top_pop)))
        if worst_top < TOP_FOCK_TOLERANCE:
            break
    else:
        raise CutoffError(f"top Fock population {worst_top:.2e} at cutoff {cutoff}")

    mean_rate = np.nanmean(rates, axis=0)[feeds]
    peak = np.nanmax(mean_rate)
    if not np.isfinite(peak) or peak <= 0.0:
        raise np.linalg.LinAlgError("lineshape solve produced no finite points")
    return Lineshape(
        detunings=detunings,
        normalized=mean_rate / peak,
        rate=mean_rate,
        fock_cutoff=cutoff,
        failed_points=int(np.count_nonzero(~ok[:, feeds])),
    )


def curve_fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum by linear interpolation of the crossings.

    Requires an interior peak with the curve dropping below half maximum on
    both sides within the grid.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    peak_index = int(np.argmax(y))
    half = 0.5 * y[peak_index]
    if peak_index == 0 or peak_index == y.size - 1:
        raise ValueError("peak lies on the grid boundary")

    def crossing(indices: np.ndarray) -> float:
        for i in indices:
            y0, y1 = y[i], y[i + 1]
            if (y0 - half) * (y1 - half) <= 0.0 and y0 != y1:
                return float(x[i] + (half - y0) * (x[i + 1] - x[i]) / (y1 - y0))
        raise ValueError("curve does not cross half maximum inside the grid")

    left = crossing(np.arange(peak_index - 1, -1, -1))
    right = crossing(np.arange(peak_index, y.size - 1))
    return abs(right - left)
