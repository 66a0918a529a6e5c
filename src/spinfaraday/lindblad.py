"""Lindblad master-equation engine for one two-level atom coupled to
one cavity mode.

The Hilbert space is atom (ground, excited) tensor Fock(0..cutoff), so the
density matrix has dimension d = 2*(cutoff+1) <= 26.

Conventions: the frame rotates at the drive frequency, so
H = -delta_c a^dag a - delta_a sp sm + g (a^dag sm + a sp) + drive,
with delta_x = omega_drive - omega_x. kappa is the amplitude HWHM of the
cavity line, so the photon-number collapse rate is 2*kappa; atomic decay has
rate gamma. The drive amplitude amp is real: an atom drive adds amp*(sp + sm),
so a resonant Rabi frequency Omega corresponds to amplitude Omega/2, and a
cavity drive adds amp*(a^dag + a).

Every steady state, a single point or a lineshape grid, comes from one
reduced trace-row solve, _steady_states, whose docstring gives the
derivation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    drive_amplitude: float      # rad/s; for an atom drive this is Omega/2
    drive_target: str           # "atom" or "cavity"
    detuning_atom: float = 0.0  # rad/s, drive minus atom
    detuning_cavity: float = 0.0  # rad/s, drive minus cavity

    def __post_init__(self) -> None:
        values = np.array((self.g, self.kappa, self.gamma, self.drive_amplitude,
                           self.detuning_atom, self.detuning_cavity))
        if np.iscomplexobj(values) or not np.isfinite(values).all():
            raise ValueError(
                "g, kappa, gamma, drive_amplitude and the detunings must be finite real numbers"
            )
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
    number: np.ndarray
    excited: np.ndarray
    # Unitary T (d^2, d^2) whose columns are the vecs of an orthonormal
    # Hermitian basis: the matrix units E_ii, then (E_ij + E_ji)/sqrt(2) for
    # every i < j, then i(E_ji - E_ij)/sqrt(2) in the same pair order. The
    # trace of T r is the sum of the first d components of r.
    basis: np.ndarray
    # (7, d^2, d^2) generators in the basis of _to_real: the unit-rate
    # dissipators D[a] and D[sm], then the coherent parts of the Hamiltonian
    # terms -a^dag a, -sp sm, a^dag sm + a sp, sp + sm and a^dag + a.
    real: np.ndarray


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
    number, excited = a.conj().T @ a, sp @ sm
    hamiltonians = (-number, -excited, a.conj().T @ sm + a @ sp, sp + sm, a.conj().T + a)
    real = np.stack(
        [_to_real(_dissipator(c), coherent=False) for c in (a, sm)]
        + [_to_real(_commutator_superoperator(h), coherent=True) for h in hamiltonians]
    )
    basis = _basis_combination(np.eye(a.size, dtype=complex), 1, 1j)
    ops = _Operators(a=a, number=number, excited=excited, basis=basis, real=real)
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
    """Generator of the master equation in the real basis of _to_real."""
    drive, atom = model.drive_amplitude, model.drive_target == "atom"
    rates = (
        2.0 * model.kappa,  # photon loss, HWHM kappa
        model.gamma,        # atomic decay
        model.detuning_cavity,
        model.detuning_atom,
        model.g,
        drive if atom else 0.0,
        0.0 if atom else drive,
    )
    return np.tensordot(rates, _operators(model.fock_cutoff).real, 1)


def _basis_combination(x: np.ndarray, axis: int, phase: complex) -> np.ndarray:
    """x @ T along the last axis (phase 1j) or T^H @ x along a row axis
    (phase -1j), from the at most two nonzeros per column of T."""
    dim = math.isqrt(x.shape[axis])
    upper_i, upper_j = np.triu_indices(dim, 1)
    # Row-major vec indices of (i, j) and of (j, i), i < j.
    x_upper = np.take(x, upper_i * dim + upper_j, axis)
    x_lower = np.take(x, upper_j * dim + upper_i, axis)
    return np.concatenate(
        (
            np.take(x, np.arange(dim) * (dim + 1), axis),
            (x_upper + x_lower) / math.sqrt(2.0),
            (phase / math.sqrt(2.0)) * (x_lower - x_upper),
        ),
        axis,
    )


def _to_real(liou: np.ndarray, coherent: bool) -> np.ndarray:
    """T^H L T of one generator (d^2, d^2), as a real matrix.

    Raises RuntimeError unless, within 1e-10 times the largest |L| entry,
    T^H L T is real (L maps Hermitian matrices to Hermitian ones) and fills
    only the blocks that _steady_states relies on: S-A and A-S if coherent,
    else S-S and A-A.
    """
    full = _basis_combination(_basis_combination(liou, 1, 1j), 0, -1j)
    dim = math.isqrt(liou.shape[0])
    symmetric = np.arange(dim * dim) < dim * (dim + 1) // 2
    forbidden = np.equal.outer(symmetric, symmetric) == coherent
    if np.abs(np.where(forbidden, full, full.imag)).max() > (
        HERMITICITY_TOLERANCE * np.abs(liou).max()
    ):
        raise RuntimeError("generator is not Hermitian-preserving or breaks its block structure")
    return np.ascontiguousarray(full.real)


def _solve_points(a: np.ndarray, b: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Solutions of a stack of systems a x = b (n, m, m) by (n, m, k).

    The stack is solved in one call; if that call meets a singular system,
    the points are solved one by one, and a singular point is left NaN and
    cleared in ok, in place.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in range(a.shape[0]):
            try:
                x[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return x


def _checked_states(
    r: np.ndarray, cutoff: int, ok: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Checked density matrices of real-basis solutions r (n, d^2).

    A point fails when it is false in ok on entry, or when its solution
    misses unit trace by more than 1e-10 or has an eigenvalue below -1e-8.
    Failures are reported one way only: the point is cleared in ok, in
    place. Returns (rho, top_fock): the density matrices (n, d, d) and their
    top Fock populations (n,), NaN at the failed points.
    """
    dim = 2 * (cutoff + 1)
    ok &= np.abs(r[:, :dim].sum(axis=1) - 1.0) <= TRACE_TOLERANCE
    rho = (r @ _operators(cutoff).basis.T).reshape(r.shape[0], dim, dim)
    if ok.any():
        min_eig = np.linalg.eigvalsh(rho[ok]).min(axis=1)
        ok[ok] = min_eig >= EIGENVALUE_FLOOR
    rho[~ok] = np.nan
    # Atom index i, Fock index n live at row i*(cutoff+1) + n.
    diag = np.real(np.diagonal(rho, axis1=1, axis2=2))
    return rho, diag[:, dim // 2 - 1] + diag[:, dim - 1]


class _Parts(NamedTuple):
    """The read-only pieces of _steady_states fixed by the Fock cutoff, kappa
    and gamma, with D = 2 kappa D[a] + gamma D[sm] in the real basis."""

    d_aa: np.ndarray        # (a, a) D_AA
    w_inv: np.ndarray       # (s, s) W = D'^-1
    n_as: np.ndarray        # (a, s) N_AS
    wn: np.ndarray          # (s, a) W N_SA
    t2: np.ndarray          # (a, a) T2 = -N_AS W N_SA
    n_w: np.ndarray         # (a, 1) N_AS w
    ok: bool                # false if D' is singular


@functools.lru_cache(maxsize=8)
def _parts(cutoff: int, kappa: float, gamma: float) -> _Parts:
    ops = _operators(cutoff)
    dim = 2 * (cutoff + 1)
    sym = dim * (dim + 1) // 2
    dissipator = 2.0 * kappa * ops.real[0] + gamma * ops.real[1]
    ok = np.ones(1, dtype=bool)
    trace_block = dissipator[:sym, :sym].copy()
    trace_block[0] = 0.0
    trace_block[0, :dim] = 1.0
    w_inv = _solve_points(trace_block[None], np.eye(sym)[None], ok)[0]
    detuning = ops.real[2] + ops.real[3]
    n_sa = detuning[:sym, sym:].copy()
    n_sa[0] = 0.0
    n_as = detuning[sym:, :sym]
    wn = w_inv @ n_sa
    part = _Parts(
        dissipator[sym:, sym:].copy(), w_inv, n_as, wn, -(n_as @ wn),
        (n_as @ w_inv[:, 0])[:, None], bool(ok[0]),
    )
    for array in part[:-1]:
        array.flags.writeable = False
    return part


def _steady_states(
    model: LindbladModel, detunings: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked steady states of model with each of detunings (n,) added to
    both its atom and its cavity detuning. Returns (rho, top_fock, ok): the
    density matrices (n, d, d), their top Fock populations (n,) and the
    pass mask (n,), with rho and top_fock NaN at the failed points.

    Each point is a trace-row solve (Nation, arXiv:1504.06768) in a real
    Hermitian operator basis, where a Hermitian-preserving generator is a
    real matrix and the trace row is ones on the diagonal components. Every
    drive and jump operator is real, so in the basis the dissipator D keeps
    the symmetric components S (diagonal and symmetric off-diagonal,
    s = d(d+1)/2) apart from the antisymmetric ones A (a = d(d-1)/2), and
    the Hamiltonian and detuning terms only couple the two (_to_real checks
    this once per cutoff). The generator at detuning delta is
    [[D_SS, H_SA + delta N_SA], [H_AS + delta N_AS, D_AA]], with H read
    from the model's one liouvillian and N the detuning generator. The
    trace row replaces row 0 of D_SS (giving D') and of H_SA and N_SA. With
    W = D'^-1 and w = W e_0 (_parts, cached per cutoff, kappa and gamma), a
    Schur complement leaves one a x a system per detuning (28 x 28 at
    cutoff 3, against 64 x 64):
    (T0 + delta T1 + delta^2 T2) x_A = -(H_AS + delta N_AS) w, with
    T0 = D_AA - H_AS W H_SA, T1 = -(H_AS W N_SA + N_AS W H_SA) and
    T2 = -N_AS W N_SA, and then x_S = w - W (H_SA + delta N_SA) x_A.

    The systems are solved by _solve_points in stacks of at most
    LINESHAPE_BLOCK detunings and checked by _checked_states. Every point
    fails when D' is singular; a singular T(delta) or a failed trace or
    positivity check fails its point alone.
    """
    cutoff = model.fock_cutoff
    part = _parts(cutoff, model.kappa, model.gamma)
    dim = 2 * (cutoff + 1)
    sym = dim * (dim + 1) // 2
    h = liouvillian(model)
    h_sa = h[:sym, sym:].copy()
    h_sa[0] = 0.0
    h_as = h[sym:, :sym]
    w = part.w_inv[:, 0]
    wh = part.w_inv @ h_sa
    t = np.stack((
        part.d_aa - h_as @ wh,
        -(h_as @ part.wn + part.n_as @ wh),
        part.t2,
    ))
    h_w = (h_as @ w)[:, None]

    n = detunings.size
    ok = np.full(n, part.ok)
    rho = np.empty((n, dim, dim), dtype=complex)
    top_fock = np.empty(n)
    for start in range(0, n, LINESHAPE_BLOCK):
        cols = slice(start, start + LINESHAPE_BLOCK)
        block = detunings[cols]
        stack = np.vander(block, 3, increasing=True) @ t.reshape(3, -1)
        rhs = -(h_w + block[:, None, None] * part.n_w)
        x_a = _solve_points(stack.reshape(-1, *t.shape[1:]), rhs, ok[cols])[:, :, 0]
        x_s = w - x_a @ wh.T - block[:, None] * (x_a @ part.wn.T)
        rho[cols], top_fock[cols] = _checked_states(
            np.concatenate((x_s, x_a), axis=1), cutoff, ok[cols]
        )
    return rho, top_fock, ok


def steady_state(model: LindbladModel) -> np.ndarray:
    """Steady-state density matrix of the master equation: one
    _steady_states point at the model's own detunings.

    Raises numpy.linalg.LinAlgError if the system is singular or the
    solution fails the trace or positivity check, and CutoffError if the
    top Fock level holds more than 1e-6 population.
    """
    rho, top_fock, ok = _steady_states(model, np.zeros(1))
    if not ok[0]:
        raise np.linalg.LinAlgError(
            "steady-state solve is singular or failed the trace or positivity check"
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

    Drives the cavity with amplitude eta = PROBE_DRIVE_RATIO*kappa at cavity
    detuning delta_c and returns the steady-state <a> over the empty cavity's
    field -i eta/(kappa - i delta_c), exact since at g = 0 the equation for
    <a> is closed. Serves as the independent oracle for the analytic one.
    """
    drive = PROBE_DRIVE_RATIO * params.kappa
    model = LindbladModel(
        fock_cutoff=PROBE_FOCK_CUTOFF,
        g=float(g),
        kappa=params.kappa,
        gamma=params.gamma,
        drive_amplitude=drive,
        drive_target="cavity",
        detuning_atom=float(delta),
        detuning_cavity=float(cavity_detuning),
    )
    field = complex(np.trace(steady_state(model) @ _operators(PROBE_FOCK_CUTOFF).a))
    return field / (-1j * drive / (params.kappa - 1j * float(cavity_detuning)))


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
    Omega = params.rabi * sqrt(power_scale), with power_scale > 0 and = 1 at
    the calibration power. The cavity is held resonant with the atom, so both
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
    largest signed value among them, found by one sort over |delta|. Each
    atom position is one _steady_states call over the solved detunings, and
    the positions of one cutoff share one D' inverse.
    Rates and pass marks are kept per atom position and solved detuning,
    and fed to the grid once, after the position average. failed_points
    counts grid points over all atom positions of the final cutoff, so a
    failed solve counts once for each grid point it feeds.

    The Fock cutoff starts at LINESHAPE_START_CUTOFF and adapts upward (in
    steps of 2, up to MAX_LINESHAPE_CUTOFF) until the top level holds less
    than 1e-6 population; a pass stops at its first position over that
    limit, and CutoffError if that never happens.
    """
    if not (math.isfinite(power_scale) and power_scale > 0.0):
        raise ValueError(f"power_scale must be finite and positive, got {power_scale}")
    if average_positions and n_samples < 1:
        raise ValueError(f"n_samples must be at least 1 to average positions, got {n_samples}")
    if average_positions and not (math.isfinite(excitation_waist) and excitation_waist > 0.0):
        raise ValueError(f"excitation_waist must be finite and positive, got {excitation_waist}")
    detunings = np.asarray(detuning_grid, dtype=float)
    if detunings.ndim != 1 or detunings.size == 0 or not np.isfinite(detunings).all():
        raise ValueError("detuning_grid must be a non-empty 1-D array of finite values")

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
            rho, top_fock, ok[s] = _steady_states(model, solved)
            rates[s] = np.real(np.diagonal(rho, axis1=1, axis2=2)) @ emission
            if ok[s].any():
                worst_top = max(worst_top, float(np.nanmax(top_fock)))
            if worst_top >= TOP_FOCK_TOLERANCE:
                break  # this cutoff is rejected; the remaining positions need not be solved
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
