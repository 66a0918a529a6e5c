"""Lindblad master-equation engine for one two-level atom coupled to
one cavity mode.

The Hilbert space is atom (ground, excited) tensor Fock(0..cutoff), so the
density matrix has dimension d = 2*(cutoff+1) <= 26.

Conventions: the frame rotates at the drive frequency, so
H = -delta_c a^dag a - delta_a sp sm + g (a^dag sm + a sp) + drive,
with delta_x = omega_drive - omega_x. kappa is the amplitude HWHM of the
cavity line, so the photon-number collapse rate is 2*kappa; atomic decay has
rate gamma. The two drives are real amplitudes: the atom drive adds
atom_drive*(sp + sm), so a resonant Rabi frequency Omega is atom_drive =
Omega/2, and the cavity drive adds cavity_drive*(a^dag + a).

In an orthonormal basis of d^2 Hermitian matrices the generator is a real
matrix. Each of its seven terms is built once per Fock cutoff (_operators) by
applying the term to every basis matrix and projecting the images back onto
the basis (_to_real); no complex superoperator is formed.

Every steady state, a single point or a lineshape grid, comes from one
reduced trace-row solve, _steady_states, whose docstring gives the
derivation. A point that fails a solve or a check is NaN, and nothing else
records it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import SystemParams

TOP_FOCK_TOLERANCE = 1e-6
HERMITICITY_TOLERANCE = 1e-10
TRACE_TOLERANCE = 1e-10
EIGENVALUE_FLOOR = -1e-8
PROBE_DRIVE_RATIO = 3e-5   # weak-drive transmittance oracle: cavity drive / kappa
PROBE_FOCK_CUTOFF = 4      # Fock cutoff of the weak-drive transmittance oracle
LINESHAPE_START_CUTOFF = 3  # Fock cutoff the adaptive lineshape starts from
MAX_LINESHAPE_CUTOFF = 9   # highest Fock cutoff the adaptive lineshape tries
MIRROR_TOLERANCE = 1e-12   # lineshape mirror match, relative to the largest |detuning|
LINESHAPE_BLOCK = 64       # most detunings per solved stack: the default grid's 61 fit one


class CutoffError(RuntimeError):
    """Raised when the Fock cutoff is too small for the requested state."""


@dataclass(frozen=True)
class LindbladModel:
    """One atom, one mode: the Fock cutoff and the seven rates liouvillian
    sums, 2*kappa, gamma, the two detunings, g and the two drives."""

    fock_cutoff: int
    g: float                    # rad/s
    kappa: float                # rad/s, amplitude HWHM
    gamma: float                # rad/s
    detuning_atom: float = 0.0  # rad/s, drive minus atom
    detuning_cavity: float = 0.0  # rad/s, drive minus cavity
    atom_drive: float = 0.0     # rad/s, Omega/2 for a resonant Rabi frequency Omega
    cavity_drive: float = 0.0   # rad/s

    def __post_init__(self) -> None:
        values = np.array((self.g, self.kappa, self.gamma, self.detuning_atom,
                           self.detuning_cavity, self.atom_drive, self.cavity_drive))
        if np.iscomplexobj(values) or not np.isfinite(values).all():
            raise ValueError(
                "g, kappa, gamma, the detunings and the drives must be finite real numbers"
            )
        try:
            cutoff = operator.index(self.fock_cutoff)
        except TypeError:
            cutoff = 0
        if not 2 <= cutoff <= 12:
            raise ValueError("fock_cutoff must be an integer in [2, 12]")
        object.__setattr__(self, "fock_cutoff", cutoff)  # a plain int, as _operators' key
        if self.kappa <= 0.0 or self.gamma <= 0.0:
            raise ValueError("kappa and gamma must be strictly positive")
        if self.g < 0.0:
            raise ValueError("g must be non-negative")


@dataclass(frozen=True)
class _Operators:
    """Read-only operator algebra of one Fock cutoff."""

    a: np.ndarray               # real (d, d)
    number: np.ndarray          # real (d, d), a^dag a
    excited: np.ndarray         # real (d, d), sp sm
    # (d^2, d, d) orthonormal Hermitian basis: the matrix units E_ii, then
    # (E_ij + E_ji)/sqrt(2) for every i < j, then i(E_ji - E_ij)/sqrt(2) in
    # the same pair order. A real-basis vector r stands for the matrix
    # sum_k r_k basis[k], whose trace is the sum of the first d components.
    basis: np.ndarray
    # (7, d^2, d^2) generators in that basis, from _to_real: the unit-rate
    # dissipators D[a] and D[sm], then the coherent parts of the Hamiltonian
    # terms -a^dag a, -sp sm, a^dag sm + a sp, sp + sm and a^dag + a.
    real: np.ndarray


@functools.lru_cache(maxsize=None)
def _operators(cutoff: int) -> _Operators:
    nf = cutoff + 1
    dim = 2 * nf
    # Atom basis order (ground, excited), sm = |g><e|: atom index i and Fock
    # index n live at row i*nf + n.
    a = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, nf)), 1))
    sm = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(nf))
    number, excited = a.T @ a, sm.T @ sm

    eye = np.eye(dim)
    upper_i, upper_j = np.triu_indices(dim, 1)
    upper = eye[upper_i, :, None] * eye[upper_j, None, :]  # E_ij for i < j
    lower = upper.transpose(0, 2, 1)
    diagonal = eye[:, :, None] * eye[:, None, :]
    basis = np.concatenate(
        (diagonal, (upper + lower) / math.sqrt(2.0), 1j * (lower - upper) / math.sqrt(2.0))
    )

    # Each term's image of every basis matrix: c B c^dag - (c^dag c B + B c^dag c)/2
    # for a dissipator D[c], -i(h B - B h) for a coherent part.
    hamiltonians = (-number, -excited, a.T @ sm + a @ sm.T, sm.T + sm, a.T + a)
    real = np.stack(
        [
            _to_real(c @ basis @ c.T - 0.5 * (cdc @ basis + basis @ cdc), basis, coherent=False)
            for c, cdc in ((a, number), (sm, excited))
        ]
        + [_to_real(-1j * (h @ basis - basis @ h), basis, coherent=True) for h in hamiltonians]
    )
    ops = _Operators(a=a, number=number, excited=excited, basis=basis, real=real)
    for array in vars(ops).values():
        array.flags.writeable = False
    return ops


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Generator of the master equation in the real basis of _operators."""
    rates = (
        2.0 * model.kappa,  # photon loss, HWHM kappa
        model.gamma,        # atomic decay
        model.detuning_cavity,
        model.detuning_atom,
        model.g,
        model.atom_drive,
        model.cavity_drive,
    )
    return np.tensordot(rates, _operators(model.fock_cutoff).real, 1)


def _to_real(images: np.ndarray, units: np.ndarray, coherent: bool) -> np.ndarray:
    """A generator in the orthonormal basis units (d^2, d, d), as a real
    (d^2, d^2) matrix, from images (d^2, d, d): its image of each unit.

    Entry (j, k) is Tr(units[j]^dag images[k]). Raises RuntimeError unless,
    within 1e-10 times the largest |images| entry, the matrix is real (the
    generator maps Hermitian matrices to Hermitian ones) and fills only the
    blocks that _steady_states relies on: S-A and A-S if coherent, else S-S
    and A-A.
    """
    size, dim = units.shape[:2]
    full = units.reshape(size, size).conj() @ images.reshape(size, size).T
    symmetric = np.arange(size) < dim * (dim + 1) // 2
    forbidden = np.equal.outer(symmetric, symmetric) == coherent
    if np.abs(np.where(forbidden, full, full.imag)).max() > (
        HERMITICITY_TOLERANCE * np.abs(images).max()
    ):
        raise RuntimeError("generator is not Hermitian-preserving or breaks its block structure")
    return np.ascontiguousarray(full.real)


def _solve_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions of a stack of systems a x = b (n, m, m) by (n, m, k).

    The stack is solved in one call; if that call meets a singular system,
    the points are solved one by one, and a singular point is left NaN.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in range(a.shape[0]):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[k] = np.linalg.solve(a[k], b[k])
        return x


def _checked_states(r: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked density matrices of real-basis solutions r (n, d^2).

    A point fails when its solution misses unit trace by more than 1e-10,
    which a non-finite solution always does, or has an eigenvalue below
    -1e-8, found by one Cholesky of rho + 1e-8 I per stack, with eigvalsh
    only for a stack where it fails. Returns (rho, top_fock): the density
    matrices (n, d, d) and their top Fock populations (n,), NaN at the
    failed points and finite everywhere else.
    """
    dim = 2 * (cutoff + 1)
    ok = np.abs(r[:, :dim].sum(axis=1) - 1.0) <= TRACE_TOLERANCE
    rho = (r @ _operators(cutoff).basis.reshape(dim * dim, -1)).reshape(-1, dim, dim)
    if ok.any():
        try:
            np.linalg.cholesky(rho[ok] - EIGENVALUE_FLOOR * np.eye(dim))
        except np.linalg.LinAlgError:
            ok[ok] = np.linalg.eigvalsh(rho[ok]).min(axis=1) >= EIGENVALUE_FLOOR
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


@functools.lru_cache(maxsize=8)
def _parts(cutoff: int, kappa: float, gamma: float) -> _Parts:
    ops = _operators(cutoff)
    dim = 2 * (cutoff + 1)
    sym = dim * (dim + 1) // 2
    dissipator = 2.0 * kappa * ops.real[0] + gamma * ops.real[1]
    trace_block = dissipator[:sym, :sym].copy()
    trace_block[0] = 0.0
    trace_block[0, :dim] = 1.0
    w_inv = _solve_points(trace_block[None], np.eye(sym)[None])[0]
    detuning = ops.real[2] + ops.real[3]
    n_sa = detuning[:sym, sym:].copy()
    n_sa[0] = 0.0
    n_as = detuning[sym:, :sym]
    wn = w_inv @ n_sa
    part = _Parts(
        dissipator[sym:, sym:].copy(), w_inv, n_as, wn, -(n_as @ wn),
        (n_as @ w_inv[:, 0])[:, None],
    )
    for array in part:
        array.flags.writeable = False
    return part


def _steady_states(
    model: LindbladModel, detunings: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Checked steady states of model with each of detunings (n,) added to
    both its atom and its cavity detuning. Returns (rho, top_fock): the
    density matrices (n, d, d) and their top Fock populations (n,), NaN at
    the failed points and only there.

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
    LINESHAPE_BLOCK detunings and checked by _checked_states (positivity by
    one Cholesky of rho + 1e-8 I per stack, eigvalsh only where it fails).
    A singular D' leaves W NaN, so every point fails its trace check; a
    singular T(delta) or a failed trace or positivity check fails its point
    alone.
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
    rho = np.empty((n, dim, dim), dtype=complex)
    top_fock = np.empty(n)
    for start in range(0, n, LINESHAPE_BLOCK):
        cols = slice(start, start + LINESHAPE_BLOCK)
        block = detunings[cols]
        stack = np.vander(block, 3, increasing=True) @ t.reshape(3, -1)
        rhs = -(h_w + block[:, None, None] * part.n_w)
        x_a = _solve_points(stack.reshape(-1, *t.shape[1:]), rhs)[:, :, 0]
        x_s = w - x_a @ wh.T - block[:, None] * (x_a @ part.wn.T)
        rho[cols], top_fock[cols] = _checked_states(
            np.concatenate((x_s, x_a), axis=1), cutoff
        )
    return rho, top_fock


def steady_state(model: LindbladModel) -> np.ndarray:
    """Steady-state density matrix of the master equation: one
    _steady_states point at the model's own detunings.

    Raises numpy.linalg.LinAlgError if the system is singular or the
    solution fails the trace or positivity check, and CutoffError if the
    top Fock level holds more than 1e-6 population.
    """
    rho, top_fock = _steady_states(model, np.zeros(1))
    if np.isnan(top_fock[0]):
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
        detuning_atom=float(delta),
        detuning_cavity=float(cavity_detuning),
        cavity_drive=drive,
    )
    field = complex(np.trace(steady_state(model) @ _operators(PROBE_FOCK_CUTOFF).a))
    return field / (-1j * drive / (params.kappa - 1j * float(cavity_detuning)))


def fluorescence_rate(model: LindbladModel) -> float:
    """Photon rate into the cavity output mirror: kappa * <a^dag a>.

    The total cavity emission rate is 2*kappa*<n>; with symmetric mirrors
    half leaves through the output side. In the weak-drive strong-Purcell
    limit this reproduces kappa*Omega^2/(4 g0^2) for an atom drive Omega/2.
    """
    number = _operators(model.fock_cutoff).number
    return model.kappa * np.trace(steady_state(model) @ number).real


def purcell_rate_formula(params: SystemParams, rabi: float | None = None) -> float:
    """Output-rate estimate kappa*Omega^2/(4 g0^2) (weak drive, g0^2 >> kappa*gamma)."""
    omega = params.rabi if rabi is None else rabi
    return params.kappa * omega**2 / (4.0 * params.g0**2)


@dataclass(frozen=True)
class Lineshape:
    """Fluorescence versus excitation detuning."""

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
    couplings: np.ndarray,
    beam: np.ndarray,
) -> Lineshape:
    """Fluorescence spectrum versus excitation-beam detuning, averaged over
    the atom sites it is given: couplings g (n,) and beam factors (n,), as
    ``montecarlo.lineshape_sites`` draws them. The pinned atom is the one
    site ([g0], [1.0]).

    A site's Rabi frequency is params.rabi * sqrt(power_scale) times its beam
    factor, with power_scale > 0 and = 1 at the calibration power. The
    cavity is held resonant with the atom, so both detunings equal the grid
    value. The reported rate counts all scattered photons,
    2*kappa*<n> + gamma*<sigma_ee>; the cavity channel dominates by the
    Purcell factor when g^2 >> kappa*gamma, and the curve is normalized
    to its own maximum.

    Only the distinct |delta| of the grid are solved. H(delta) is a real
    matrix, and sigma_z on the atom maps -H(delta) to H(-delta) while leaving
    both dissipators invariant, so rho(-delta) = U rho(delta)* U^dag and the
    rate is even in delta (a Lindbladian symmetry in the sense of Albert and
    Jiang, arXiv:1310.1523). Grid points whose |delta| agree within
    MIRROR_TOLERANCE (1e-12) of the largest |detuning| share one solve at the
    largest signed value among them, found by one sort over |delta|. Each
    site is one _steady_states call over the solved detunings, and the sites
    of one cutoff share one D' inverse. Rates are kept per site and solved
    detuning, NaN where a point failed, and fed to the grid once, after the
    site average skips the NaNs. failed_points counts NaN grid points over
    all sites of the final cutoff, so a failed solve counts once for each
    grid point it feeds.

    The Fock cutoff starts at LINESHAPE_START_CUTOFF and adapts upward (3,
    5, 7, then MAX_LINESHAPE_CUTOFF = 9) until the top level holds less
    than 1e-6 population; a pass stops at its first site over that limit,
    and CutoffError names cutoff 9 if that never happens.
    numpy.linalg.LinAlgError is raised when some grid point fails at every
    site, or when the peak rate is not positive.
    """
    if not (math.isfinite(power_scale) and power_scale > 0.0):
        raise ValueError(f"power_scale must be finite and positive, got {power_scale}")
    g_local, beam = np.asarray(couplings, dtype=float), np.asarray(beam, dtype=float)
    if g_local.ndim != 1 or g_local.size == 0 or beam.shape != g_local.shape or not (
        np.isfinite(g_local).all() and np.isfinite(beam).all()
    ):
        raise ValueError("couplings and beam must be non-empty finite 1-D arrays of one length")
    detunings = np.asarray(detuning_grid, dtype=float)
    if detunings.ndim != 1 or detunings.size == 0 or not np.isfinite(detunings).all():
        raise ValueError("detuning_grid must be a non-empty 1-D array of finite values")

    omega_local = params.rabi * math.sqrt(power_scale) * beam
    solved, feeds = _mirror_map(detunings)
    for cutoff in range(LINESHAPE_START_CUTOFF, MAX_LINESHAPE_CUTOFF + 1, 2):
        ops = _operators(cutoff)
        # Photons scattered per unit time by each product-basis population.
        emission = (
            2.0 * params.kappa * np.diagonal(ops.number) + params.gamma * np.diagonal(ops.excited)
        )

        # Rates per (site, solved detuning), NaN where a point failed.
        rates = np.empty((g_local.size, solved.size))
        worst_top = 0.0
        for s in range(g_local.size):
            model = LindbladModel(
                fock_cutoff=cutoff,
                g=float(abs(g_local[s])),
                kappa=params.kappa,
                gamma=params.gamma,
                atom_drive=0.5 * omega_local[s],
            )
            rho, top_fock = _steady_states(model, solved)
            rates[s] = np.real(np.diagonal(rho, axis1=1, axis2=2)) @ emission
            worst_top = float(np.fmax.reduce(top_fock, initial=worst_top))
            if worst_top >= TOP_FOCK_TOLERANCE:
                break  # this cutoff is rejected; the remaining sites need not be solved
        if worst_top < TOP_FOCK_TOLERANCE:
            break
    else:
        raise CutoffError(f"top Fock population {worst_top:.2e} at cutoff {cutoff}")

    failed = np.isnan(rates)
    unsolved = np.count_nonzero(failed.all(axis=0)[feeds])
    if unsolved:
        raise np.linalg.LinAlgError(
            f"lineshape solve produced no finite points at {unsolved} of "
            f"{detunings.size} detunings"
        )
    mean_rate = np.nanmean(rates, axis=0)[feeds]
    peak = mean_rate.max()
    if peak <= 0.0:
        raise np.linalg.LinAlgError(f"lineshape peak rate {peak:.3g} is not positive")
    return Lineshape(
        normalized=mean_rate / peak,
        rate=mean_rate,
        fock_cutoff=cutoff,
        failed_points=int(np.count_nonzero(failed[:, feeds])),
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
