"""Parameter sweeps and optimization: rotation-angle maximization over
detuning, cavity-length and mirror-reflectivity scans, and the two-qubit
feasibility report.

Two probe configurations are supported. With ``probe_equals_cavity`` the
probe stays resonant with the cavity and only the probe-atom detuning is
scanned. With ``cavity_equals_atom`` the cavity is locked to the atom and
the probe is scanned against both, which produces larger maximum rotation
angles (this is the configuration used for the design scans).

The count-based rotation estimator is bounded by +-45 degrees (all counts in
one port). In the cavity-locked configuration there is an exact lossless
point where the coupled transmittance equals i times the uncoupled one; the
estimator reaches the full 45 degrees there. ``lossless_rotation_point``
solves for it in closed form up to a one-dimensional root find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optics import rotation_curve
from .params import (
    DEFAULT_GEOMETRY,
    DEFAULT_PARAMS,
    CavityGeometry,
    SystemParams,
    TWO_PI,
    derive_g0,
    derive_kappa,
    params_for_geometry,
)

PROBE_EQUALS_CAVITY = "probe_equals_cavity"
CAVITY_EQUALS_ATOM = "cavity_equals_atom"
_MODES = (PROBE_EQUALS_CAVITY, CAVITY_EQUALS_ATOM)


class MaxRotation(NamedTuple):
    """Maximum |rotation angle| over detuning."""

    angle: float        # rad
    delta_star: float   # rad/s, detuning of the maximum (negative branch)
    non_unimodal: bool  # True when the coarse grid shows multiple local maxima


def _abs_rotation(delta: np.ndarray, params: SystemParams, mode: str) -> np.ndarray:
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    cavity_detuning = delta if mode == CAVITY_EQUALS_ATOM else None
    return np.abs(rotation_curve(delta, params.g0, params, cavity_detuning))


def max_rotation(
    params: SystemParams,
    mode: str = PROBE_EQUALS_CAVITY,
    *,
    coarse_points: int = 241,
) -> MaxRotation:
    """Maximize |rotation angle| over probe detuning.

    Scans a coarse grid on the negative-detuning half (the curve is
    antisymmetric) and refines the best bracket by golden-section search.
    A non-unimodal coarse profile is flagged and the refined global grid
    maximum is returned anyway.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if params.g0 == 0.0:
        return MaxRotation(0.0, 0.0, False)

    span = 6.0 * max(params.g0, params.kappa) + 8.0 * params.gamma
    grid = np.linspace(-span, 0.0, coarse_points)
    values = _abs_rotation(grid, params, mode)

    best = int(np.argmax(values))
    if values[best] <= 0.0:
        return MaxRotation(0.0, 0.0, False)

    interior = values[1:-1]
    local_max = (interior >= values[:-2]) & (interior >= values[2:]) & (interior > 0.0)
    non_unimodal = int(np.count_nonzero(local_max)) > 1

    if best == 0 or best == grid.size - 1:
        return MaxRotation(float(values[best]), float(grid[best]), non_unimodal)

    # scipy is imported where it is used, so commands that never optimize
    # do not pay its import at start-up.
    from scipy.optimize import minimize_scalar

    def negative_objective(delta: float) -> float:
        return -float(_abs_rotation(np.array([delta]), params, mode)[0])

    try:
        result = minimize_scalar(
            negative_objective,
            bracket=(grid[best - 1], grid[best], grid[best + 1]),
            method="golden",
            options={"xtol": 1e-12},
        )
        angle = -float(result.fun)
        delta_star = float(result.x)
    except ValueError:
        angle = float(values[best])
        delta_star = float(grid[best])
    if angle < values[best]:
        angle = float(values[best])
        delta_star = float(grid[best])
    return MaxRotation(angle, delta_star, non_unimodal)


@dataclass(frozen=True)
class ScanResult:
    """One-dimensional design scan with the derived rates per point."""

    axis_name: str
    axis: np.ndarray
    max_angle_deg: np.ndarray
    delta_star_mhz: np.ndarray
    g0_mhz: np.ndarray
    kappa_mhz: np.ndarray
    gamma_khz: np.ndarray
    fixed: dict

    @property
    def argmax_index(self) -> int:
        return int(np.argmax(self.max_angle_deg))

    @property
    def best_axis_value(self) -> float:
        return float(self.axis[self.argmax_index])

    @property
    def best_angle_deg(self) -> float:
        return float(self.max_angle_deg[self.argmax_index])

    def rows(self) -> tuple[list[str], list[list[float]]]:
        """Header and rows for CSV export."""
        header = [
            self.axis_name,
            "max_angle_deg",
            "delta_star_mhz",
            "g0_mhz",
            "kappa_mhz",
            "gamma_khz",
        ]
        rows = [
            [
                float(self.axis[i]),
                float(self.max_angle_deg[i]),
                float(self.delta_star_mhz[i]),
                float(self.g0_mhz[i]),
                float(self.kappa_mhz[i]),
                float(self.gamma_khz[i]),
            ]
            for i in range(self.axis.size)
        ]
        return header, rows


def default_length_grid(n: int = 25) -> np.ndarray:
    """Cavity lengths from the working point out to the strong-coupling edge.

    Geometric spacing from 150 um to 6 mm; beyond roughly 6 mm the derived
    antinode coupling drops below the atomic linewidth and the single-atom
    dispersive model stops being meaningful.
    """
    return np.geomspace(150e-6, 6e-3, n)


def scan_length(
    lengths: np.ndarray | None = None,
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
    *,
    reflectivity: float | None = None,
    mode: str = CAVITY_EQUALS_ATOM,
) -> ScanResult:
    """Maximum rotation angle versus cavity length.

    Mirror reflectivity stays fixed (default: the anchor geometry's value);
    waist, decay rate, and coupling are re-derived per length.
    """
    if lengths is None:
        lengths = default_length_grid()
    lengths = np.asarray(lengths, dtype=float)
    rho = anchor_geometry.reflectivity if reflectivity is None else reflectivity

    angles = np.empty(lengths.size)
    deltas = np.empty(lengths.size)
    g0s = np.empty(lengths.size)
    kappas = np.empty(lengths.size)
    for i, length in enumerate(lengths):
        geom = CavityGeometry(
            length=float(length),
            mirror_roc=anchor_geometry.mirror_roc,
            reflectivity=rho,
        )
        point = params_for_geometry(geom, anchor, anchor_geometry)
        result = max_rotation(point, mode)
        angles[i] = math.degrees(result.angle)
        deltas[i] = result.delta_star / (TWO_PI * 1e6)
        g0s[i] = point.g0 / (TWO_PI * 1e6)
        kappas[i] = point.kappa / (TWO_PI * 1e6)

    return ScanResult(
        axis_name="length_um",
        axis=lengths * 1e6,
        max_angle_deg=angles,
        delta_star_mhz=deltas,
        g0_mhz=g0s,
        kappa_mhz=kappas,
        gamma_khz=np.full(lengths.size, anchor.gamma / (TWO_PI * 1e3)),
        fixed={"reflectivity": rho, "mirror_roc_mm": anchor_geometry.mirror_roc * 1e3},
    )


class LosslessPoint(NamedTuple):
    """Operating point where the coupled transmittance is exactly +i."""

    kappa: float       # rad/s
    delta: float       # rad/s
    reflectivity: float


def lossless_rotation_point(
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
) -> LosslessPoint:
    """Solve for the cavity-locked operating point with |t| = 1 and 45 deg.

    In the cavity-locked configuration the coupled transmittance equals
    +i (a lossless quarter-turn of the analyzer balance, the estimator's
    full range) when

        delta = -g^2 / (2 (kappa + gamma/2))   and
        kappa*gamma/2 - delta^2 + g^2/2 = 0.

    The second equation is solved for kappa by bisection, then the mirror
    reflectivity giving that kappa at the anchor length is found the same
    way. Raises ValueError when the coupling is zero (no such point).
    """
    from scipy.optimize import brentq

    g_sq = anchor.g0**2
    if g_sq <= 0.0:
        raise ValueError("lossless rotation point requires nonzero coupling")
    gamma = anchor.gamma

    def residual(kappa: float) -> float:
        delta = -g_sq / (2.0 * (kappa + 0.5 * gamma))
        return kappa * gamma / 2.0 - delta**2 + g_sq / 2.0

    kappa_lo, kappa_hi = TWO_PI * 1.0, TWO_PI * 1e9
    kappa_star = float(brentq(residual, kappa_lo, kappa_hi, xtol=1e-6, rtol=1e-15))
    delta_star = -g_sq / (2.0 * (kappa_star + 0.5 * gamma))

    def kappa_gap(rho: float) -> float:
        geom = CavityGeometry(
            length=anchor_geometry.length,
            mirror_roc=anchor_geometry.mirror_roc,
            reflectivity=rho,
        )
        return derive_kappa(geom) - kappa_star

    rho_star = float(brentq(kappa_gap, 0.9, 1.0 - 1e-12, xtol=1e-15, rtol=1e-15))
    return LosslessPoint(kappa=kappa_star, delta=delta_star, reflectivity=rho_star)


def default_reflectivity_grid(
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
    n: int = 41,
) -> np.ndarray:
    """Mirror reflectivities from 0.9999 to 0.99999, geometric in the loss.

    The anchor reflectivity, the 0.999990 design point, and the lossless
    45-degree point (when it falls inside the range) are inserted so the
    scan resolves them exactly.
    """
    losses = np.geomspace(1e-4, 1e-5, n)
    grid = 1.0 - losses
    extras = [anchor_geometry.reflectivity, 0.999990]
    try:
        extras.append(lossless_rotation_point(anchor, anchor_geometry).reflectivity)
    except ValueError:
        pass
    extras_arr = np.array([e for e in extras if grid.min() <= e <= grid.max()])
    return np.unique(np.concatenate([grid, extras_arr]))


def scan_reflectivity(
    reflectivities: np.ndarray | None = None,
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
    *,
    mode: str = CAVITY_EQUALS_ATOM,
) -> ScanResult:
    """Maximum rotation angle versus mirror reflectivity at fixed length.

    Only the cavity decay rate changes with reflectivity; the coupling and
    atomic linewidth stay fixed.
    """
    if reflectivities is None:
        reflectivities = default_reflectivity_grid(anchor, anchor_geometry)
    reflectivities = np.asarray(reflectivities, dtype=float)

    g0 = derive_g0(anchor_geometry, anchor, anchor_geometry)
    angles = np.empty(reflectivities.size)
    deltas = np.empty(reflectivities.size)
    kappas = np.empty(reflectivities.size)
    for i, rho in enumerate(reflectivities):
        geom = CavityGeometry(
            length=anchor_geometry.length,
            mirror_roc=anchor_geometry.mirror_roc,
            reflectivity=float(rho),
        )
        point = anchor.with_updates(kappa=derive_kappa(geom), g0=g0)
        result = max_rotation(point, mode)
        angles[i] = math.degrees(result.angle)
        deltas[i] = result.delta_star / (TWO_PI * 1e6)
        kappas[i] = point.kappa / (TWO_PI * 1e6)

    return ScanResult(
        axis_name="reflectivity",
        axis=reflectivities,
        max_angle_deg=angles,
        delta_star_mhz=deltas,
        g0_mhz=np.full(reflectivities.size, g0 / (TWO_PI * 1e6)),
        kappa_mhz=kappas,
        gamma_khz=np.full(reflectivities.size, anchor.gamma / (TWO_PI * 1e3)),
        fixed={
            "length_um": anchor_geometry.length * 1e6,
            "mirror_roc_mm": anchor_geometry.mirror_roc * 1e3,
        },
    )


@dataclass(frozen=True)
class CnotReport:
    """Feasibility of a 90-degree inter-spin polarization split.

    With zero bias field the two spin states couple to opposite circular
    components and rotate the polarization by opposite angles, so the
    angular separation between the spin states is twice the single-spin
    rotation; 45 degrees of single-spin rotation suffices for a 90-degree
    split.
    """

    feasible: bool
    best_angle_deg: float          # maximum single-spin |rotation|
    best_reflectivity: float
    best_delta_mhz: float
    angle_at_limit_deg: float      # value at the reflectivity limit itself
    spin_split_deg: float          # 2 * best_angle_deg
    rotation_up_deg: float         # opposite sign partner of the down rotation
    required_deg: float = 45.0


def cnot_feasibility(
    params: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
    *,
    rho_limit: float = 0.999990,
    rho_floor: float = 0.999,
    mode: str = CAVITY_EQUALS_ATOM,
) -> CnotReport:
    """Best achievable rotation with mirrors up to ``rho_limit``.

    Maximizes the rotation angle over mirror reflectivity in
    [rho_floor, rho_limit] (a technology bound: better coatings can always
    be specified down). The known lossless point is evaluated analytically
    when it lies inside the bound.
    """
    if not (0.0 < rho_floor < rho_limit < 1.0):
        raise ValueError("need 0 < rho_floor < rho_limit < 1")

    g0 = derive_g0(anchor_geometry, params, anchor_geometry)

    def angle_at(rho: float) -> tuple[float, float]:
        geom = CavityGeometry(
            length=anchor_geometry.length,
            mirror_roc=anchor_geometry.mirror_roc,
            reflectivity=rho,
        )
        point = params.with_updates(kappa=derive_kappa(geom), g0=g0)
        result = max_rotation(point, mode)
        return math.degrees(result.angle), result.delta_star / (TWO_PI * 1e6)

    if params.g0 == 0.0:
        return CnotReport(
            feasible=False,
            best_angle_deg=0.0,
            best_reflectivity=rho_limit,
            best_delta_mhz=0.0,
            angle_at_limit_deg=0.0,
            spin_split_deg=0.0,
            rotation_up_deg=0.0,
        )

    # Coarse scan, geometric in the mirror loss.
    losses = np.geomspace(1.0 - rho_floor, 1.0 - rho_limit, 41)
    rhos = 1.0 - losses
    coarse = np.array([angle_at(float(r))[0] for r in rhos])
    best = int(np.argmax(coarse))
    best_angle, best_delta = float(coarse[best]), angle_at(float(rhos[best]))[1]
    best_rho = float(rhos[best])

    if 0 < best < rhos.size - 1:
        from scipy.optimize import minimize_scalar

        u = np.log10(losses)
        try:
            refined = minimize_scalar(
                lambda v: -angle_at(float(1.0 - 10.0**v))[0],
                bracket=(u[best - 1], u[best], u[best + 1]),
                method="golden",
                options={"xtol": 1e-10},
            )
            if -refined.fun > best_angle:
                best_angle = -float(refined.fun)
                best_rho = float(1.0 - 10.0 ** float(refined.x))
                best_delta = angle_at(best_rho)[1]
        except ValueError:
            pass

    # The lossless point is the analytic optimum (the estimator is bounded
    # by 45 degrees); use it exactly when it lies inside the bound.
    try:
        lossless = lossless_rotation_point(params, anchor_geometry)
        if rho_floor <= lossless.reflectivity <= rho_limit and mode == CAVITY_EQUALS_ATOM:
            best_angle = 45.0
            best_rho = lossless.reflectivity
            best_delta = lossless.delta / (TWO_PI * 1e6)
    except ValueError:
        pass

    angle_at_limit, _ = angle_at(rho_limit)
    feasible = best_angle >= 45.0 - 1e-9
    return CnotReport(
        feasible=feasible,
        best_angle_deg=best_angle,
        best_reflectivity=best_rho,
        best_delta_mhz=best_delta,
        angle_at_limit_deg=angle_at_limit,
        spin_split_deg=2.0 * best_angle,
        rotation_up_deg=-best_angle,
    )
