"""Parameter sweeps and optimization: rotation-angle maximization over
detuning, cavity-length and mirror-reflectivity scans, and the two-qubit
feasibility report.

Two probe configurations are supported. With ``probe_equals_cavity`` the
probe stays resonant with the cavity and only the probe-atom detuning is
scanned. With ``cavity_equals_atom`` the cavity is locked to the atom and
the probe is scanned against both, which produces larger maximum rotation
angles (this is the configuration used for the design scans).

Every design point, whether a length-scan, reflectivity-scan or
feasibility-report point, is evaluated the same way: the anchor geometry
with one field changed, rates re-derived by ``params_for_geometry``, then
the cavity-locked ``max_rotation``.

The count-based rotation estimator is bounded by +-45 degrees (all counts in
one port). In the cavity-locked configuration there is an exact lossless
point where the coupled transmittance equals i times the uncoupled one; the
estimator reaches the full 45 degrees there. ``lossless_rotation_point``
solves for it in closed form, and the feasibility report reads its best
mirror off that point without a search: the lossless reflectivity, clipped
to the allowed range.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .optics import rotation_curve
from .params import (
    DEFAULT_GEOMETRY,
    DEFAULT_PARAMS,
    SPEED_OF_LIGHT,
    CavityGeometry,
    SystemParams,
    TWO_PI,
    params_for_geometry,
)

PROBE_EQUALS_CAVITY = "probe_equals_cavity"
CAVITY_EQUALS_ATOM = "cavity_equals_atom"
_MODES = (PROBE_EQUALS_CAVITY, CAVITY_EQUALS_ATOM)
MAX_ROTATION_COARSE_POINTS = 241  # coarse detuning grid before the golden-section refinement


class MaxRotation(NamedTuple):
    """Maximum |rotation angle| over detuning."""

    angle: float        # rad
    delta_star: float   # rad/s, detuning of the maximum (negative branch)


def _abs_rotation(delta: np.ndarray, params: SystemParams, mode: str) -> np.ndarray:
    # Kept 1-D even for one point: numpy's scalar complex division rounds
    # differently from its array loop, and fig6 pins the array rounding.
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    cavity_detuning = delta if mode == CAVITY_EQUALS_ATOM else 0.0
    return np.abs(rotation_curve(delta, params.g0, params, cavity_detuning))


# scipy's ``golden`` ratio, rounded to 8 digits: fig6 pins that method's iterates.
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R


def max_rotation(params: SystemParams, mode: str = PROBE_EQUALS_CAVITY) -> MaxRotation:
    """Maximize |rotation angle| over probe detuning.

    Scans a coarse grid on the negative-detuning half (the curve is
    antisymmetric). A grid maximum strictly above both neighbours is refined
    by scipy's ``golden`` iterates (xtol 1e-12, at most 5000 steps), and the
    refined point replaces it unless lower.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if params.g0 == 0.0:
        return MaxRotation(0.0, 0.0)

    span = 6.0 * max(params.g0, params.kappa) + 8.0 * params.gamma
    grid = np.linspace(-span, 0.0, MAX_ROTATION_COARSE_POINTS)
    values = _abs_rotation(grid, params, mode)

    best = int(np.argmax(values))
    if values[best] <= 0.0:
        return MaxRotation(0.0, 0.0)
    grid_max = MaxRotation(float(values[best]), float(grid[best]))
    if best == 0 or best == grid.size - 1:
        return grid_max

    def f(delta: float) -> float:
        return float(_abs_rotation(np.array([delta]), params, mode)[0])

    x0, xb, x3 = (float(x) for x in grid[best - 1 : best + 2])
    fb = f(xb)
    if not (fb > f(x0) and fb > f(x3)):
        return grid_max
    if abs(x3 - xb) > abs(xb - x0):
        x1, x2 = xb, xb + _GOLDEN_C * (x3 - xb)
    else:
        x1, x2 = xb - _GOLDEN_C * (xb - x0), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= 1e-12 * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1, x2 = x1, x2, _GOLDEN_R * x2 + _GOLDEN_C * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, _GOLDEN_R * x1 + _GOLDEN_C * x0
            f2, f1 = f1, f(x1)
    refined = MaxRotation(f1, x1) if f1 > f2 else MaxRotation(f2, x2)
    return refined if refined.angle >= grid_max.angle else grid_max


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
        """Header and rows for CSV export: the axis, then each later array field."""
        names = [field.name for field in fields(self)[2:]]
        columns = [self.axis, *(getattr(self, name) for name in names)]
        return [self.axis_name, *names], np.column_stack(columns).tolist()


# Geometry field -> (name as exported in a scan, scale to that unit).
_GEOMETRY_AXES = {
    "length": ("length_um", 1e6),
    "reflectivity": ("reflectivity", 1.0),
}


def _design_point(
    anchor: SystemParams, anchor_geometry: CavityGeometry, **field: float
) -> tuple[SystemParams, MaxRotation]:
    """Re-derived rates and cavity-locked maximum rotation, one geometry field changed."""
    point = params_for_geometry(replace(anchor_geometry, **field), anchor, anchor_geometry)
    return point, max_rotation(point, CAVITY_EQUALS_ATOM)


def _scan(
    field: str, values: np.ndarray, anchor: SystemParams, anchor_geometry: CavityGeometry
) -> ScanResult:
    """Design points along one geometry field; the other fields stay fixed."""
    pairs = [_design_point(anchor, anchor_geometry, **{field: float(v)}) for v in values]
    mhz = TWO_PI * 1e6
    axis_name, scale = _GEOMETRY_AXES[field]
    return ScanResult(
        axis_name=axis_name,
        axis=values * scale,
        max_angle_deg=np.array([math.degrees(r.angle) for _, r in pairs], dtype=float),
        delta_star_mhz=np.array([r.delta_star / mhz for _, r in pairs], dtype=float),
        g0_mhz=np.array([p.g0 / mhz for p, _ in pairs], dtype=float),
        kappa_mhz=np.array([p.kappa / mhz for p, _ in pairs], dtype=float),
        gamma_khz=np.full(len(pairs), anchor.gamma / (TWO_PI * 1e3)),
    )


def scan_length(
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
) -> ScanResult:
    """Maximum rotation angle versus cavity length.

    25 lengths, geometric from the 150 um working point to 6 mm: beyond
    roughly 6 mm the derived antinode coupling drops below the atomic
    linewidth and the single-atom dispersive model stops being meaningful.
    Mirror reflectivity stays at the anchor geometry's value; waist, decay
    rate, and coupling are re-derived per length.
    """
    return _scan("length", np.geomspace(150e-6, 6e-3, 25), anchor, anchor_geometry)


class LosslessPoint(NamedTuple):
    """Operating point where the coupled transmittance is exactly +i."""

    kappa: float       # rad/s
    delta: float       # rad/s
    reflectivity: float


def _has_lossless_point(params: SystemParams) -> bool:
    """Whether the cavity-locked lossless point exists: g0^2 > gamma^2/2."""
    return params.g0 * params.g0 > 0.5 * params.gamma * params.gamma


def lossless_rotation_point(
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
) -> LosslessPoint:
    """Solve for the cavity-locked operating point with |t| = 1 and 45 deg.

    In the cavity-locked configuration the coupled transmittance equals
    +i (a lossless quarter-turn of the analyzer balance, the estimator's
    full range) when

        delta = -g^2 / (2 (kappa + gamma/2))   and
        kappa*gamma/2 - delta^2 + g^2/2 = 0,

    that is, (2 kappa gamma + 2 g^2)(kappa + gamma/2)^2 = g^4: in
    u = g/(kappa + gamma/2) and c = gamma/g, u^3 - (2 - c^2) u - 2c = 0,
    whose largest root is Cardano's in complex arithmetic. The mirror inverts
    derive_kappa at the anchor length: sqrt(R) = 2/(a + sqrt(a^2 + 4)), with
    a = 2 L kappa / c. Raises ValueError unless g0 > gamma/sqrt(2) (kappa > 0).
    """
    if not _has_lossless_point(anchor):
        raise ValueError("lossless rotation point requires g0 > gamma/sqrt(2)")
    g, gamma = anchor.g0, anchor.gamma
    c = gamma / g
    p = 2.0 - c * c
    w = (c + cmath.sqrt(c * c - p**3 / 27.0)) ** (1.0 / 3.0)
    kappa_star = g / (w + p / (3.0 * w)).real - 0.5 * gamma
    delta_star = -g * g / (2.0 * (kappa_star + 0.5 * gamma))
    a = 2.0 * anchor_geometry.length * kappa_star / SPEED_OF_LIGHT
    rho_star = (2.0 / (a + math.sqrt(a * a + 4.0))) ** 2
    return LosslessPoint(kappa=kappa_star, delta=delta_star, reflectivity=rho_star)


def default_reflectivity_grid(
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
) -> np.ndarray:
    """Mirror reflectivities from 0.9999 to 0.99999, 41 geometric in the loss.

    The anchor reflectivity, the 0.999990 design point, and the lossless
    45-degree point (when it falls inside the range) are inserted so the
    scan resolves them exactly.
    """
    grid = 1.0 - np.geomspace(1e-4, 1e-5, 41)
    extras = [anchor_geometry.reflectivity, 0.999990]
    if _has_lossless_point(anchor):
        extras.append(lossless_rotation_point(anchor, anchor_geometry).reflectivity)
    extras_arr = np.array([e for e in extras if grid.min() <= e <= grid.max()])
    return np.unique(np.concatenate([grid, extras_arr]))


def scan_reflectivity(
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
) -> ScanResult:
    """Maximum rotation angle versus mirror reflectivity at fixed length.

    Only the cavity decay rate changes with reflectivity; the coupling and
    atomic linewidth stay fixed.
    """
    return _scan(
        "reflectivity", default_reflectivity_grid(anchor, anchor_geometry), anchor, anchor_geometry
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
) -> CnotReport:
    """Best achievable rotation with mirrors in [rho_floor, rho_limit].

    The rotation peaks at the lossless point, where the estimator reaches
    its 45-degree bound, and falls away from it on either side, so the best
    mirror is the lossless reflectivity clipped to the bounds (``rho_limit``
    is a technology limit: better coatings can always be specified down).
    The lossless point itself reads 45 degrees exactly; a clipped point goes
    through the cavity-locked design-point evaluation. Without a lossless
    point (g0 <= gamma/sqrt(2), g0 = 0 included) the angle rises with the
    reflectivity over the whole range, so the report is infeasible at
    ``rho_limit``.
    """
    if not (0.0 < rho_floor < rho_limit < 1.0):
        raise ValueError("need 0 < rho_floor < rho_limit < 1")

    def angle_at(rho: float) -> tuple[float, float]:
        _, result = _design_point(params, anchor_geometry, reflectivity=rho)
        return math.degrees(result.angle), result.delta_star / (TWO_PI * 1e6)

    if _has_lossless_point(params):
        lossless = lossless_rotation_point(params, anchor_geometry)
        best_rho = min(max(lossless.reflectivity, rho_floor), rho_limit)
        at_lossless = best_rho == lossless.reflectivity
    else:
        best_rho, at_lossless = rho_limit, False
    if at_lossless:
        best_angle, best_delta = 45.0, lossless.delta / (TWO_PI * 1e6)
    else:
        best_angle, best_delta = angle_at(best_rho)

    angle_at_limit, _ = angle_at(rho_limit)
    return CnotReport(
        feasible=best_angle >= 45.0 - 1e-9,
        best_angle_deg=best_angle,
        best_reflectivity=best_rho,
        best_delta_mhz=best_delta,
        angle_at_limit_deg=angle_at_limit,
        spin_split_deg=2.0 * best_angle,
        rotation_up_deg=-best_angle,
    )
