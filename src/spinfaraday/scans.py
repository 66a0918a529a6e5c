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
# The feasibility report's mirror range: the best coating available (a design
# that needs less can always specify less) down to a floor.
REFLECTIVITY_LIMIT = 0.999990
REFLECTIVITY_FLOOR = 0.999


class MaxRotation(NamedTuple):
    """Maximum |rotation angle| over detuning."""

    angle: float        # rad
    delta_star: float   # rad/s, detuning of the maximum (negative branch)


def _abs_rotation(delta: np.ndarray, params: SystemParams, mode: str) -> np.ndarray:
    # Kept 1-D even for one point: numpy's scalar complex division rounds
    # differently from its array loop, and fig6 pins the array rounding. An
    # element's value does not depend on the rest of the batch, so the coarse
    # grid's values and the lookahead batches equal one-point evaluations.
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    cavity_detuning = delta if mode == CAVITY_EQUALS_ATOM else 0.0
    return np.abs(rotation_curve(delta, params.g0, params, cavity_detuning))


# scipy's ``golden`` ratio, rounded to 8 digits: fig6 pins that method's iterates.
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R
# Golden-section steps evaluated ahead per array call: 2**LOOKAHEAD - 1 points.
LOOKAHEAD = 4

_Bracket = tuple[float, float, float, float]


def _golden_children(bracket: _Bracket) -> tuple[_Bracket, _Bracket]:
    """scipy's two next brackets of (x0, x1, x2, x3): up, taken when f2 > f1,
    then down."""
    x0, x1, x2, x3 = bracket
    up = x1, x2, _GOLDEN_R * x2 + _GOLDEN_C * x3, x3
    down = x0, _GOLDEN_R * x1 + _GOLDEN_C * x0, x1, x2
    return up, down


def _lookahead_tree(bracket: _Bracket, slot: int) -> list[float]:
    """The unevaluated x[slot] of ``bracket``, then the new inner point of each
    bracket of the next ``LOOKAHEAD`` - 1 steps, in heap order: node i steps
    up to 2i+1 (new x2) and down to 2i+2 (new x1)."""
    nodes, points = [bracket], [bracket[slot]]
    for i in range(2 ** (LOOKAHEAD - 1) - 1):
        up, down = _golden_children(nodes[i])
        nodes += up, down
        points += up[2], down[1]
    return points


def _golden(
    xa: float, xb: float, xc: float, fb: float, params: SystemParams, mode: str
) -> MaxRotation:
    """scipy's ``golden`` (xtol 1e-12, at most 5000 steps) maximizing f, from
    the bracket xa < xb < xc with fb = f(xb) above f(xa) and f(xc).

    f comes from the current lookahead tree: each step moves down it, and a
    step that leaves it evaluates the next tree's points in one array call.
    """
    values, i = [], 0  # the tree's f values, heap order; empty until the first call

    def f(bracket: _Bracket, up: bool) -> float:
        """f at the inner point the last step added: x2 if up, else x1."""
        nonlocal values, i
        i = 2 * i + (1 if up else 2)
        if i >= len(values):
            points = _lookahead_tree(bracket, 2 if up else 1)
            values, i = _abs_rotation(points, params, mode).tolist(), 0
        return values[i]

    x3, x0 = xc, xa
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GOLDEN_C * (xc - xb)
        f1, f2 = fb, f((x0, x1, x2, x3), True)
    else:
        x1, x2 = xb - _GOLDEN_C * (xb - xa), xb
        f1, f2 = f((x0, x1, x2, x3), False), fb
    for _ in range(5000):
        if abs(x3 - x0) <= 1e-12 * (abs(x1) + abs(x2)):
            break
        up = f2 > f1
        x0, x1, x2, x3 = _golden_children((x0, x1, x2, x3))[0 if up else 1]
        if up:
            f1, f2 = f2, f((x0, x1, x2, x3), up)
        else:
            f1, f2 = f((x0, x1, x2, x3), up), f1
    return MaxRotation(f1, x1) if f1 > f2 else MaxRotation(f2, x2)


def max_rotation(params: SystemParams, mode: str = PROBE_EQUALS_CAVITY) -> MaxRotation:
    """Maximize |rotation angle| over probe detuning.

    Scans a coarse grid on the negative-detuning half (the curve is
    antisymmetric). A grid maximum strictly above both neighbours is refined
    by scipy's ``golden`` loop from those three points, and the refined
    point replaces it unless lower. The iterates match scipy's bit for bit,
    though each array call evaluates the candidate points of ``LOOKAHEAD``
    steps.
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

    fa, fb, fc = values[best - 1 : best + 2].tolist()
    if not (fb > fa and fb > fc):
        return grid_max
    refined = _golden(*grid[best - 1 : best + 2].tolist(), fb, params, mode)
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
    extras = [anchor_geometry.reflectivity, REFLECTIVITY_LIMIT]
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


def cnot_feasibility(
    params: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
) -> CnotReport:
    """Best achievable rotation with mirrors in [REFLECTIVITY_FLOOR, REFLECTIVITY_LIMIT].

    The rotation peaks at the lossless point, where the estimator reaches
    its 45-degree bound, and falls away from it on either side, so the best
    mirror is the lossless reflectivity clipped to the range. The lossless
    point itself reads 45 degrees exactly; a clipped point goes through the
    cavity-locked design-point evaluation, made once per mirror. Without a
    lossless point (g0 <= gamma/sqrt(2), g0 = 0 included) the angle rises
    with the reflectivity over the whole range, so the report is infeasible
    at ``REFLECTIVITY_LIMIT``.
    """

    def angle_at(rho: float) -> tuple[float, float]:
        _, result = _design_point(params, anchor_geometry, reflectivity=rho)
        return math.degrees(result.angle), result.delta_star / (TWO_PI * 1e6)

    at_limit = angle_at(REFLECTIVITY_LIMIT)
    best_rho, (best_angle, best_delta) = REFLECTIVITY_LIMIT, at_limit
    if _has_lossless_point(params):
        lossless = lossless_rotation_point(params, anchor_geometry)
        if lossless.reflectivity < REFLECTIVITY_FLOOR:
            best_rho, (best_angle, best_delta) = REFLECTIVITY_FLOOR, angle_at(REFLECTIVITY_FLOOR)
        elif lossless.reflectivity <= REFLECTIVITY_LIMIT:
            best_rho, best_angle = lossless.reflectivity, 45.0
            best_delta = lossless.delta / (TWO_PI * 1e6)
    return CnotReport(
        feasible=best_angle >= 45.0 - 1e-9,
        best_angle_deg=best_angle,
        best_reflectivity=best_rho,
        best_delta_mhz=best_delta,
        angle_at_limit_deg=at_limit[0],
    )
