"""Physical parameters, unit conventions, and cavity scaling laws.

Every frequency-like quantity in this package is stored as an angular
frequency in rad/s. Presentation layers (CLI, CSV) divide by 2*pi and print
MHz or kHz. Lengths are meters.

The cavity decay rate ``kappa`` is the half-width at half-maximum of the
cavity amplitude resonance; the master-equation module maps it to a photon
number decay rate of 2*kappa and tests that mapping against the empty-cavity
Lorentzian.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping

TWO_PI = 2.0 * math.pi

# Exact SI value, m/s.
SPEED_OF_LIGHT = 299_792_458.0


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration input."""


class GeometryError(ValueError):
    """Raised when a cavity geometry is unstable or unphysical."""


def _require_finite(obj: object, error: type[ValueError]) -> None:
    """Raise ``error`` naming the first field of a value object that is not finite."""
    for field in fields(obj):
        value = getattr(obj, field.name)
        if not math.isfinite(value):
            raise error(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Rates and scales of the atom-cavity system.

    Defaults are the operating point of the apparatus being modeled:
    maximum coupling g0 = 2*pi*2.8 MHz, cavity half-width kappa =
    2*pi*4.5 MHz, atomic linewidth gamma = 2*pi*182 kHz, circular-component
    splitting 2*pi*71 MHz, probe wavelength 556 nm, mode waist 19 um, and
    excitation Rabi frequency 2*pi*1.4 MHz.
    """

    g0: float = TWO_PI * 2.8e6          # rad/s, coupling at a mode antinode
    kappa: float = TWO_PI * 4.5e6       # rad/s, cavity HWHM
    gamma: float = TWO_PI * 182e3       # rad/s, atomic natural linewidth
    zeeman_shift: float = TWO_PI * 71e6  # rad/s, shift decoupling one circular component
    wavelength: float = 556e-9          # m
    waist: float = 19e-6                # m, cavity mode waist
    rabi: float = TWO_PI * 1.4e6        # rad/s, excitation Rabi frequency

    def __post_init__(self) -> None:
        _require_finite(self, ConfigError)
        if self.g0 < 0.0:
            raise ConfigError("g0 must be non-negative")
        for name in ("kappa", "gamma", "zeeman_shift", "rabi", "wavelength", "waist"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class CavityGeometry:
    """Symmetric two-mirror Fabry-Perot geometry."""

    length: float = 150e-6       # m
    mirror_roc: float = 50e-3    # m, radius of curvature of each mirror
    reflectivity: float = 0.999972  # intensity reflectivity of each mirror

    def __post_init__(self) -> None:
        _require_finite(self, GeometryError)
        if not (0.0 < self.length < 2.0 * self.mirror_roc):
            raise GeometryError(
                "unstable cavity: need 0 < length < 2*mirror_roc, got "
                f"length={self.length!r}, mirror_roc={self.mirror_roc!r}"
            )
        if not (0.0 < self.reflectivity < 1.0):
            raise GeometryError(
                f"reflectivity must lie in (0, 1), got {self.reflectivity!r}"
            )


@dataclass(frozen=True)
class DetectionChain:
    """Photon detection efficiencies from cavity mirror to detector click."""

    cavity_escape: float = 0.9
    fiber_coupling: float = 0.7
    detector_qe: float = 0.6
    input_coupling: float = 0.6

    def __post_init__(self) -> None:
        for name in ("cavity_escape", "fiber_coupling", "detector_qe", "input_coupling"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ConfigError(f"{name} must lie in (0, 1], got {value!r}")


DEFAULT_PARAMS = SystemParams()
DEFAULT_GEOMETRY = CavityGeometry()
DEFAULT_DETECTION = DetectionChain()


def derive_waist(geom: CavityGeometry, wavelength: float = DEFAULT_PARAMS.wavelength) -> float:
    """Gaussian mode waist of a symmetric two-mirror cavity.

    w0**2 = (L*lambda / 2*pi) * sqrt(2R/L - 1). ``CavityGeometry`` already
    enforces 0 < L < 2R.
    """
    if wavelength <= 0.0:
        raise ValueError("wavelength must be strictly positive")
    ratio = 2.0 * geom.mirror_roc / geom.length - 1.0
    w0_sq = (geom.length * wavelength / TWO_PI) * math.sqrt(ratio)
    return math.sqrt(w0_sq)


def finesse(reflectivity: float) -> float:
    """Cavity finesse for two identical mirrors: pi*sqrt(rho)/(1-rho)."""
    if not (0.0 < reflectivity < 1.0):
        raise GeometryError(f"reflectivity must lie in (0, 1), got {reflectivity!r}")
    return math.pi * math.sqrt(reflectivity) / (1.0 - reflectivity)


def derive_kappa(geom: CavityGeometry) -> float:
    """Cavity amplitude HWHM in rad/s from geometry.

    kappa/2*pi = (free spectral range) / (2 * finesse), FSR = c / 2L.
    """
    fsr_hz = SPEED_OF_LIGHT / (2.0 * geom.length)
    hwhm_hz = fsr_hz / (2.0 * finesse(geom.reflectivity))
    return TWO_PI * hwhm_hz


def derive_g0(
    geom: CavityGeometry,
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
) -> float:
    """Antinode coupling rate from mode-volume scaling.

    g0 scales as 1/sqrt(mode volume) with V proportional to w0(L)**2 * L,
    anchored so that the anchor geometry reproduces anchor.g0 exactly. The
    anchor waist is the derived one (not the rounded quoted value) so the
    identity at the anchor length is exact. Independent of mirror
    reflectivity.
    """
    w0 = derive_waist(geom, anchor.wavelength)
    w0_anchor = derive_waist(anchor_geometry, anchor.wavelength)
    volume_ratio = (w0_anchor**2 * anchor_geometry.length) / (w0**2 * geom.length)
    return anchor.g0 * math.sqrt(volume_ratio)


def params_for_geometry(
    geom: CavityGeometry,
    anchor: SystemParams = DEFAULT_PARAMS,
    anchor_geometry: CavityGeometry = DEFAULT_GEOMETRY,
) -> SystemParams:
    """SystemParams with waist, kappa, and g0 derived from the geometry.

    gamma, zeeman_shift, wavelength, and rabi are atomic properties and carry
    over from the anchor unchanged.
    """
    return replace(
        anchor,
        waist=derive_waist(geom, anchor.wavelength),
        kappa=derive_kappa(geom),
        g0=derive_g0(geom, anchor, anchor_geometry),
    )


# Flat configuration keys. Each maps to (target, field, scale) where target
# selects the value object and scale converts the file's unit into SI rad/s
# or meters.
_PARAM_KEY_TABLE: dict[str, tuple[str, str, float]] = {
    "g0_mhz": ("params", "g0", TWO_PI * 1e6),
    "kappa_mhz": ("params", "kappa", TWO_PI * 1e6),
    "gamma_khz": ("params", "gamma", TWO_PI * 1e3),
    "zeeman_mhz": ("params", "zeeman_shift", TWO_PI * 1e6),
    "wavelength_nm": ("params", "wavelength", 1e-9),
    "waist_um": ("params", "waist", 1e-6),
    "rabi_mhz": ("params", "rabi", TWO_PI * 1e6),
    "length_um": ("geometry", "length", 1e-6),
    "roc_mm": ("geometry", "mirror_roc", 1e-3),
    "reflectivity": ("geometry", "reflectivity", 1.0),
    "cavity_escape": ("detection", "cavity_escape", 1.0),
    "fiber_coupling": ("detection", "fiber_coupling", 1.0),
    "detector_qe": ("detection", "detector_qe", 1.0),
    "input_coupling": ("detection", "input_coupling", 1.0),
}

PARAM_KEYS = frozenset(_PARAM_KEY_TABLE)


def parse_config_text(text: str) -> dict[str, object]:
    """Parse a configuration file body.

    Accepts either a JSON object or plain ``key = value`` lines with ``#``
    comments. Values in the key=value form are parsed as numbers when
    possible and kept as strings otherwise. A body that opens with ``{`` or
    ``[`` is read as JSON.
    """
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
            raise ConfigError(f"invalid JSON configuration: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON configuration must be an object")
        return dict(data)

    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            parsed: object = int(value)
        except ValueError:
            try:
                parsed = float(value)
            except ValueError:
                parsed = value
        out[key] = parsed
    return out


def load_config(path: str) -> dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc


def build_settings(
    overrides: Mapping[str, object],
) -> tuple[SystemParams, CavityGeometry, DetectionChain]:
    """Build the three value objects from flat configuration keys.

    Unknown keys are rejected; callers that carry extra run-level keys
    (seed, samples, ...) must filter them out first. Values must be numbers:
    a bool or a string (a JSON ``true`` or ``"2.8"``) is a ConfigError, and
    so is an integer too large for a float.
    """
    unknown = sorted(set(overrides) - PARAM_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")

    fields: dict[str, dict[str, float]] = {"params": {}, "geometry": {}, "detection": {}}
    for key, value in overrides.items():
        target, field, scale = _PARAM_KEY_TABLE[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"configuration key {key!r} must be numeric, got {value!r}")
        try:
            fields[target][field] = float(value) * scale
        except OverflowError as exc:
            raise ConfigError(f"configuration key {key!r} is too large for a finite float") from exc

    try:
        params = replace(DEFAULT_PARAMS, **fields["params"])
        geometry = replace(DEFAULT_GEOMETRY, **fields["geometry"])
        detection = replace(DEFAULT_DETECTION, **fields["detection"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params, geometry, detection


def settings_to_flat(
    params: SystemParams,
    geometry: CavityGeometry,
    detection: DetectionChain,
) -> dict[str, float]:
    """Inverse of build_settings: express the settings as flat file keys."""
    objects = {"params": params, "geometry": geometry, "detection": detection}
    out: dict[str, float] = {}
    for key, (target, field, scale) in _PARAM_KEY_TABLE.items():
        out[key] = getattr(objects[target], field) / scale
    return out
