"""Weak-drive analytic optics: coupling map, complex transmittance,
polarization propagation in the circular basis, and the photon-count angle
estimator.

Conventions
-----------
Circular unit vectors are sigma+- = (x +- i y)/sqrt(2); a field is stored as
its two circular amplitudes (amp_plus, amp_minus). A linear polarizer at
angle phi from x projects onto (amp_plus*exp(+i*phi) + amp_minus*exp(-i*phi))
/ sqrt(2).

Only the sigma- circular component couples to the atom (the other component
is shifted far off resonance by the level splitting), so a transmitted probe
acquires a complex factor t_minus on that component while t_plus stays 1.
The analyzer is offset by 45 degrees so that the two output ports balance
exactly when no atom is present; the count-based estimator
arccos(sqrt(n_t/(n_t+n_r))) - pi/4 then reads zero without an atom and the
with-atom reading is reported directly as the rotation angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams

# Analyzer offset that balances the two ports for an x-polarized input.
BALANCED_ANALYZER_OFFSET = math.pi / 4.0

_SQRT_HALF = math.sqrt(0.5)


class InsufficientCountsError(ValueError):
    """Raised when an angle is requested from zero total photon counts."""


@dataclass(frozen=True)
class PolarizationField:
    """Two circular-basis complex amplitudes of a fully polarized field."""

    amp_plus: complex
    amp_minus: complex

    @staticmethod
    def linear_x() -> "PolarizationField":
        """Unit-power linear x polarization: equal circular amplitudes."""
        return PolarizationField(_SQRT_HALF, _SQRT_HALF)

    def analyzer_amplitude(self, phi: float) -> complex:
        """Amplitude behind a linear analyzer at angle phi from x."""
        return (
            self.amp_plus * np.exp(1j * phi) + self.amp_minus * np.exp(-1j * phi)
        ) * _SQRT_HALF

    def port_intensities(self, phi: float) -> tuple[float, float]:
        """Intensities at the analyzer's two output ports (phi, phi + 90 deg)."""
        transmitted = abs(self.analyzer_amplitude(phi)) ** 2
        reflected = abs(self.analyzer_amplitude(phi + math.pi / 2.0)) ** 2
        return transmitted, reflected


@dataclass(frozen=True)
class Transmittance:
    """Complex transmittances of the two circular components."""

    t_minus: complex
    t_plus: complex = 1.0 + 0.0j


def coupling_grid(x: np.ndarray, y: np.ndarray, z: np.ndarray, params: SystemParams) -> np.ndarray:
    """Coupling rate g(r) = g0 * exp(-(x^2+y^2)/w0^2) * cos(2 pi z / lambda).

    Vectorized over broadcastable position arrays. May be negative across a
    standing-wave node; physical observables use g(r)^2.
    """
    envelope = np.exp(-(np.asarray(x) ** 2 + np.asarray(y) ** 2) / params.waist**2)
    standing_wave = np.cos(2.0 * math.pi * np.asarray(z) / params.wavelength)
    return params.g0 * envelope * standing_wave


def t_minus_value(
    delta: np.ndarray | float,
    g: np.ndarray | float,
    params: SystemParams,
    cavity_detuning: np.ndarray | float | None = None,
) -> np.ndarray | complex:
    """Complex sigma- transmittance, vectorized over broadcastable inputs.

    ``delta`` is the probe detuning from the atom. With ``cavity_detuning``
    omitted the probe is resonant with the cavity and

        t = kappa (gamma/2 - i delta) / (kappa (gamma/2 - i delta) + g^2).

    With a cavity detuning delta_c the same steady-state response, normalized
    by the empty cavity, generalizes to

        t = (kappa - i delta_c)(gamma/2 - i delta)
            / ((kappa - i delta_c)(gamma/2 - i delta) + g^2).
    """
    delta = np.asarray(delta, dtype=float)
    g = np.asarray(g, dtype=float)
    if cavity_detuning is None:
        cavity_factor = params.kappa + 0.0j
    else:
        cavity_factor = params.kappa - 1j * np.asarray(cavity_detuning, dtype=float)
    atom_factor = 0.5 * params.gamma - 1j * delta
    numerator = cavity_factor * atom_factor
    result = numerator / (numerator + g**2)
    if result.ndim == 0:
        return complex(result)
    return result


def transmittance(
    delta: float,
    g: float,
    params: SystemParams,
    cavity_detuning: float | None = None,
) -> Transmittance:
    """Transmittance of both circular components for one operating point.

    The sigma+ component is taken as fully transmitted (t_plus = 1): its
    transition is shifted by twice the level splitting, far outside the
    cavity line.
    """
    return Transmittance(t_minus=complex(t_minus_value(delta, g, params, cavity_detuning)))


def propagate(field: PolarizationField, t: Transmittance) -> PolarizationField:
    """Apply the cavity transmittance to a polarization state (linear map)."""
    return PolarizationField(
        amp_plus=field.amp_plus * t.t_plus,
        amp_minus=field.amp_minus * t.t_minus,
    )


def angle_from_counts(n_t: float, n_r: float) -> float:
    """Polarization angle estimate from photon counts at the two ports.

    phi = arccos(sqrt(n_t / (n_t + n_r))) - pi/4, in radians. Balanced
    counts give zero; all counts in the reflected port give +pi/4 and all in
    the transmitted port give -pi/4.
    """
    if n_t < 0.0 or n_r < 0.0:
        raise ValueError("photon counts must be non-negative")
    total = n_t + n_r
    if total <= 0.0:
        raise InsufficientCountsError("no photons detected at either port")
    ratio = min(1.0, max(0.0, n_t / total))
    return math.acos(math.sqrt(ratio)) - math.pi / 4.0


def _estimator_from_t(t_minus: np.ndarray, t_plus: np.ndarray | complex = 1.0 + 0.0j) -> np.ndarray:
    """Vectorized count estimator on expected port intensities.

    For an x-polarized input and the analyzer offset 45 degrees, the expected
    port intensities are |t_minus + i t_plus|^2 / 4 and
    |t_minus - i t_plus|^2 / 4; common factors cancel in the estimator.
    """
    n_t = np.abs(t_minus + 1j * t_plus) ** 2
    n_r = np.abs(t_minus - 1j * t_plus) ** 2
    total = n_t + n_r
    if np.any(total <= 0.0):
        raise InsufficientCountsError("zero transmitted intensity at both ports")
    ratio = np.clip(n_t / total, 0.0, 1.0)
    return np.arccos(np.sqrt(ratio)) - math.pi / 4.0


def rotation_angle(
    delta: float,
    g: float,
    params: SystemParams,
    cavity_detuning: float | None = None,
) -> float:
    """Polarization rotation angle read by the balanced-analyzer procedure.

    Simulates the measurement: x-polarized probe, transmittance applied,
    analyzer offset so the empty cavity balances the ports, count estimator
    applied to the expected intensities. The empty-cavity reading is zero by
    construction, so the with-atom reading is the rotation angle. Radians.
    """
    t = t_minus_value(delta, g, params, cavity_detuning)
    return float(_estimator_from_t(np.asarray(t)))


def rotation_curve(
    delta_grid: np.ndarray,
    g: float,
    params: SystemParams,
    cavity_detuning: np.ndarray | float | None = None,
) -> np.ndarray:
    """Vectorized rotation_angle over a detuning grid. Radians."""
    t = t_minus_value(np.asarray(delta_grid, dtype=float), g, params, cavity_detuning)
    return _estimator_from_t(np.atleast_1d(np.asarray(t)))


def polarization_azimuth(t: Transmittance) -> float:
    """Major-axis azimuth of the transmitted ellipse: arg(t_minus/t_plus)/2.

    This is the geometric ellipse orientation, distinct from the count-based
    estimator above; the two agree in magnitude only for a lossless pure
    rotation and carry opposite signs under these conventions. Exposed for
    inspection; all reported rotation angles use the count estimator.
    """
    return 0.5 * math.atan2(
        (t.t_minus / t.t_plus).imag,
        (t.t_minus / t.t_plus).real,
    )
