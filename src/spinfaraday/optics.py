"""Weak-drive analytic optics: coupling map, complex sigma- transmittance,
and the photon-count angle estimator.

``angle_from_counts`` is the one estimator, elementwise over count arrays:
single count pairs, expected intensities and ensemble-averaged counts alike.

Conventions
-----------
Only the sigma- circular component couples to the atom (the sigma+
component is shifted far off resonance by the level splitting), so an
x-polarized probe leaves the cavity with a complex factor t on its sigma-
component and factor 1 on its sigma+ component. Behind a linear analyzer at
angle phi from x its intensity is |exp(-i phi) t + exp(+i phi)|^2 / 4.
The analyzer is offset by 45 degrees, giving the two output ports
|t + i|^2 / 4 and |t - i|^2 / 4, which balance exactly when no atom is
present (t = 1); the count-based estimator
arccos(sqrt(n_t/(n_t+n_r))) - pi/4 then reads zero without an atom and the
with-atom reading is reported directly as the rotation angle.
"""

from __future__ import annotations

import math

import numpy as np

from .params import SystemParams


class InsufficientCountsError(ValueError):
    """Raised when an angle is requested from zero total photon counts."""


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
    cavity_detuning: np.ndarray | float = 0.0,
) -> np.ndarray | complex:
    """Complex sigma- transmittance, vectorized over broadcastable inputs.

    Scalar inputs return a numpy scalar (``np.complex128``, a ``complex``).

    ``delta`` is the probe detuning from the atom and ``cavity_detuning``
    (delta_c) from the cavity, resonant by default. The steady-state
    response, normalized by the empty cavity, is

        t = (kappa - i delta_c)(gamma/2 - i delta)
            / ((kappa - i delta_c)(gamma/2 - i delta) + g^2).
    """
    delta = np.asarray(delta, dtype=float)
    g = np.asarray(g, dtype=float)
    cavity_factor = params.kappa - 1j * np.asarray(cavity_detuning, dtype=float)
    atom_factor = 0.5 * params.gamma - 1j * delta
    numerator = cavity_factor * atom_factor
    return numerator / (numerator + g**2)


def t_moments(
    delta: np.ndarray | float, g: np.ndarray, params: SystemParams
) -> tuple[np.ndarray, np.ndarray]:
    """(E|t|^2, E[t]) of t_minus over 1-D coupling samples g, one pair per detuning.

    One ``t_minus_value`` call over g per detuning keeps memory O(g.size).
    """
    delta = np.ravel(np.asarray(delta, dtype=float))
    m2 = np.empty(delta.size, dtype=float)
    m1 = np.empty(delta.size, dtype=complex)
    for i, d in enumerate(delta):
        t = t_minus_value(d, g, params)
        m2[i] = np.mean(np.abs(t) ** 2)
        m1[i] = np.mean(t)
    return m2, m1


def angle_from_counts(n_t: np.ndarray | float, n_r: np.ndarray | float) -> np.ndarray | float:
    """Polarization angle estimate from photon counts at the two ports.

    phi = arccos(sqrt(n_t / (n_t + n_r))) - pi/4, in radians, elementwise
    over broadcastable counts (a numpy scalar, ``np.float64``, for scalar
    counts). Balanced counts give zero; all counts in the reflected port
    give +pi/4 and all in the transmitted port give -pi/4. Raises ValueError
    if any count is negative and InsufficientCountsError if any total is
    not positive.
    """
    n_t = np.asarray(n_t, dtype=float)
    n_r = np.asarray(n_r, dtype=float)
    if ((n_t < 0.0) | (n_r < 0.0)).any():
        raise ValueError("photon counts must be non-negative")
    total = n_t + n_r
    if (total <= 0.0).any():
        raise InsufficientCountsError("no photons detected at either port")
    # Rounding keeps n_t <= n_t + n_r, so the ratio needs no clipping to [0, 1].
    return np.arccos(np.sqrt(n_t / total)) - math.pi / 4.0


def rotation_curve(
    delta_grid: np.ndarray,
    g: float,
    params: SystemParams,
    cavity_detuning: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Rotation angle read by the balanced-analyzer procedure. Radians, an array.

    The 45-degree analyzer's expected port intensities |t_minus + i|^2 / 4
    and |t_minus - i|^2 / 4 go into the count estimator; the common factor
    cancels and the empty cavity reads zero.
    """
    t = np.atleast_1d(t_minus_value(delta_grid, g, params, cavity_detuning))
    return angle_from_counts(np.abs(t + 1j) ** 2, np.abs(t - 1j) ** 2)
