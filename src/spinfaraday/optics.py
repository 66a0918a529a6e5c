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
from typing import Iterable

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


# Coupling samples per block of the moment sweep: one block's complex t is
# 512 KiB, so it stays in a 2 MiB L2 cache together with its temporaries.
# An ensemble's block is the whole trajectory rows that fit (at least one),
# built with their positions (about 0.8 MiB) just before it is swept.
MOMENT_BLOCK = 1 << 15


def t_moments(
    delta: np.ndarray | float, blocks: Iterable[np.ndarray], params: SystemParams
) -> tuple[np.ndarray, np.ndarray]:
    """(E|t|^2, E[t]) of t_minus over coupling samples, one pair per detuning.

    The samples arrive as consecutive 1-D blocks: an ensemble's
    ``montecarlo.coupling_blocks``, whole trajectory rows built only when
    reached, or the pinned atom's one block [g0]. Within a block one
    ``t_minus_value`` call per detuning adds to that detuning's two sums,
    so memory is O(block) however many samples there are. |t|^2
    is summed by ``einsum`` over the real view, not by a BLAS dot product,
    whose rounding would follow the BLAS thread count. Raises ValueError
    unless every block is 1-D and there is at least one sample.
    """
    delta = np.ravel(np.asarray(delta, dtype=float))
    s2 = np.zeros(delta.size, dtype=float)
    s1 = np.zeros(delta.size, dtype=complex)
    count = 0
    for block in blocks:
        if block.ndim != 1:
            raise ValueError(f"coupling blocks must be 1-D, got shape {block.shape}")
        for i, d in enumerate(delta):
            t = t_minus_value(d, block, params)
            tv = t.view(float)
            s2[i] += np.einsum("i,i->", tv, tv)
            s1[i] += t.sum()
        count += block.size
    if count < 1:
        raise ValueError("couplings must be a non-empty 1-D array, got no samples")
    return s2 / count, s1 / count


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
