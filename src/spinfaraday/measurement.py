"""Ancilla-assisted spin measurement: Kraus operators for a pure
polarization rotation, Bayesian conditional populations including
ellipticity, and the two-port conditional-population readouts.

A probe photon transmitted through the cavity and detected behind an
analyzer at angle phi updates the spin. For a spin-independent ideal
rotation by theta on the down component the update is the diagonal Kraus
operator diag(cos(phi), cos(phi - theta)), applied to the spin amplitudes
by its diagonal. ``kraus`` is elementwise over theta and phi: it returns a
stack of 2x2 matrices, one per broadcast element, and a plain 2x2 matrix
for scalar angles. Every readout takes the analyzer angle: the orthogonal
(reflected) port is read at phi + pi/2, and the two ports together satisfy
the completeness relation exactly. A second click at basis - theta with
rotation -theta composes with the first to a multiple of the identity,
which reverses the measurement.

With the real (lossy, elliptical) sigma- transmittance t_minus, and the
sigma+ component passing with factor 1, the per-photon detection
probabilities are

    P(phi | up)   = cos(phi)^2
    P(phi | down) = |exp(-i phi) t_minus + exp(+i phi)|^2 / 4,

and Bayes' rule converts a prior down-population, elementwise, into the
conditional population given a click. Detection-chain efficiency multiplies
both hypotheses equally and cancels in the conditional.

The readouts take the caller's analyzer angles and return arrays; each
averages P(phi | down) over the pinned atom (g0 alone) or an ``Ensemble``'s
couplings in its probe window, as (E|t|^2 + 1 + 2 Re(E[t] exp(-2 i phi))) / 4,
and ``conditional_curves`` stacks both ports. ``optics.t_moments`` sweeps an
ensemble's ``montecarlo.coupling_blocks``, so memory does not grow with the
trajectory count.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .montecarlo import Ensemble, coupling_blocks
from .optics import t_moments
from .params import SystemParams


class MeasurementError(ValueError):
    """Raised when conditioning on an impossible outcome."""


def kraus(theta: np.ndarray | float, phi: np.ndarray | float) -> np.ndarray:
    """Kraus operator diag(cos(phi), cos(phi - theta)) for a click at phi.

    Elementwise over broadcastable theta and phi: a complex stack of shape
    (*broadcast_shape, 2, 2) in the (up, down) basis, with zero off-diagonals;
    scalar angles give one 2x2 matrix. The reflected port's operator is
    ``kraus(theta, phi + pi/2)``.
    """
    down = np.cos(np.subtract(phi, theta))
    ops = np.zeros(np.shape(down) + (2, 2), dtype=complex)
    ops[..., 0, 0], ops[..., 1, 1] = np.cos(phi), down
    return ops


def detection_prob_down(
    phi: np.ndarray | float, t_minus: np.ndarray | complex
) -> np.ndarray | float:
    """Per-photon detection probability at analyzer angle phi, spin down.

    |exp(-i phi) t_minus + exp(+i phi)|^2 / 4, vectorized over phi and,
    broadcast against it, over a complex array t_minus. Scalar inputs give
    the array element's ``np.float64`` bit for bit: numpy's SIMD complex
    products may fuse multiply-adds and its scalars square through ``pow``,
    so this product is taken in real parts and squared by ``np.square``.
    """
    phi = np.asarray(phi, dtype=float)
    t, rot = np.asarray(t_minus, dtype=complex), np.exp(-1j * phi)
    field = rot.real * t.real - rot.imag * t.imag + 1j * (rot.real * t.imag + rot.imag * t.real)
    return np.square(np.abs(field + np.exp(1j * phi))) / 4.0


def detection_prob_up(phi: np.ndarray | float) -> np.ndarray | float:
    """Spin-up detection probability cos(phi)^2, squared as in ``detection_prob_down``."""
    return np.square(np.cos(np.asarray(phi, dtype=float)))


def _bayes_posterior(p_up_click, p_down_click, prior):
    """Bayes' rule for one click, elementwise over broadcastable inputs.

    Returns (P(down | click), P(click)), with
    P(click) = P(click|up) (1 - prior) + P(click|down) prior; the posterior
    is NaN where P(click) is zero. Scalar inputs return ``np.float64``.
    Raises ValueError unless every prior lies in [0, 1] (NaN does not).
    """
    prior = np.asarray(prior, dtype=float)
    if not np.all((prior >= 0.0) & (prior <= 1.0)):
        raise ValueError("prior must lie in [0, 1]")
    click = np.asarray(p_up_click * (1.0 - prior) + p_down_click * prior)
    with np.errstate(invalid="ignore", divide="ignore"):
        posterior = np.where(click > 0.0, p_down_click * prior / click, np.nan)
    return posterior[()], click[()]


def conditional_population(
    prior: np.ndarray | float, phi: np.ndarray | float, t_minus: np.ndarray | complex
) -> tuple[np.ndarray, np.ndarray]:
    """(P(down | click), P(click)) after a click at analyzer angle phi.

    P(down | click) = P(click|down) P(down) /
                      (P(click|up) P(up) + P(click|down) P(down)),
    elementwise over broadcastable inputs; the orthogonal port is read at
    phi + pi/2. Raises MeasurementError if any element has zero P(click).
    """
    posterior, click = _bayes_posterior(
        detection_prob_up(phi), detection_prob_down(phi, t_minus), prior
    )
    if not np.all(click > 0.0):
        raise MeasurementError("cannot condition on a zero-probability outcome")
    return posterior, click


def pure_rotation_curves(
    theta: float,
    priors: Sequence[float],
    phi_grid: np.ndarray,
) -> np.ndarray:
    """Conditional population curves for an ideal rotation (Kraus model).

    Returns an array of shape (len(priors), len(phi_grid)) with
    P(down | click at phi) for a transmitted-port click, using the
    pure-rotation click probabilities cos(phi)^2 and cos(phi - theta)^2,
    both from detection_prob_up.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    prior = np.asarray(priors, dtype=float).reshape(-1, 1)
    return _bayes_posterior(
        detection_prob_up(phi_grid), detection_prob_up(phi_grid - theta), prior
    )[0]


def _averaged_posterior(
    prior: float, angle, delta, params: SystemParams, ensemble: Ensemble | None
) -> tuple[np.ndarray, np.ndarray]:
    """(P(down | click), P(click)) after one click, broadcast over angle or delta.

    P(click | down) is averaged (an intensity) over the ensemble's couplings,
    or taken at g0 for ``None``, in its moment form, mirroring how counts
    accumulate over many atoms.
    """
    blocks = [np.array([params.g0])] if ensemble is None else coupling_blocks(ensemble, params)
    m2, m1 = (m.reshape(np.shape(delta)) for m in t_moments(delta, blocks, params))
    p_down_click = (m2 + 1.0 + 2.0 * np.real(m1 * np.exp(-2j * angle))) / 4.0
    return _bayes_posterior(detection_prob_up(angle), p_down_click, prior)


def conditional_curves(
    prior: float,
    phi: np.ndarray | float,
    delta: float,
    params: SystemParams,
    ensemble: Ensemble | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(P(down | click), P(click)) at both ports, each of shape (2, *np.shape(phi)).

    Row 0 is the transmitted port at analyzer angle phi, row 1 the reflected
    port at phi + pi/2. P(phi | down) is taken at detuning ``delta``, averaged
    over the ``ensemble``'s trajectories and probe window, or at the mode
    antinode when it is omitted.
    """
    phi = np.asarray(phi, dtype=float)
    p_t, click_t = _averaged_posterior(prior, phi, delta, params, ensemble)
    p_r, click_r = _averaged_posterior(prior, phi + math.pi / 2.0, delta, params, ensemble)
    return np.stack([p_t, p_r]), np.stack([click_t, click_r])


def population_vs_detuning(
    prior: float,
    phi: float,
    delta_grid: np.ndarray,
    params: SystemParams,
    ensemble: Ensemble | None = None,
) -> np.ndarray:
    """Conditional down-population versus probe detuning at analyzer angle phi.

    The ``ensemble`` is averaged over as in ``conditional_curves``; omitted,
    the atom is pinned at the antinode. The far-detuned limit returns the
    prior: the atom decouples, both spin hypotheses give the same click
    probability, and the photon carries no information.
    """
    return _averaged_posterior(prior, phi, delta_grid, params, ensemble)[0]
