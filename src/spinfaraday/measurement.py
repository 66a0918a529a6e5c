"""Ancilla-assisted spin measurement: Kraus operators for a pure
polarization rotation, Bayesian conditional populations including
ellipticity, and the conditional-population curves.

A probe photon transmitted through the cavity and detected behind an
analyzer at angle phi updates the spin. For a spin-independent ideal
rotation by theta on the down component the update is the diagonal Kraus
operator diag(cos(phi), cos(phi - theta)), which ``kraus`` returns as a
plain 2x2 matrix, applied to the spin amplitudes by its diagonal.
Detection at the orthogonal port replaces phi with phi + pi/2, and the two
ports together satisfy the completeness relation exactly. A second click
at basis - theta with rotation -theta composes with the first to a
multiple of the identity, which reverses the measurement.

With the real (lossy, elliptical) sigma- transmittance t_minus, and the
sigma+ component passing with factor 1, the per-photon detection
probabilities are

    P(phi | up)   = cos(phi)^2
    P(phi | down) = |exp(-i phi) t_minus + exp(+i phi)|^2 / 4,

and Bayes' rule converts a prior down-population into the conditional
population given a click. Detection-chain efficiency multiplies both
hypotheses equally and cancels in the conditional.

The curve functions average P(phi | down) over the couplings of the pinned
atom (g0 alone) or of an ``Ensemble`` over its probe window, as
(E|t|^2 + 1 + 2 Re(E[t] exp(-2 i phi))) / 4. ``optics.t_moments`` sweeps an
ensemble's ``montecarlo.coupling_blocks``, so memory does not grow with the
trajectory count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .montecarlo import Ensemble, coupling_blocks
from .optics import t_moments
from .params import SystemParams

TRANSMITTED = "transmitted"
REFLECTED = "reflected"


class MeasurementError(ValueError):
    """Raised when conditioning on an impossible outcome."""


def kraus(theta: float, phi: float) -> np.ndarray:
    """Kraus operator diag(cos(phi), cos(phi - theta)) for a click at phi.

    A 2x2 complex matrix in the (up, down) basis; the reflected port's
    operator is ``kraus(theta, phi + pi/2)``.
    """
    return np.diag([math.cos(phi), math.cos(phi - theta)]).astype(complex)


def detection_prob_down(
    phi: np.ndarray | float, t_minus: np.ndarray | complex
) -> np.ndarray | float:
    """Per-photon detection probability at analyzer angle phi, spin down.

    |exp(-i phi) t_minus + exp(+i phi)|^2 / 4. Vectorized over phi and,
    broadcast against it, over a complex array t_minus; scalar inputs
    return a numpy scalar (``np.float64``, a ``float``).
    """
    phi = np.asarray(phi, dtype=float)
    return np.abs(np.exp(-1j * phi) * t_minus + np.exp(1j * phi)) ** 2 / 4.0


def detection_prob_up(phi: np.ndarray | float) -> np.ndarray | float:
    """Per-photon detection probability at angle phi for spin up: cos(phi)^2.

    A scalar phi returns a numpy scalar (``np.float64``, a ``float``).
    """
    return np.cos(np.asarray(phi, dtype=float)) ** 2


@dataclass(frozen=True)
class ConditionalResult:
    """Bayesian update after one detected probe photon."""

    p_down_given_click: float
    click_probability: float


def _port_angle(phi: float, port: str) -> float:
    if port == TRANSMITTED:
        return phi
    if port == REFLECTED:
        return phi + math.pi / 2.0
    raise ValueError(f"port must be '{TRANSMITTED}' or '{REFLECTED}', got {port!r}")


def _bayes_posterior(p_up_click, p_down_click, prior):
    """Bayes' rule for one click, elementwise over broadcastable inputs.

    Returns (P(down | click), P(click)), with
    P(click) = P(click|up) (1 - prior) + P(click|down) prior; the posterior
    is NaN where P(click) is zero. Raises ValueError unless every prior lies
    in [0, 1] (NaN does not).
    """
    prior = np.asarray(prior, dtype=float)
    if not np.all((prior >= 0.0) & (prior <= 1.0)):
        raise ValueError("prior must lie in [0, 1]")
    click = np.asarray(p_up_click * (1.0 - prior) + p_down_click * prior)
    with np.errstate(invalid="ignore", divide="ignore"):
        posterior = np.where(click > 0.0, p_down_click * prior / click, np.nan)
    return posterior, click


def conditional_population(
    p_down_prior: float,
    phi: float,
    t_minus: complex,
    port: str = TRANSMITTED,
) -> ConditionalResult:
    """Conditional down-population after a click at the given port.

    P(down | click) = P(click|down) P(down) /
                      (P(click|up) P(up) + P(click|down) P(down)).
    """
    angle = _port_angle(phi, port)
    posterior, click = _bayes_posterior(
        detection_prob_up(angle), detection_prob_down(angle, t_minus), p_down_prior
    )
    if not click > 0.0:
        raise MeasurementError("cannot condition on a zero-probability outcome")
    return ConditionalResult(
        p_down_given_click=float(posterior),
        click_probability=float(click),
    )


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
    m2, m1 = t_moments(delta, blocks, params)
    p_down_click = (m2 + 1.0 + 2.0 * np.real(m1 * np.exp(-2j * angle))) / 4.0
    return _bayes_posterior(detection_prob_up(angle), p_down_click, prior)


@dataclass(frozen=True)
class ConditionalCurves:
    """Two-port conditional-population curves over analyzer angles."""

    phi_deg: np.ndarray
    p_down_transmitted: np.ndarray
    p_down_reflected: np.ndarray
    click_prob_transmitted: np.ndarray
    click_prob_reflected: np.ndarray


def conditional_curves(
    prior: float,
    delta: float,
    params: SystemParams,
    ensemble: Ensemble | None = None,
) -> ConditionalCurves:
    """Conditional down-population versus analyzer angle for both ports.

    Analyzer angles run over 0..180 degrees in 1-degree steps. Uses the
    elliptical transmittance at detuning ``delta``, with P(phi | down)
    averaged over the ``ensemble``'s trajectories and probe window; omitted,
    the atom sits at the mode antinode.
    """
    phi_deg = np.linspace(0.0, 180.0, 181)
    phi = np.radians(phi_deg)

    p_t, click_t = _averaged_posterior(prior, phi, delta, params, ensemble)
    p_r, click_r = _averaged_posterior(prior, _port_angle(phi, REFLECTED), delta, params, ensemble)
    return ConditionalCurves(phi_deg, p_t, p_r, click_t, click_r)


def population_vs_detuning(
    prior: float,
    phi: float,
    delta_grid: np.ndarray,
    params: SystemParams,
    ensemble: Ensemble | None = None,
    port: str = TRANSMITTED,
) -> np.ndarray:
    """Conditional down-population versus probe detuning at fixed analyzer.

    The ``ensemble`` is averaged over as in ``conditional_curves``; omitted,
    the atom is pinned at the antinode. The far-detuned limit returns the
    prior: the atom decouples, both spin hypotheses give the same click
    probability, and the photon carries no information.
    """
    return _averaged_posterior(prior, _port_angle(phi, port), delta_grid, params, ensemble)[0]
