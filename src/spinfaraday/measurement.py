"""Ancilla-assisted spin measurement: Kraus operators for a pure
polarization rotation, Bayesian conditional populations including
ellipticity, stochastic reversal, and the conditional-population curves.

A probe photon transmitted through the cavity and detected behind an
analyzer at angle phi updates the spin. For a spin-independent ideal
rotation by theta on the down component the update is the diagonal Kraus
operator diag(cos(phi), cos(phi - theta)); detection at the orthogonal port
replaces phi with phi + pi/2, and the two ports together satisfy the
completeness relation exactly.

With the real (lossy, elliptical) transmittance the per-photon detection
probabilities are

    P(phi | up)   = cos(phi)^2
    P(phi | down) = |exp(-i phi) t_minus + exp(+i phi) t_plus|^2 / 4,

and Bayes' rule converts a prior down-population into the conditional
population given a click. Detection-chain efficiency multiplies both
hypotheses equally and cancels in the conditional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .montecarlo import coupling_matrix, threshold_trajectories
from .optics import Transmittance, t_minus_value
from .params import SystemParams

TRANSMITTED = "transmitted"
REFLECTED = "reflected"


class MeasurementError(ValueError):
    """Raised when conditioning on an impossible outcome."""


@dataclass(frozen=True)
class SpinState:
    """Qubit state over (up, down), pure amplitudes or classical mixture."""

    p_up: float
    p_down: float
    amp_up: complex | None = None
    amp_down: complex | None = None

    @staticmethod
    def pure(amp_up: complex, amp_down: complex) -> "SpinState":
        norm_sq = abs(amp_up) ** 2 + abs(amp_down) ** 2
        if norm_sq <= 0.0:
            raise ValueError("pure state must have nonzero norm")
        scale = 1.0 / math.sqrt(norm_sq)
        au = complex(amp_up) * scale
        ad = complex(amp_down) * scale
        return SpinState(p_up=abs(au) ** 2, p_down=abs(ad) ** 2, amp_up=au, amp_down=ad)

    @staticmethod
    def mixed(p_up: float, p_down: float) -> "SpinState":
        total = p_up + p_down
        if p_up < 0.0 or p_down < 0.0 or total <= 0.0:
            raise ValueError("populations must be non-negative with positive sum")
        return SpinState(p_up=p_up / total, p_down=p_down / total)

    @property
    def is_pure(self) -> bool:
        return self.amp_up is not None


@dataclass(frozen=True)
class MeasurementOperator:
    """Diagonal Kraus operator for a click behind the analyzer."""

    rotation: float     # rad, polarization rotation for the down state
    basis_angle: float  # rad, analyzer angle
    matrix: np.ndarray  # 2x2 complex, diagonal in (up, down)

    def partner(self) -> "MeasurementOperator":
        """Operator of the orthogonal analyzer port (basis angle + 90 deg)."""
        return kraus(self.rotation, self.basis_angle + math.pi / 2.0)


def kraus(theta: float, phi: float) -> MeasurementOperator:
    """Kraus operator diag(cos(phi), cos(phi - theta)) for a click at phi."""
    matrix = np.array(
        [[math.cos(phi), 0.0], [0.0, math.cos(phi - theta)]], dtype=complex
    )
    return MeasurementOperator(rotation=theta, basis_angle=phi, matrix=matrix)


def apply_measurement(
    state: SpinState, op: MeasurementOperator
) -> tuple[SpinState, float]:
    """Post-measurement state and click probability for one detected photon.

    Pure states update as M|psi> / ||M|psi>||; classical mixtures update
    their populations with the diagonal weights. Conditioning on a
    zero-probability outcome raises MeasurementError.
    """
    m_up = op.matrix[0, 0]
    m_down = op.matrix[1, 1]
    if state.is_pure:
        new_up = m_up * state.amp_up
        new_down = m_down * state.amp_down
        probability = abs(new_up) ** 2 + abs(new_down) ** 2
        if probability <= 0.0:
            raise MeasurementError("cannot condition on a zero-probability outcome")
        return SpinState.pure(new_up, new_down), float(probability)

    w_up = abs(m_up) ** 2 * state.p_up
    w_down = abs(m_down) ** 2 * state.p_down
    probability = w_up + w_down
    if probability <= 0.0:
        raise MeasurementError("cannot condition on a zero-probability outcome")
    return SpinState.mixed(w_up / probability, w_down / probability), float(probability)


def detection_prob_down(phi: np.ndarray | float, t: Transmittance) -> np.ndarray | float:
    """Per-photon detection probability at analyzer angle phi, spin down.

    |exp(-i phi) t_minus + exp(+i phi) t_plus|^2 / 4. Vectorized over phi.
    """
    phi_arr = np.asarray(phi, dtype=float)
    value = (
        np.abs(
            np.exp(-1j * phi_arr) * t.t_minus + np.exp(1j * phi_arr) * t.t_plus
        )
        ** 2
        / 4.0
    )
    if value.ndim == 0:
        return float(value)
    return value


def detection_prob_up(phi: np.ndarray | float) -> np.ndarray | float:
    """Per-photon detection probability at angle phi for spin up: cos(phi)^2."""
    value = np.cos(np.asarray(phi, dtype=float)) ** 2
    if value.ndim == 0:
        return float(value)
    return value


@dataclass(frozen=True)
class ConditionalResult:
    """Bayesian update after one detected probe photon."""

    p_down_given_click: float
    click_probability: float
    port: str


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
    is NaN where P(click) is zero.
    """
    click = np.asarray(p_up_click * (1.0 - prior) + p_down_click * prior)
    with np.errstate(invalid="ignore", divide="ignore"):
        posterior = np.where(click > 0.0, p_down_click * prior / click, np.nan)
    return posterior, click


def conditional_population(
    p_down_prior: float,
    phi: float,
    t: Transmittance,
    port: str = TRANSMITTED,
) -> ConditionalResult:
    """Conditional down-population after a click at the given port.

    P(down | click) = P(click|down) P(down) /
                      (P(click|up) P(up) + P(click|down) P(down)).
    """
    if not (0.0 <= p_down_prior <= 1.0):
        raise ValueError("prior must lie in [0, 1]")
    angle = _port_angle(phi, port)
    posterior, click = _bayes_posterior(
        detection_prob_up(angle), detection_prob_down(angle, t), p_down_prior
    )
    if not click > 0.0:
        raise MeasurementError("cannot condition on a zero-probability outcome")
    return ConditionalResult(
        p_down_given_click=float(posterior),
        click_probability=float(click),
        port=port,
    )


def pure_rotation_curves(
    theta: float,
    priors: Sequence[float],
    phi_grid: np.ndarray,
) -> np.ndarray:
    """Conditional population curves for an ideal rotation (Kraus model).

    Returns an array of shape (len(priors), len(phi_grid)) with
    P(down | click at phi) for a transmitted-port click, using the
    pure-rotation click probabilities cos(phi)^2 and cos(phi - theta)^2.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    p_up_click = np.cos(phi_grid) ** 2
    p_down_click = np.cos(phi_grid - theta) ** 2
    prior = np.asarray(priors, dtype=float).reshape(-1, 1)
    return _bayes_posterior(p_up_click, p_down_click, prior)[0]


def _motion_couplings(params: SystemParams, motion, n_samples: int) -> np.ndarray:
    """g(r(t)) over a threshold-selected ensemble and its probe window, flat."""
    trajectories = threshold_trajectories(motion, params, n_samples)
    return coupling_matrix(trajectories, params).reshape(-1)


def _averaged_detection_prob_down(
    phi_grid: np.ndarray, delta: float, g_series: np.ndarray, params: SystemParams
) -> np.ndarray:
    """P(phi | down) averaged over coupling samples, per analyzer angle.

    Averages the per-photon detection probability (an intensity) over a
    selected-atom ensemble and the probe window, mirroring how counts
    accumulate over many atoms.
    """
    t_series = t_minus_value(delta, g_series, params)
    phase = np.exp(-1j * phi_grid)
    # Mean over samples of |e^{-i phi} t + e^{+i phi}|^2 / 4.
    values = (
        np.abs(phase[:, None] * t_series[None, :] + np.conj(phase)[:, None]) ** 2 / 4.0
    )
    return values.mean(axis=1)


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
    motion=None,
    *,
    phi_grid_deg: np.ndarray | None = None,
    n_samples: int = 2000,
) -> ConditionalCurves:
    """Conditional down-population versus analyzer angle for both ports.

    Uses the elliptical transmittance at detuning ``delta``. With ``motion``
    given (a montecarlo.MotionModel), P(phi | down) is averaged over a
    selected-trajectory ensemble over the probe window; otherwise the atom
    sits at the mode antinode.
    """
    if not (0.0 <= prior <= 1.0):
        raise ValueError("prior must lie in [0, 1]")
    if phi_grid_deg is None:
        phi_grid_deg = np.linspace(0.0, 180.0, 181)
    phi = np.radians(np.asarray(phi_grid_deg, dtype=float))
    angles = {TRANSMITTED: phi, REFLECTED: phi + math.pi / 2.0}

    g_series = None if motion is None else _motion_couplings(params, motion, n_samples)
    results: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for port, port_phi in angles.items():
        if g_series is None:
            t = Transmittance(t_minus=complex(t_minus_value(delta, params.g0, params)))
            p_down_click = np.asarray(detection_prob_down(port_phi, t))
        else:
            p_down_click = _averaged_detection_prob_down(port_phi, delta, g_series, params)
        results[port] = _bayes_posterior(np.cos(port_phi) ** 2, p_down_click, prior)

    return ConditionalCurves(
        phi_deg=np.asarray(phi_grid_deg, dtype=float),
        p_down_transmitted=results[TRANSMITTED][0],
        p_down_reflected=results[REFLECTED][0],
        click_prob_transmitted=results[TRANSMITTED][1],
        click_prob_reflected=results[REFLECTED][1],
    )


def population_vs_detuning(
    prior: float,
    phi: float,
    delta_grid: np.ndarray,
    params: SystemParams,
    motion=None,
    port: str = TRANSMITTED,
    *,
    n_samples: int = 2000,
) -> np.ndarray:
    """Conditional down-population versus probe detuning at fixed analyzer.

    The far-detuned limit returns the prior: the atom decouples, both spin
    hypotheses give the same click probability, and the photon carries no
    information.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    out = np.empty(delta_grid.size, dtype=float)
    angle = _port_angle(phi, port)
    if motion is None:
        for i, delta in enumerate(delta_grid):
            t = Transmittance(t_minus=complex(t_minus_value(delta, params.g0, params)))
            result = conditional_population(prior, phi, t, port)
            out[i] = result.p_down_given_click
        return out

    g_series = _motion_couplings(params, motion, n_samples)
    p_up_click = math.cos(angle) ** 2
    for i, delta in enumerate(delta_grid):
        p_down_click = _averaged_detection_prob_down(np.array([angle]), delta, g_series, params)
        out[i] = _bayes_posterior(p_up_click, p_down_click[0], prior)[0]
    return out
