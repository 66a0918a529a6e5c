"""Heralding well-coupled atoms by photon coincidences.

Atoms scattered randomly over the drop region mostly couple weakly. Waiting
for two detected photons within a short window before starting the probe
selects bright, well-coupled atoms, because the click rate scales with the
local coupling squared. Raising the detector's saturated click-rate ceiling
paradoxically weakens the selection: coincidences then become easy even at
mediocre couplings.
"""

import numpy as np

from spinfaraday import (
    DEFAULT_PARAMS,
    MotionModel,
    coupling_grid,
    sample_selected_trajectories,
)

params = DEFAULT_PARAMS

# The sampler's defaults: the click-rate ceiling (1/s) and the coincidence window (s).
rate_max, window_s = 7.6e5, 600.0 * 1e-9
analytic = 1.0 - np.exp(-rate_max * window_s)
# Exponential gaps between clicks at a constant rate, as the selection draws them.
gaps = np.random.default_rng(0).exponential(1.0 / rate_max, size=100_000)
simulated = float(np.mean(gaps <= window_s))
print("per-gap coincidence probability at the maximum click rate:")
print("  simulated %.4f vs analytic 1 - exp(-r*w) = %.4f" % (simulated, analytic))
print()

motion = MotionModel(seed=2025)
trajectories = sample_selected_trajectories(motion, params, 2000)
mean_g = float(np.mean(np.abs(coupling_grid(*trajectories.r0.T, params))) / params.g0)
print("coincidence-selected ensemble of %d atoms: mean |g(r0)|/g0 = %.3f"
      % (len(trajectories), mean_g))

r0 = trajectories.r0
radii = np.hypot(r0[:, 0], r0[:, 2])
print("  radial spread of selected start points: median %.1f um (waist %.1f um)"
      % (np.median(radii) * 1e6, params.waist * 1e6))
print()

print("selection strength versus the click-rate ceiling:")
print(f"{'rate ceiling (1/s)':>19} {'mean g(r0)^2/g0^2':>18}")
for factor in (0.5, 1.0, 2.0, 4.0):
    ceiling = rate_max * factor
    trajs = sample_selected_trajectories(
        MotionModel(seed=2025), params, 1000, rate_max=ceiling
    )
    g_sq = np.mean((coupling_grid(*trajs.r0.T, params) / params.g0) ** 2)
    print(f"{ceiling:19.2g} {g_sq:18.3f}")
print()
print("brighter detectors admit dimmer atoms: the coincidence hurdle is the")
print("selection mechanism, so easing it relaxes the coupling cut.")
