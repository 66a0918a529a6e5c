"""Rotation curves averaged over falling-atom trajectories.

Atoms dropped through the cavity sample many couplings during the probe
window. Averaging the transmitted intensities over a selected ensemble
washes out part of the dispersive rotation: the ensemble peak is roughly
half the pinned-atom peak and the resonant transmittance rises because
weakly coupled stretches leak probe light.
"""

import numpy as np

from spinfaraday import (
    DEFAULT_PARAMS,
    TWO_PI,
    MotionModel,
    average_rotation,
    average_transmittance,
    rotation_curve,
    t_minus_value,
    threshold_trajectories,
)

MHZ = TWO_PI * 1e6
params = DEFAULT_PARAMS

motion = MotionModel(seed=12345)
trajectories = threshold_trajectories(motion, params, 3000)
print("selected %d trajectories with |g(r0)| >= 0.9 g0;" % len(trajectories))
print("during the %.0f us window each atom falls %.1f um and samples many"
      % (motion.window * 1e6, motion.v_fall * motion.window * 1e6))
print("standing-wave periods of the coupling.")
print()

grid = MHZ * np.linspace(-3.0, 3.0, 13)
averaged_t = average_transmittance(trajectories, grid, params)
pinned_t = np.abs(t_minus_value(grid, params.g0, params))
averaged_angle = np.degrees(average_rotation(trajectories, grid, params))
pinned_angle = np.degrees(rotation_curve(grid, params.g0, params))

print(f"{'delta/2pi (MHz)':>16} {'|t| avg':>8} {'|t| pinned':>11} "
      f"{'angle avg':>10} {'angle pinned':>13}")
for i, d in enumerate(grid):
    print(f"{d / MHZ:16.2f} {averaged_t[i]:8.3f} {pinned_t[i]:11.3f} "
          f"{averaged_angle[i]:10.2f} {pinned_angle[i]:13.2f}")
print()

# Both angles are odd in the detuning, so |angle| peaks twice, at mirror
# images; the peaks are taken on the negative branch, as max_rotation does.
dense = MHZ * np.linspace(-3.0, 0.0, 61)
avg = np.degrees(average_rotation(trajectories, dense, params))
pin = np.degrees(rotation_curve(dense, params.g0, params))
i = int(np.argmax(np.abs(avg)))
print("ensemble peak %.2f deg at %.2f MHz; pinned peak %.2f deg; ratio %.2f"
      % (avg[i], dense[i] / MHZ, pin[np.argmax(np.abs(pin))],
         abs(avg[i]) / np.max(np.abs(pin))))
