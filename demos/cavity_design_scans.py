"""Cavity geometry trade-offs for maximizing the polarization rotation.

Longer cavities trade coupling against linewidth; better mirrors narrow the
cavity line at fixed coupling. Both scans rederive (waist, kappa, g0) from
geometry, anchored at the measured short cavity. There is a distinguished
mirror reflectivity at which the coupled component comes out as a pure
quarter-wave response (|t| = 1, 90 degrees of phase) so the analyzer reads
its 45-degree ceiling exactly; reaching it would let a transit CNOT between
the spin and a photon run at the full 90-degree spin splitting.
"""

import numpy as np

from spinfaraday import (
    DEFAULT_GEOMETRY,
    TWO_PI,
    cnot_feasibility,
    lossless_rotation_point,
    scan_length,
    scan_reflectivity,
)
from spinfaraday.scans import REFLECTIVITY_LIMIT

MHZ = TWO_PI * 1e6

print("anchor geometry: length %.0f um, mirror RoC %.0f mm, reflectivity %.6f"
      % (DEFAULT_GEOMETRY.length * 1e6, DEFAULT_GEOMETRY.mirror_roc * 1e3,
         DEFAULT_GEOMETRY.reflectivity))
print()

length = scan_length()
print("cavity length scan (reflectivity fixed):")
print(f"{'length (um)':>12} {'g0 (MHz)':>9} {'kappa (MHz)':>12} {'max angle (deg)':>16}")
for i in range(0, length.axis.size, 4):
    print(f"{length.axis[i]:12.0f} {length.g0_mhz[i]:9.3f} "
          f"{length.kappa_mhz[i]:12.3f} {length.max_angle_deg[i]:16.2f}")
best = int(np.argmax(length.max_angle_deg))
print("best: %.2f deg at %.2f mm" % (length.max_angle_deg[best], length.axis[best] / 1e3))
print()

reflectivity = scan_reflectivity()
print("mirror reflectivity scan (length fixed):")
print(f"{'reflectivity':>13} {'kappa (MHz)':>12} {'max angle (deg)':>16}")
for i in range(0, reflectivity.axis.size, 6):
    print(f"{reflectivity.axis[i]:13.7f} {reflectivity.kappa_mhz[i]:12.3f} "
          f"{reflectivity.max_angle_deg[i]:16.2f}")
print()

point = lossless_rotation_point()
print("lossless quarter-wave point: kappa/2pi = %.3f MHz at reflectivity %.7f,"
      % (point.kappa / MHZ, point.reflectivity))
print("probe detuning %.3f MHz; the estimator reads 45 degrees exactly there."
      % (point.delta / MHZ))
print()

report = cnot_feasibility()
print("transit-CNOT budget with mirrors up to %.6f:" % REFLECTIVITY_LIMIT)
print("  best single-spin rotation %.2f deg at reflectivity %.7f"
      % (report.best_angle_deg, report.best_reflectivity))
print("  spin-state splitting %.1f deg (need 45 deg per spin): %s"
      % (2.0 * report.best_angle_deg, "feasible" if report.feasible else "not feasible"))
print("  at the reflectivity limit itself: %.2f deg" % report.angle_at_limit_deg)
