"""Excitation lineshapes of a trapped-and-probed atom versus drive power.

The atom is driven from the side while the scattered rate (cavity leakage
plus free-space emission) is recorded against drive detuning. Averaging over
random atom positions in the mode mixes strongly and weakly coupled
responses; saturation broadens the line as power rises, while at vanishing
power the width settles to a Purcell-limited floor set by the most weakly
coupled bright positions.
"""

import numpy as np

from spinfaraday import (
    DEFAULT_PARAMS,
    TWO_PI,
    curve_fwhm,
    fluorescence_lineshape,
    lineshape_sites,
)

MHZ = TWO_PI * 1e6
params = DEFAULT_PARAMS
grid = MHZ * np.linspace(-8.0, 8.0, 161)
sites = lineshape_sites(params, 200, 7, 24e-6)  # one draw of sites for every power

print("atomic linewidth gamma/2pi = %.0f kHz" % (params.gamma / (TWO_PI * 1e3)))
print()
print("position-averaged lineshape widths (200 sampled positions):")
print(f"{'relative power':>15} {'FWHM (MHz)':>12} {'FWHM/gamma':>12}")
for label, scale in (("1/30000", 1.0 / 30000.0), ("1/3000", 1.0 / 3000.0),
                     ("1/300", 1.0 / 300.0), ("100/300", 100.0 / 300.0),
                     ("1", 1.0)):
    shape = fluorescence_lineshape(params, scale, grid, *sites)
    fwhm = curve_fwhm(grid, shape.normalized)
    print(f"{label:>15} {fwhm / MHZ:12.3f} {fwhm / params.gamma:12.1f}")
print()

# The pinned atom is one site: full coupling, at the excitation beam's center.
pinned = fluorescence_lineshape(params, 1.0 / 300.0, grid, [params.g0], [1.0])
fwhm = curve_fwhm(grid, pinned.normalized)
print("an atom pinned at the antinode instead shows the vacuum-Rabi-broadened")
print("width %.2f MHz at every power (coupling, not saturation, sets it)." % (fwhm / MHZ))
