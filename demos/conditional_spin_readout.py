"""Weak measurement of the spin by single detected probe photons.

Each photon behind the rotatable analyzer updates the spin state through a
diagonal Kraus operator: the analyzer angle sets how strongly the outcome
discriminates the two spin states. At 90 degrees the transmitted port blocks
the unrotated component entirely, so one click projects the spin; a second
measurement at the mirrored angle composes to a multiple of the identity and
undoes the first one.
"""

import math

import numpy as np

from spinfaraday import (
    DEFAULT_PARAMS,
    TWO_PI,
    conditional_curves,
    conditional_population,
    kraus,
    population_vs_detuning,
    t_minus_value,
)

params = DEFAULT_PARAMS


def click(amplitudes, op):
    """Spin amplitudes (up, down) after a click, renormalized, and its probability."""
    updated = np.diagonal(op) * amplitudes
    probability = float(np.sum(np.abs(updated) ** 2))
    return updated / math.sqrt(probability), probability


state = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)

print("ideal rotation of -10 degrees, spin prepared in an equal superposition:")
theta = math.radians(-10.0)
for phi_deg in (30.0, 60.0, 85.0, 90.0):
    op = kraus(theta, math.radians(phi_deg))
    updated, prob = click(state, op)
    print("  click at phi = %5.1f deg: p(click) = %.3f, P(down) -> %.3f"
          % (phi_deg, prob, abs(updated[1]) ** 2))
print()

op = kraus(theta, math.radians(60.0))
partial, p1 = click(state, op)
reversal = kraus(theta, theta - math.radians(60.0))
restored, p2 = click(partial, reversal)
print("measurement reversal: after clicks at 60 deg and at the mirrored angle,")
print("  P(down) = %.6f (started at %.6f); success probability %.3f"
      % (abs(restored[1]) ** 2, abs(state[1]) ** 2, p1 * p2))
print()

delta = -TWO_PI * 1.1e6
t = complex(t_minus_value(delta, params.g0, params))
print("cavity transmittance at delta/2pi = -1.1 MHz: t- = %.3f%+.3fj"
      % (t.real, t.imag))
print("conditional spin populations after one click (prior 0.5):")
print(f"{'phi (deg)':>10} {'transmitted':>12} {'reflected':>10}")
for phi_deg in (45.0, 60.0, 75.0, 90.0, 105.0, 120.0, 135.0):
    pt = conditional_population(0.5, math.radians(phi_deg), t, port="transmitted")
    pr = conditional_population(0.5, math.radians(phi_deg), t, port="reflected")
    print(f"{phi_deg:10.1f} {pt.p_down_given_click:12.4f} {pr.p_down_given_click:10.4f}")
print()
print("at 90 degrees a transmitted click pins P(down) = 1 exactly; beyond 90")
print("degrees the two ports exchange roles.")

curves = conditional_curves(0.5, delta, params)
j = int(np.argmax(curves.p_down_transmitted))
print("full transmitted-port curve peaks at phi = %.0f deg with P(down) = %.4f"
      % (curves.phi_deg[j], curves.p_down_transmitted[j]))

grid = TWO_PI * 1e6 * np.linspace(-3.0, 3.0, 7)
pops = population_vs_detuning(0.5, math.radians(60.0), grid, params)
print()
print("fixing phi = 60 deg and scanning the probe detuning (transmitted port):")
for d, p in zip(grid, pops):
    print("  delta/2pi = %5.1f MHz: P(down|click) = %.4f" % (d / (TWO_PI * 1e6), p))
