"""Closed-form Gaussian checks for the matter-wave and optics propagators.

A free Gaussian packet, a harmonic coherent state, and a single Gaussian
slit all have exact solutions; this script propagates each numerically and
prints the deviation from the closed form.
"""

import numpy as np

from qstream import (GridSpec, PropagatorConfig, analytic_gaussian_oracle,
                     fresnel_propagate, gaussian_packet, propagate)
from qstream.optics import gaussian_beam_intensity
from qstream.scenarios import builtin_scenario

# free Gaussian spreading
grid = GridSpec(-20.0, 20.0, 1024)
cfg = PropagatorConfig(dt=1e-3)
run = propagate(gaussian_packet(grid, 1.0), cfg, 4.0, snapshot_every=500)
snap = run.snapshots[-1]
oracle = analytic_gaussian_oracle({"sigma0": 1.0, "grid": grid}, cfg, snap.time)
print(f"free Gaussian, t = {snap.time}: "
      f"max |psi - oracle| = {np.max(np.abs(snap.values - oracle.values)):.2e}")

# harmonic coherent state over one period
from qstream import PotentialSpec
omega0 = 1.0
cfg = PropagatorConfig(potential=PotentialSpec("harmonic", omega0=omega0), dt=5e-4)
grid = GridSpec(-8.0, 8.0, 512)
sigma = np.sqrt(0.5 / omega0)
period = round(2 * np.pi / omega0 / cfg.dt) * cfg.dt  # whole steps of dt
run = propagate(gaussian_packet(grid, sigma, x0=1.0), cfg, period,
                snapshot_every=500)
snap = run.snapshots[-1]
oracle = analytic_gaussian_oracle({"sigma0": sigma, "x0": 1.0, "grid": grid},
                                  cfg, snap.time)
print(f"coherent state, one period: "
      f"max |psi - oracle| = {np.max(np.abs(snap.values - oracle.values)):.2e}")

# Gaussian-slit beam vs closed-form intensity
sc = builtin_scenario("oracle-gaussian-beam")
devs = []


def beam_deviation(i, z, psi, psi_x, psi_z):
    ref = gaussian_beam_intensity(sc.scene.slits[0], sc.scene.transverse_grid.x,
                                  z, sc.scene.k)
    devs.append(float(np.max(np.abs(np.abs(psi) ** 2 - ref)) / ref.max()))


fresnel_propagate(sc.scene, source_dx=sc.source_dx,
                  consumers=(beam_deviation,))
dev = max(devs)
print(f"Gaussian slit beam, {len(sc.scene.z_planes)} planes: "
      f"max relative intensity deviation = {dev:.2e}")
