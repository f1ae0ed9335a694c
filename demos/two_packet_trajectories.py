"""Bohmian trajectories for a two-packet superposition.

Two free Gaussian packets spread into each other; the guidance velocity
field keeps trajectories on their own side of the symmetry axis (the
non-crossing property) while probability tubes between adjacent
trajectories conserve their content exactly.
"""

import math

import numpy as np

from qstream import (ComplexField, GridSpec, PropagatorConfig,
                     check_non_crossing, gaussian_packet, integrate_bundle,
                     propagate, sample_initial_positions, tube_probability)
from qstream.fields import norm

grid = GridSpec(-30.0, 30.0, 2048)
vals = (gaussian_packet(grid, 0.5, x0=-5.0).values
        + gaussian_packet(grid, 0.5, x0=5.0).values)
psi = ComplexField(grid, vals)
psi = ComplexField(grid, vals / math.sqrt(norm(psi)))

run = propagate(psi, PropagatorConfig(dt=2e-3), 5.0, snapshot_every=5)
rho0 = np.abs(run.snapshots[0].values) ** 2
ensemble = sample_initial_positions(rho0, grid, 24)
bundle = integrate_bundle(ensemble, run, dt_traj=0.01)

rep = check_non_crossing(bundle)
print(f"24 trajectories over t in [0, 5]")
print(f"non-crossing: {rep.ok}, minimum gap between neighbors = {rep.min_gap:.4f}")

tubes = tube_probability(bundle, run)
for i in (0, 11, 22):
    tube = tubes[i]
    print(f"tube [{i},{i + 1}]: content {tube[0]:.4f}, "
          f"max drift {np.max(np.abs(tube - tube[0])):.2e}")

left = bundle.xs[:12]
print(f"left-packet trajectories stay left of the axis: {bool(np.all(left < 0))}")
