"""Nonlinear (Kostin) friction relaxing a displaced coherent state.

Unlike the Caldirola-Kanai model, the nonlinear friction model leaves the
ground state invariant and damps a displaced packet toward it: the centroid
follows the classical damped oscillator and the energy settles at the
zero-point value instead of falling through it.
"""

import numpy as np

from qstream import damped_oscillator, propagate
from qstream.scenarios import builtin_scenario, initial_state, propagator_config

sc = builtin_scenario("kostin-relaxation")
run = propagate(initial_state(sc), propagator_config(sc), sc.t_final,
                snapshot_every=100, consumers=())

omega0 = 2 * np.pi / 10.0
gamma = sc.gamma
classical, _ = damped_oscillator(run.x_means[0], 0.0, omega0, gamma,
                                 run.times)

print(f"gamma = {gamma:.4f}, t_final = {sc.t_final}")
print(f"centroid vs classical damped oscillator: "
      f"max dev = {np.max(np.abs(run.x_means - classical)):.2e}")
print(f"energy: {run.energies[0]:.4f} -> {run.energies[-1]:.6f} "
      f"(zero-point value {0.5 * omega0:.6f})")
print(f"width:  {run.sigmas[0]:.4f} -> {run.sigmas[-1]:.4f} "
      f"(coherent width preserved, no collapse)")
