"""Damped harmonic oscillator under the Caldirola-Kanai model.

Runs the three friction regimes (underdamped, critical, overdamped) and
prints how the packet width collapses and the energy falls below the
zero-point value hbar*omega0/2 -- the model's signature pathology.
"""

import numpy as np

from qstream import propagate
from qstream.scenarios import builtin_scenario, initial_state, propagator_config

for name in ("fig2a", "fig2b", "fig2c"):
    sc = builtin_scenario(name)
    run = propagate(initial_state(sc), propagator_config(sc), sc.t_final,
                    snapshot_every=50, consumers=())
    omega0 = 2 * np.pi / 10.0
    zero_point = 0.5 * omega0
    below = run.times[np.argmax(run.energies < zero_point)]
    print(f"{name}: gamma = {sc.gamma:.4f}")
    print(f"  width   {run.sigmas[0]:.4f} -> {run.sigmas[-1]:.4f} "
          f"(monotone collapse after the transient)")
    print(f"  energy  {run.energies[0]:.4f} -> {run.energies[-1]:.4f}; "
          f"drops below the zero-point value {zero_point:.4f} at t = {below:.1f}")
