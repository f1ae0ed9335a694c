"""Photon paths through a two-slit interference field.

Propagates a symmetric two-slit scene (943 nm, slit centers +/-2.35 mm),
assembles the electromagnetic energy flow, and integrates paths along the
Poynting direction. Paths from the two slits never cross the symmetry
axis, and the fraction of paths ending inside the central bright fringe
matches that fringe's share of the energy density.
"""

import numpy as np

from qstream import (GridSpec, OpticalScene, SlitSpec, fresnel_propagate,
                     photon_path_bundle)
from qstream.optics import PoyntingField
from qstream.scenarios import _launch_positions

MM = 1e-3
scene = OpticalScene((SlitSpec(0.3 * MM, 2.35 * MM),
                      SlitSpec(0.3 * MM, -2.35 * MM)), 943e-9,
                     GridSpec(-10 * MM, 10 * MM, 1601),
                     tuple(np.linspace(0.5, 8.0, 31)))
field = PoyntingField(scene)
fresnel_propagate(scene, source_dx=8e-6, consumers=(field.add_plane,))

x0s = _launch_positions(scene, 40)
paths = photon_path_bundle(x0s, 0.5, field, ds=0.05)
print(f"40 paths launched at z = 0.5 m; "
      f"all reach z = 8 m: {all(p.z[-1] >= 8.0 for p in paths)}")

xg = scene.transverse_grid.x
U8 = field.U[-1]
# strict interior minima of U8
inner = U8[1:-1]
minima = xg[np.flatnonzero((inner < U8[:-2]) & (inner < U8[2:])) + 1]
lo = max(v for v in minima if v < 0)
hi = min(v for v in minima if v > 0)
ends = np.array([np.interp(8.0, p.z, p.x) for p in paths])
frac = float(np.mean((ends > lo) & (ends < hi)))
weight = float(np.trapezoid(U8[(xg > lo) & (xg < hi)], dx=scene.transverse_grid.dx)
               / np.trapezoid(U8, dx=scene.transverse_grid.dx))
print(f"central fringe [{lo * 1e3:.2f}, {hi * 1e3:.2f}] mm: "
      f"path fraction {frac:.3f} vs energy weight {weight:.3f}")
print(f"no path crosses the symmetry axis: "
      f"{all(bool(np.all(p.x > 0)) or bool(np.all(p.x < 0)) for p in paths)}")
