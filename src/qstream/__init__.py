"""Quantum-hydrodynamic wavepacket propagation, Bohmian trajectory
ensembles, and electromagnetic energy streamlines."""

from .fields import (ComplexField, GridSpec, PolarFields, VelocityField,
                     gaussian_packet, norm, polar_decompose,
                     probability_current, quantum_potential, velocity_field)
from .propagators import (PotentialSpec, PropagatorConfig,
                          analytic_gaussian_oracle, damped_oscillator,
                          propagate, step)
from .trajectories import (InitialEnsemble, TrajectoryBundle,
                           check_non_crossing, integrate_bundle,
                           sample_initial_positions, tube_probability)
from .optics import (OpticalScene, SlitSpec, fresnel_propagate,
                     photon_path_bundle, transverse_momentum)

__version__ = "0.1.0"
