"""Quantum-hydrodynamic wavepacket propagation, Bohmian trajectory
ensembles, and electromagnetic energy streamlines."""

from .fields import (ComplexField, GridSpec, PhysicalConstants, PolarFields,
                     VelocityField, expectation_energy, gaussian_packet, norm,
                     polar_compose, polar_decompose, probability_current,
                     quantum_potential, velocity_field)
from .propagators import (ClassicalCKState, PotentialSpec, PropagatorConfig,
                          analytic_gaussian_oracle, classical_ck_trajectory,
                          propagate, step)
from .trajectories import (InitialEnsemble, Trajectory, TrajectoryBundle,
                           check_non_crossing, integrate_bundle,
                           integrate_trajectory, sample_initial_positions,
                           tube_probability)
from .optics import (OpticalScene, SlitSpec, fresnel_propagate,
                     initial_two_slit_field, photon_path, photon_path_bundle,
                     transverse_momentum)

__version__ = "0.1.0"
