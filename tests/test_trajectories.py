"""Quantile sampling, RK4 trajectory integration, non-crossing, and
probability-tube diagnostics."""

import math

import numpy as np
import pytest

from qstream import (ComplexField, GridSpec, InitialEnsemble,
                     PhysicalConstants, PotentialSpec, PropagatorConfig,
                     TrajectoryBundle, check_non_crossing, gaussian_packet,
                     integrate_bundle, integrate_trajectory, propagate,
                     sample_initial_positions, tube_probability)
from qstream.errors import LeftDomain, NodeEncounter, ZeroDensity
from qstream.propagators import PropagationRun, rate_factor
from qstream.trajectories import (VelocitySampler, _march, time_mesh,
                                  write_bundle)

from conftest import max_abs, sym_grid

C = PhysicalConstants()


def make_run(snapshots, config):
    """PropagationRun wrapper around an explicit snapshot list."""
    t = np.array([s.time for s in snapshots])
    z = np.zeros_like(t)
    return PropagationRun(config, list(snapshots), t, z, z, z, z)


def plane_wave_run(k=2.0, t_final=3.0, n_snaps=31):
    """Exact FFT-mode plane wave drifting at v = k: analytic snapshots."""
    n = 512
    grid = GridSpec(0.0, 4 * np.pi * (n - 1) / n, n)
    cfg = PropagatorConfig(dt=1e-2)
    snaps = [ComplexField(grid,
                          np.exp(1j * (k * grid.x - 0.5 * k ** 2 * t)),
                          time=t)
             for t in np.linspace(0.0, t_final, n_snaps)]
    return make_run(snaps, cfg)


# initial ensembles ---------------------------------------------------------

class TestSampling:
    def test_uniform_density_quantile_midpoints(self):
        g = GridSpec(0.0, 1.0, 101)
        ens = sample_initial_positions(np.ones(101), g, 4)
        assert np.allclose(ens.positions, [0.125, 0.375, 0.625, 0.875],
                           atol=1e-12)

    def test_gaussian_two_point_quartiles(self):
        g = sym_grid(10, 4001)
        rho = np.exp(-g.x ** 2 / 2) / math.sqrt(2 * np.pi)
        ens = sample_initial_positions(rho, g, 2)
        assert np.allclose(ens.positions, [-0.67449, 0.67449], atol=1e-3)

    def test_symmetric_superposition_symmetric_ensemble(self):
        g = sym_grid(8, 4001)
        rho = (np.exp(-(g.x - 3) ** 2 * 2) + np.exp(-(g.x + 3) ** 2 * 2))
        ens = sample_initial_positions(rho, g, 8)
        assert max_abs(ens.positions + ens.positions[::-1]) < 1e-10

    def test_equal_spacing_scheme(self):
        g = sym_grid(10, 2001)
        rho = np.where(np.abs(g.x) <= 2, 1.0, 0.0)
        ens = sample_initial_positions(rho, g, 5, scheme="equal_spacing")
        assert np.allclose(ens.positions, np.linspace(-2, 2, 5))

    def test_zero_density_rejected(self):
        g = sym_grid(1, 64)
        with pytest.raises(ZeroDensity):
            sample_initial_positions(np.zeros(64), g, 4)

    def test_minimum_count(self):
        g = sym_grid(1, 64)
        with pytest.raises(ValueError):
            sample_initial_positions(np.ones(64), g, 1)

    def test_unknown_scheme(self):
        g = sym_grid(1, 64)
        with pytest.raises(ValueError):
            sample_initial_positions(np.ones(64), g, 4, scheme="random")

    def test_ensemble_ordering_enforced(self):
        with pytest.raises(ValueError):
            InitialEnsemble(np.array([0.0, 0.0, 1.0]))


# single trajectories -------------------------------------------------------

class TestIntegrateTrajectory:
    def test_plane_wave_advection(self):
        run = plane_wave_run()
        sampler = VelocitySampler(run, method="spectral")
        traj = integrate_trajectory(1.0, sampler, (0.0, 3.0), dt_traj=0.01)
        assert abs(traj.x[-1] - 7.0) < 1e-10

    def test_stationary_state_static_trajectory(self):
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(potential=PotentialSpec("harmonic",
                                                       omega0=1.0), dt=1e-3)
        run = propagate(gaussian_packet(g, C, math.sqrt(0.5)), cfg, 1.0,
                        snapshot_every=100)
        traj = integrate_trajectory(0.5, VelocitySampler(run), (0.0, 1.0),
                                    dt_traj=0.01)
        assert max_abs(traj.x - 0.5) < 1e-7

    def test_free_gaussian_scaling_law(self):
        g = sym_grid(12, 1024)
        run = propagate(gaussian_packet(g, C, 1.0),
                        PropagatorConfig(dt=1e-3), 2.0, snapshot_every=2)
        traj = integrate_trajectory(1.0, VelocitySampler(run), (0.0, 2.0),
                                    dt_traj=0.01)
        expect = np.sqrt(1.0 + (traj.t / 2.0) ** 2)
        assert max_abs(traj.x - expect) < 1e-5

    def test_start_outside_grid_rejected(self):
        run = plane_wave_run()
        with pytest.raises(LeftDomain):
            integrate_trajectory(-5.0, VelocitySampler(run), (0.0, 1.0),
                                 dt_traj=0.01)


class TestCoherentBundle:
    def test_all_trajectories_share_center_motion(self):
        # displaced coherent state: x_i(t) = x_i(0) + cos(t) - 1
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(potential=PotentialSpec("harmonic",
                                                       omega0=1.0), dt=5e-4)
        run = propagate(gaussian_packet(g, C, math.sqrt(0.5), x0=1.0), cfg,
                        round(2 * math.pi / cfg.dt) * cfg.dt, snapshot_every=4)
        rho0 = np.abs(run.snapshots[0].values) ** 2
        ens = sample_initial_positions(rho0, g, 8)
        bundle = integrate_bundle(ens, run, dt_traj=0.01)
        expect = bundle.xs[:, :1] + (np.cos(bundle.times) - 1.0)[None, :]
        assert max_abs(bundle.xs - expect) < 1e-5


class TestOrderOfAccuracy:
    def test_endpoint_error_scales_fourth_order(self):
        g = sym_grid(12, 1024)
        run = propagate(gaussian_packet(g, C, 1.0),
                        PropagatorConfig(dt=1e-3), 2.0, snapshot_every=40)
        sampler = VelocitySampler(run)
        ends = {}
        for dt_traj in (0.04, 0.01, 0.0025):
            ends[dt_traj] = integrate_trajectory(1.0, sampler, (0.0, 2.0),
                                                 dt_traj).x[-1]
        e_coarse = abs(ends[0.04] - ends[0.0025])
        e_fine = abs(ends[0.01] - ends[0.0025])
        assert e_coarse / e_fine > 50.0


# velocity sampling ---------------------------------------------------------

def _reference_space(sampler, i_snap, xq):
    """v and ok at xq on one snapshot, as the sampler computed them before
    both snapshots shared one stencil."""
    g = sampler.grid
    v, ok = sampler.v[i_snap], sampler.ok[i_snap]
    s = (xq - g.x_min) / g.dx
    j = np.clip(np.floor(s).astype(int), 0, g.n_points - 2)
    f = s - j
    jm = np.clip(j - 1, 0, g.n_points - 1)
    j2 = np.clip(j + 2, 0, g.n_points - 1)
    cubic_ok = (ok[jm] & ok[j] & ok[j + 1] & ok[j2]
                & (j - 1 >= 0) & (j + 2 <= g.n_points - 1))
    w = (-f * (f - 1) * (f - 2) / 6.0, (f + 1) * (f - 1) * (f - 2) / 2.0,
         -(f + 1) * f * (f - 2) / 2.0, (f + 1) * f * (f - 1) / 6.0)
    cubic = w[0] * v[jm] + w[1] * v[j] + w[2] * v[j + 1] + w[3] * v[j2]
    linear = (1 - f) * v[j] + f * v[j + 1]
    return np.where(cubic_ok, cubic, linear), cubic_ok | (ok[j] & ok[j + 1])


def _reference_sample(sampler, xq, t):
    times = sampler.times
    i = min(max(np.searchsorted(times, t) - 1, 0), len(times) - 2)
    w = min(max((t - times[i]) / (times[i + 1] - times[i]), 0.0), 1.0)
    v0, ok0 = _reference_space(sampler, i, xq)
    v1, ok1 = _reference_space(sampler, i + 1, xq)
    return rate_factor(sampler.config, t) * ((1 - w) * v0 + w * v1), ok0 & ok1


class TestVelocitySampler:
    @staticmethod
    def _assert_matches_oracle(sampler, xq):
        times = sampler.times
        for t in np.concatenate((times, times[:-1] + 0.3 * np.diff(times),
                                 [times[0] - 0.1, times[-1] + 0.1])):
            v, ok = sampler.sample(xq, t)
            v_ref, ok_ref = _reference_sample(sampler, xq, t)
            assert np.array_equal(ok, ok_ref)
            assert np.array_equal(v, v_ref)

    def test_shared_stencil_matches_per_snapshot_oracle_beside_nodes(self):
        # two colliding packets: interference nodes inside the support
        g = sym_grid(10, 512)
        a = gaussian_packet(g, C, 0.7, x0=-2.5, p0=6.0)
        b = gaussian_packet(g, C, 0.7, x0=2.5, p0=-6.0)
        psi = ComplexField(g, (a.values + b.values) / math.sqrt(2), 0.0)
        run = propagate(psi, PropagatorConfig(dt=1e-2), 0.6, snapshot_every=5)
        sampler = VelocitySampler(run)
        nodes = []
        for ok in sampler.ok:
            valid = np.flatnonzero(ok)
            nodes += list(valid[0] + np.flatnonzero(~ok[valid[0]:valid[-1]]))
        assert len(nodes) > 0
        beside = (g.x[nodes][:, None]
                  + g.dx * np.array([-1.5, -1.0, -0.3, 0.0, 0.3, 1.0, 1.5]))
        xq = np.concatenate((
            [g.x_min, g.x_max], beside.ravel(),
            np.random.default_rng(3).uniform(-10, 10, 200)))
        self._assert_matches_oracle(sampler, xq)

    def test_shared_stencil_matches_per_snapshot_oracle_at_the_edges(self):
        # a plane wave is valid everywhere, so the stencil reaches the ends
        sampler = VelocitySampler(plane_wave_run(n_snaps=7))
        g = sampler.grid
        assert sampler.ok.all()
        offsets = np.array([0.0, 0.4, 1.0, 1.4, 2.0, 2.6])
        xq = np.concatenate((g.x_min + offsets * g.dx,
                             g.x_max - offsets * g.dx))
        self._assert_matches_oracle(sampler, xq)


# bundles -------------------------------------------------------------------

class TestBundles:
    def test_bundle_matches_per_trajectory_oracle(self):
        g = sym_grid(12, 1024)
        run = propagate(gaussian_packet(g, C, 1.0),
                        PropagatorConfig(dt=1e-3), 1.0, snapshot_every=5)
        rho0 = np.abs(run.snapshots[0].values) ** 2
        ens = sample_initial_positions(rho0, g, 12)
        sampler = VelocitySampler(run)
        bundle = integrate_bundle(ens, run, dt_traj=0.01, sampler=sampler)
        t_span = (sampler.times[0], sampler.times[-1])
        oracle = np.vstack([
            integrate_trajectory(x0, sampler, t_span, dt_traj=0.01).x
            for x0 in ens.positions])
        assert np.array_equal(bundle.xs, oracle)
        assert bundle.errors == ()

    def test_snapshot_gap_guard(self):
        run = plane_wave_run(n_snaps=4)  # gap = 1.0
        ens = InitialEnsemble(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            integrate_bundle(ens, run, dt_traj=0.01)

    def test_escaping_trajectory_recorded_not_fatal(self):
        run = plane_wave_run()  # v = 2, domain [0, ~12.57], t up to 3
        sampler = VelocitySampler(run, method="spectral")
        ens = InitialEnsemble(np.array([1.0, 8.0]))
        bundle = integrate_bundle(ens, run, dt_traj=0.01, sampler=sampler)
        assert len(bundle.errors) == 1
        assert bundle.errors[0][0] == 1
        assert bundle.errors[0][1] == "LeftDomain"
        assert "trajectory 1 " in bundle.errors[0][2]
        assert np.isnan(bundle.xs[1, -1])
        assert abs(bundle.xs[0, -1] - 7.0) < 1e-10

    def test_node_encounter_recorded_not_fatal(self):
        run = plane_wave_run()  # v = 2: over t in [0, 1] only row 1 crosses 4
        sampler = VelocitySampler(run, method="spectral")
        sampler.ok[:, (sampler.grid.x > 3.9) & (sampler.grid.x < 4.1)] = False
        ens = InitialEnsemble(np.array([0.5, 3.0, 4.5]))
        bundle = integrate_bundle(ens, run, dt_traj=0.01, t_span=(0.0, 1.0),
                                  sampler=sampler)
        assert [e[:2] for e in bundle.errors] == [(1, "NodeEncounter")]
        assert np.all(np.isnan(bundle.xs[1]))
        for row in (0, 2):
            oracle = integrate_trajectory(ens.positions[row], sampler,
                                          (0.0, 1.0), dt_traj=0.01)
            assert np.array_equal(bundle.xs[row], oracle.x)
        with pytest.raises(NodeEncounter):
            integrate_trajectory(3.0, sampler, (0.0, 1.0), dt_traj=0.01)
        # only row 1 met the band, once; its halvings all failed
        assert (bundle.fallback_rows, bundle.halvings) == (1, 0)

    def test_fallback_and_halvings_counted(self):
        # v = -50 x with dt = 0.1: the RK4 stages of the full step and of
        # its halves overshoot into x < 0, where v is invalid; quarter steps
        # do not.  One fallback row-step, 1 + 2 halvings.
        class Decay:
            grid = GridSpec(-2.0, 2.0, 101)

            def sample(self, x, t):
                return -50.0 * x, x > 0

        xs, errors, fallback_rows, halvings = _march(
            Decay(), np.array([1.0, -1.0]), np.array([0.0, 0.1]))
        assert [(row, type(exc)) for row, exc in errors] == [
            (1, NodeEncounter)]
        assert (fallback_rows, halvings) == (2, 3)
        x = 1.0
        for _ in range(4):
            k1 = -50.0 * x
            k2 = -50.0 * (x + 0.0125 * k1)
            k3 = -50.0 * (x + 0.0125 * k2)
            k4 = -50.0 * (x + 0.025 * k3)
            x = x + 0.025 / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert xs[0, 1] == pytest.approx(x, rel=1e-14)
        assert np.isnan(xs[1, 1])

    def test_bundle_serialization(self, tmp_path):
        run = plane_wave_run()
        sampler = VelocitySampler(run, method="spectral")
        ens = InitialEnsemble(np.array([1.0, 2.0, 3.0]))
        bundle = integrate_bundle(ens, run, dt_traj=0.1, sampler=sampler)
        path = tmp_path / "bundle.txt"
        write_bundle(path, bundle, metadata={"model": "standard"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# model = standard"
        assert lines[1].split() == ["#", "t", "x_1", "x_2", "x_3"]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(rows) == len(bundle.times)
        assert len(rows[0].split()) == 4


# diagnostics ---------------------------------------------------------------

class TestNonCrossing:
    def test_ordered_bundle_passes(self):
        times = np.linspace(0, 1, 11)
        xs = np.vstack([times, times + 0.5, times + 1.0])
        report = check_non_crossing(TrajectoryBundle(times, xs))
        assert report.ok
        assert report.min_gap == pytest.approx(0.5)

    def test_crossing_detected_with_location(self):
        times = np.linspace(0, 1, 11)
        xs = np.vstack([times, 1.0 - times])
        report = check_non_crossing(TrajectoryBundle(times, xs))
        assert not report.ok
        t_bad, pair = report.first_violation
        assert t_bad == pytest.approx(0.5)
        assert pair == 0

    def test_single_trajectory_trivially_passes(self):
        times = np.linspace(0, 1, 11)
        report = check_non_crossing(TrajectoryBundle(times,
                                                     times[None, :]))
        assert report.ok
        assert report.min_gap is None


@pytest.fixture(scope="module")
def free_run_and_bundle():
    g = sym_grid(12, 1024)
    run = propagate(gaussian_packet(g, C, 1.0),
                    PropagatorConfig(dt=1e-3), 2.0, snapshot_every=2)
    rho0 = np.abs(run.snapshots[0].values) ** 2
    ens = sample_initial_positions(rho0, g, 2)
    bundle = integrate_bundle(ens, run, dt_traj=0.01)
    return run, bundle


class TestTubeProbability:
    def test_interquartile_tube_conserved(self, free_run_and_bundle):
        run, bundle = free_run_and_bundle
        tubes = tube_probability(bundle, run)
        assert tubes.shape == (1, len(bundle.times))
        assert tubes[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert max_abs(tubes[0] - tubes[0, 0]) < 1e-3

    def test_needs_two_trajectories(self, free_run_and_bundle):
        run, bundle = free_run_and_bundle
        single = TrajectoryBundle(bundle.times, bundle.xs[:1])
        with pytest.raises(ValueError):
            tube_probability(single, run)

    def test_dissipative_run_tube_conserved(self):
        omega0 = 2 * math.pi / 10.0
        g = sym_grid(8, 1024)
        cfg = PropagatorConfig(model="caldirola_kanai",
                               potential=PotentialSpec("harmonic",
                                                       omega0=omega0),
                               gamma=0.3 * omega0, dt=1e-3, t_final=2.0)
        psi0 = gaussian_packet(g, C, math.sqrt(0.5 / omega0), x0=2.0)
        run = propagate(psi0, cfg, 2.0, snapshot_every=2)
        rho0 = np.abs(run.snapshots[0].values) ** 2
        ens = sample_initial_positions(rho0, g, 8)
        bundle = integrate_bundle(ens, run, dt_traj=0.01)
        tubes = tube_probability(bundle, run)
        assert tubes.shape == (7, len(bundle.times))
        assert max_abs(tubes - tubes[:, :1]) < 1e-3


class TestEnsembleDensityConsistency:
    def test_kolmogorov_smirnov_distance(self):
        g = sym_grid(12, 1024)
        run = propagate(gaussian_packet(g, C, 1.0),
                        PropagatorConfig(dt=1e-3), 2.0, snapshot_every=10)
        rho0 = np.abs(run.snapshots[0].values) ** 2
        ens = sample_initial_positions(rho0, g, 256)
        bundle = integrate_bundle(ens, run, dt_traj=0.01)
        final = np.sort(bundle.xs[:, -1])
        sigma = math.sqrt(2.0)
        from math import erf
        cdf = np.array([0.5 * (1 + erf(x / (sigma * math.sqrt(2))))
                        for x in final])
        empirical = (np.arange(256) + 0.5) / 256
        assert max_abs(cdf - empirical) < 0.05


def test_time_mesh_hits_endpoints():
    mesh = time_mesh((0.0, 1.0), 0.3)
    assert mesh[0] == 0.0
    assert mesh[-1] == 1.0
    assert len(mesh) == 4
