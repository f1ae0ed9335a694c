"""Quantile sampling, RK4 trajectory integration, non-crossing, and
probability-tube diagnostics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qstream import (ComplexField, GridSpec, InitialEnsemble,
                     PhysicalConstants, PotentialSpec, PropagatorConfig,
                     TrajectoryBundle, check_non_crossing, gaussian_packet,
                     integrate_bundle, propagate, sample_initial_positions,
                     tube_probability)
from qstream.errors import NodeEncounter, ZeroDensity
from qstream.propagators import PropagationRun, rate_factor, state_time
from qstream.trajectories import (BundleStream, VelocitySampler, _march,
                                  time_mesh, write_bundle)

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


def march_one(x0, sampler, t_span, dt_traj):
    """(times, x, errors) of one trajectory from x0: the march a bundle
    runs, over a single row."""
    times = time_mesh(t_span, dt_traj)
    xs, errors, _, _ = _march(sampler, np.array([float(x0)]), times)
    return times, xs[0], errors


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
    """Single trajectories, each marched as a one-row bundle."""

    def test_plane_wave_advection(self):
        run = plane_wave_run()
        sampler = VelocitySampler.from_run(run, method="spectral")
        _, x, errors = march_one(1.0, sampler, (0.0, 3.0), dt_traj=0.01)
        assert errors == [] and abs(x[-1] - 7.0) < 1e-10

    def test_stationary_state_static_trajectory(self):
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(potential=PotentialSpec("harmonic",
                                                       omega0=1.0), dt=1e-3)
        run = propagate(gaussian_packet(g, C, math.sqrt(0.5)), cfg, 1.0,
                        snapshot_every=100)
        _, x, errors = march_one(0.5, VelocitySampler.from_run(run),
                                 (0.0, 1.0), dt_traj=0.01)
        assert errors == [] and max_abs(x - 0.5) < 1e-7

    def test_free_gaussian_scaling_law(self):
        g = sym_grid(12, 1024)
        run = propagate(gaussian_packet(g, C, 1.0),
                        PropagatorConfig(dt=1e-3), 2.0, snapshot_every=2)
        t, x, errors = march_one(1.0, VelocitySampler.from_run(run),
                                 (0.0, 2.0), dt_traj=0.01)
        expect = np.sqrt(1.0 + (t / 2.0) ** 2)
        assert errors == [] and max_abs(x - expect) < 1e-5


class TestCoherentBundle:
    def test_all_trajectories_share_center_motion(self):
        # displaced coherent state: x_i(t) = x_i(0) + cos(t) - 1
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(potential=PotentialSpec("harmonic",
                                                       omega0=1.0), dt=5e-4)
        # one period, to the nearest whole step of dt_traj
        run = propagate(gaussian_packet(g, C, math.sqrt(0.5), x0=1.0), cfg,
                        round(2 * math.pi / 0.01) * 0.01, snapshot_every=4)
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
        sampler = VelocitySampler.from_run(run)
        ends = {}
        for dt_traj in (0.04, 0.01, 0.0025):
            ends[dt_traj] = march_one(1.0, sampler, (0.0, 2.0),
                                      dt_traj)[1][-1]
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
        sampler = VelocitySampler.from_run(run)
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
        sampler = VelocitySampler.from_run(plane_wave_run(n_snaps=7))
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
        sampler = VelocitySampler.from_run(run)
        bundle = integrate_bundle(ens, run, dt_traj=0.01, sampler=sampler)
        t_span = (sampler.times[0], sampler.times[-1])
        oracle = np.vstack([march_one(x0, sampler, t_span, dt_traj=0.01)[1]
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
        sampler = VelocitySampler.from_run(run, method="spectral")
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
        sampler = VelocitySampler.from_run(run, method="spectral")
        sampler.ok[:, (sampler.grid.x > 3.9) & (sampler.grid.x < 4.1)] = False
        ens = InitialEnsemble(np.array([0.5, 3.0, 4.5]))
        bundle = integrate_bundle(ens, run, dt_traj=0.01, t_span=(0.0, 1.0),
                                  sampler=sampler)
        assert [e[:2] for e in bundle.errors] == [(1, "NodeEncounter")]
        assert np.all(np.isnan(bundle.xs[1]))
        for row in (0, 2):
            _, oracle, errors = march_one(ens.positions[row], sampler,
                                          (0.0, 1.0), dt_traj=0.01)
            assert errors == [] and np.array_equal(bundle.xs[row], oracle)
        _, _, errors = march_one(3.0, sampler, (0.0, 1.0), dt_traj=0.01)
        assert [type(exc) for _, exc in errors] == [NodeEncounter]
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
        sampler = VelocitySampler.from_run(run, method="spectral")
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


# streamed bundles ----------------------------------------------------------

def streamed_and_stored(psi0, cfg, t_final, snapshot_every, dt_traj,
                        n_traj=8):
    """The bundle a BundleStream marches during propagate, and the run of
    the same propagation with every stored state kept."""
    rho0 = np.abs(psi0.values) ** 2
    ens = sample_initial_positions(rho0, psi0.grid, n_traj)
    n_steps = round((t_final - psi0.time) / cfg.dt)
    stream = BundleStream(ens, psi0.grid, cfg, dt_traj, (
        psi0.time, state_time(psi0.time, cfg.dt, n_steps)))
    streamed_run = propagate(psi0, cfg, t_final, snapshot_every,
                             consumers=(stream,))
    assert len(streamed_run.snapshots) == 2
    run = propagate(psi0, cfg, t_final, snapshot_every)
    return ens, stream.finish(), run


def assert_same_bundle(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.xs, b.xs, equal_nan=True)
    assert a.errors == b.errors
    assert (a.fallback_rows, a.halvings) == (b.fallback_rows, b.halvings)
    assert np.array_equal(a.tubes, b.tubes, equal_nan=True)


class TestBundleStream:
    @pytest.mark.parametrize("t_final, snapshot_every, dt_traj", [
        (0.4, 2, 0.01),    # states 0.002 apart: denser than the mesh
        (0.4, 40, 0.01),   # states 0.04 apart: sparser than the mesh
        (0.5, 30, 0.01),   # the last two states only 0.02 apart
        (0.5, 7, 0.025),   # states and mesh times never meet
    ])
    def test_equals_stored_snapshots_bit_for_bit(self, t_final,
                                                 snapshot_every, dt_traj):
        omega0 = 2 * math.pi / 10.0
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(model="caldirola_kanai",
                               potential=PotentialSpec("harmonic",
                                                       omega0=omega0),
                               gamma=0.3 * omega0, dt=1e-3, t_final=t_final)
        psi0 = gaussian_packet(g, C, math.sqrt(0.5 / omega0), x0=2.0)
        ens, streamed, run = streamed_and_stored(psi0, cfg, t_final,
                                                 snapshot_every, dt_traj)
        replayed = integrate_bundle(ens, run, dt_traj)
        assert_same_bundle(streamed, replayed)
        # the oracles: one sampler over every stored state, and the tube
        # values from every stored density
        sampler = VelocitySampler.from_run(run)
        xs, errors, fallback_rows, halvings = _march(
            sampler, ens.positions, streamed.times)
        assert state_time(0.0, cfg.dt, run.steps) == sampler.times[-1]
        assert np.array_equal(streamed.times, time_mesh(
            (0.0, sampler.times[-1]), dt_traj))
        assert np.array_equal(streamed.xs, xs)
        assert (errors, fallback_rows, halvings) == ([], 0, 0)
        assert np.array_equal(streamed.tubes,
                              tube_probability(streamed, run))

    def test_fallback_rows_and_failed_row_match_the_oracle(self):
        # v = -50 (x - 7), valid only for x > 6: the full steps of rows 1
        # and 2 overshoot below 6 and take the halving fallback, which
        # succeeds; row 0 starts in the invalid region and fails
        run = plane_wave_run(n_snaps=7)
        sampler = VelocitySampler.from_run(run)
        x = sampler.grid.x
        sampler.v[:] = -50.0 * (x - 7.0)
        sampler.ok[:] = x > 6.0
        ens = InitialEnsemble(np.array([5.0, 8.0, 9.0]))
        bundle = integrate_bundle(ens, run, dt_traj=0.1, t_span=(0.0, 1.5),
                                  sampler=sampler)
        xs, errors, fallback_rows, halvings = _march(sampler, ens.positions,
                                                     bundle.times)
        assert np.array_equal(bundle.xs, xs, equal_nan=True)
        assert bundle.errors == tuple(
            (row, type(exc).__name__, str(exc)) for row, exc in errors)
        assert [e[:2] for e in bundle.errors] == [(0, "NodeEncounter")]
        assert bundle.fallback_rows == fallback_rows > 1
        assert bundle.halvings == halvings > 0
        tubes = tube_probability(bundle, run)
        assert np.isnan(tubes[0]).all() and np.isfinite(tubes[1]).all()
        assert np.array_equal(bundle.tubes, tubes, equal_nan=True)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_halved_steps_past_a_frame_match_the_oracle(self, stride):
        # frames exactly at every (stride-th) mesh time, and an equilibrium
        # 7 +- 0.8 that flips from frame to frame, so rows keep taking the
        # halving fallback; its halves end at (t + h) + h, which rounds
        # past t + dt (0.55 + 0.05 > 0.6), where the window must already
        # hold the frame after the one at t + dt
        mesh = time_mesh((0.0, 1.6), 0.1)
        times = mesh[::stride]
        wave = plane_wave_run(t_final=1.6, n_snaps=len(times))
        run = make_run([ComplexField(s.grid, s.values, time=t)
                        for s, t in zip(wave.snapshots, times)], wave.config)
        sampler = VelocitySampler.from_run(run)
        x = sampler.grid.x
        for i in range(len(times)):
            sampler.v[i] = -30.0 * (x - 7.0 - 0.8 * (-1) ** i)
        sampler.ok[:] = x > 6.0
        ens = InitialEnsemble(np.array([7.2, 8.0]))
        bundle = integrate_bundle(ens, run, dt_traj=0.1, sampler=sampler)
        xs, errors, fallback_rows, halvings = _march(sampler, ens.positions,
                                                     bundle.times)
        assert np.array_equal(bundle.times, mesh)
        assert errors == [] and bundle.errors == ()
        assert bundle.fallback_rows == fallback_rows > 10
        assert np.array_equal(bundle.xs, xs)

    def test_mesh_beyond_the_states_matches_the_oracle(self):
        # a span that starts before the first state and ends after the last
        # holds v and rho at the nearest state, as one sampler over every
        # state does
        run = plane_wave_run(k=0.5, t_final=1.0, n_snaps=11)
        sampler = VelocitySampler.from_run(run, method="spectral")
        ens = InitialEnsemble(np.array([1.0, 2.0, 3.0]))
        run.snapshots[:] = [ComplexField(s.grid, s.values * (1 + 0.1 * i),
                                         s.time + 0.1)
                            for i, s in enumerate(run.snapshots)]
        sampler.times = sampler.times + 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 between equal times
            bundle = integrate_bundle(ens, run, dt_traj=0.01,
                                      t_span=(0.0, 1.3), sampler=sampler)
        xs, errors, _, _ = _march(sampler, ens.positions, bundle.times)
        assert np.array_equal(bundle.xs, xs) and errors == []
        tubes = tube_probability(bundle, run)
        assert np.isfinite(tubes).all()
        assert np.array_equal(bundle.tubes, tubes)

    def test_streamed_states_match_the_oracle_when_a_row_leaves(self):
        run = plane_wave_run()  # v = 2, domain [0, ~12.57], t up to 3
        ens = InitialEnsemble(np.array([1.0, 2.0, 8.0]))
        stream = BundleStream(ens, run.snapshots[0].grid, run.config, 0.01,
                              (0.0, 3.0))
        for snap in run.snapshots:
            stream(snap)
        streamed = stream.finish()
        sampler = VelocitySampler.from_run(run)
        assert_same_bundle(streamed, integrate_bundle(
            ens, run, dt_traj=0.01, sampler=sampler))
        xs, errors, _, _ = _march(sampler, ens.positions, streamed.times)
        assert np.array_equal(streamed.xs, xs, equal_nan=True)
        assert [e[:2] for e in streamed.errors] == [(2, "LeftDomain")]
        assert np.array_equal(streamed.tubes, tube_probability(streamed, run),
                              equal_nan=True)

    def test_memory_does_not_grow_with_stored_states(self):
        # 10x the stored states (1001 against 101) may raise the traced
        # peak by at most 5 % of their 7.4 MB
        g = sym_grid(12, 512)
        cfg = PropagatorConfig(dt=1e-3)
        psi0 = gaussian_packet(g, C, 1.0)
        peaks = {}
        for every in (10, 1):
            tracemalloc.start()
            try:
                ens = sample_initial_positions(np.abs(psi0.values) ** 2, g,
                                               8)
                stream = BundleStream(ens, g, cfg, 0.01, (0.0, state_time(
                    0.0, cfg.dt, 1000)))
                propagate(psi0, cfg, 1.0, every, consumers=(stream,))
                stream.finish()
                peaks[every] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        extra_bytes = 900 * g.n_points * 16
        assert peaks[1] - peaks[10] < 0.05 * extra_bytes

    def test_memory_holds_one_mesh_interval_of_dense_states(self):
        # states 50x denser than the mesh: the window holds about 50 + 3
        # frames, each 17 B a point (v, ok, rho) plus 9 B in the sampler's
        # stacked v and ok, however many mesh steps the run takes
        g = sym_grid(12, 512)
        cfg = PropagatorConfig(dt=1e-3)
        psi0 = gaussian_packet(g, C, 1.0)
        peaks = {}
        for t_final, every in ((0.3, 50), (0.3, 1), (1.2, 1)):
            n_steps = round(t_final / cfg.dt)
            tracemalloc.start()
            try:
                ens = sample_initial_positions(np.abs(psi0.values) ** 2, g,
                                               8)
                stream = BundleStream(ens, g, cfg, 0.05, (0.0, state_time(
                    0.0, cfg.dt, n_steps)))
                propagate(psi0, cfg, t_final, every, consumers=(stream,))
                stream.finish()
                peaks[t_final, every] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        window_bytes = (50 + 3) * 26 * g.n_points
        assert peaks[0.3, 1] - peaks[0.3, 50] < 1.25 * window_bytes
        # 4x the mesh steps and 900 more stored states (7.4 MB as states)
        extra_bytes = 900 * g.n_points * 16
        assert peaks[1.2, 1] - peaks[0.3, 1] < 0.05 * extra_bytes


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
    mesh = time_mesh((0.0, 1.0), 0.25)
    assert mesh[0] == 0.0
    assert mesh[-1] == 1.0
    assert len(mesh) == 5


def test_time_mesh_rejects_a_step_that_does_not_divide_the_span():
    with pytest.raises(ValueError, match="whole number of steps"):
        time_mesh((0.0, 1.0), 0.3)
