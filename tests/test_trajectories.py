"""Quantile sampling, RK4 trajectory integration, non-crossing, and
probability-tube diagnostics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qstream import (ComplexField, GridSpec, InitialEnsemble, PotentialSpec,
                     PropagatorConfig, TrajectoryBundle, check_non_crossing,
                     gaussian_packet, integrate_bundle, propagate,
                     sample_initial_positions, tube_probability)
from qstream.errors import NodeEncounter, ZeroDensity
from qstream.propagators import (PropagationRun, rate_factor, state_count,
                                  state_time, whole_steps)
from qstream.fields import lagrange_weights
from qstream.trajectories import (BundleStream, VelocitySampler, _March,
                                  _march, _stencil, velocity_frames,
                                  write_bundle)

from conftest import max_abs, sym_grid


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


def plane_wave_frames(run, k=2.0):
    """Exact frames of a plane_wave_run's states: (times, v = k, ok)."""
    times = np.array([s.time for s in run.snapshots])
    shape = (len(times), run.snapshots[0].grid.n_points)
    return times, np.full(shape, k), np.ones(shape, dtype=bool)


def march(run, frames, x0, dt_traj):
    """_march of the rows x0 over frames of the run's states."""
    return _march(run.snapshots[0].grid, run.config, frames, x0, dt_traj)


def march_one(x0, run, frames, dt_traj):
    """(times, x, errors) of one trajectory from x0: the march a bundle
    runs, over a single row."""
    xs, errors, _, _ = march(run, frames, np.array([float(x0)]), dt_traj)
    return frames[0], xs[0], errors


def push_frames(ens, run, frames, dt_traj):
    """The bundle a BundleStream marches over frames (times, v, ok) pushed
    with the densities of the run's states."""
    times, v, ok = frames
    stream = BundleStream(ens, run.snapshots[0].grid, run.config, dt_traj,
                          len(times))
    for t, v_k, ok_k, snap in zip(times, v, ok, run.snapshots):
        stream.push(t, v_k, ok_k, np.abs(snap.values) ** 2)
    return stream.finish()


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
        # the end positions are the quantile scheme's first and last: the
        # 0.1 and 0.9 quantiles of a box on [-2, 2] whose trapezoid cdf
        # gains 0.005 over each edge cell (total mass 4.01)
        g = sym_grid(10, 2001)
        rho = np.where(np.abs(g.x) <= 2, 1.0, 0.0)
        ens = sample_initial_positions(rho, g, 5, scheme="equal_spacing")
        quantile = sample_initial_positions(rho, g, 5)
        assert ens.positions[[0, -1]] == pytest.approx(
            quantile.positions[[0, -1]], abs=1e-12)
        assert np.allclose(ens.positions, np.linspace(-1.604, 1.604, 5),
                           rtol=0, atol=1e-9)

    @pytest.mark.parametrize("sigma0", [1.0, 0.3])
    @pytest.mark.parametrize("n", [2, 20, 100, 1000])
    def test_equal_spacing_rows_start_where_v_is_defined(self, n, sigma0):
        # the edges of the node mask, where rho is about 1e-12 of its peak,
        # lost the end rows to NodeEncounter
        g = sym_grid(10, 512)
        run = propagate(gaussian_packet(g, sigma0),
                        PropagatorConfig(dt=1e-2), 0.5, snapshot_every=5)
        ens = sample_initial_positions(np.abs(run.snapshots[0].values) ** 2,
                                       g, n, scheme="equal_spacing")
        bundle = integrate_bundle(ens, run, dt_traj=0.05)
        assert bundle.errors == ()
        assert check_non_crossing(bundle).ok

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
        _, x, errors = march_one(1.0, run, plane_wave_frames(run),
                                 dt_traj=0.01)
        assert errors == [] and abs(x[-1] - 7.0) < 1e-10

    def test_stationary_state_static_trajectory(self):
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(potential=PotentialSpec("harmonic",
                                                       omega0=1.0), dt=1e-3)
        run = propagate(gaussian_packet(g, math.sqrt(0.5)), cfg, 1.0,
                        snapshot_every=100)
        _, x, errors = march_one(0.5, run, velocity_frames(run),
                                 dt_traj=0.01)
        assert errors == [] and max_abs(x - 0.5) < 1e-7

    def test_free_gaussian_scaling_law(self):
        g = sym_grid(12, 1024)
        run = propagate(gaussian_packet(g, 1.0),
                        PropagatorConfig(dt=1e-3), 2.0, snapshot_every=2)
        t, x, errors = march_one(1.0, run, velocity_frames(run),
                                 dt_traj=0.01)
        expect = np.sqrt(1.0 + (t / 2.0) ** 2)
        assert errors == [] and max_abs(x - expect) < 1e-5


class TestCoherentBundle:
    def test_all_trajectories_share_center_motion(self):
        # displaced coherent state: x_i(t) = x_i(0) + cos(t) - 1
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(potential=PotentialSpec("harmonic",
                                                       omega0=1.0), dt=5e-4)
        # one period, to the nearest whole step of dt_traj
        run = propagate(gaussian_packet(g, math.sqrt(0.5), x0=1.0), cfg,
                        round(2 * math.pi / 0.01) * 0.01, snapshot_every=4)
        rho0 = np.abs(run.snapshots[0].values) ** 2
        ens = sample_initial_positions(rho0, g, 8)
        bundle = integrate_bundle(ens, run, dt_traj=0.01)
        expect = bundle.xs[:, :1] + (np.cos(bundle.times) - 1.0)[None, :]
        assert max_abs(bundle.xs - expect) < 1e-5


class TestOrderOfAccuracy:
    def test_endpoint_error_scales_fourth_order(self):
        g = sym_grid(12, 1024)
        run = propagate(gaussian_packet(g, 1.0),
                        PropagatorConfig(dt=1e-3), 2.0, snapshot_every=40)
        frames = velocity_frames(run)
        ends = {}
        for dt_traj in (0.04, 0.01, 0.0025):
            ends[dt_traj] = march_one(1.0, run, frames, dt_traj)[1][-1]
        e_coarse = abs(ends[0.04] - ends[0.0025])
        e_fine = abs(ends[0.01] - ends[0.0025])
        assert e_coarse / e_fine > 50.0


# velocity sampling ---------------------------------------------------------

def _reference_space(g, frames, i_snap, xq):
    """v and ok at xq on one snapshot, as the sampler computed them before
    both snapshots shared one stencil."""
    v, ok = frames[1][i_snap], frames[2][i_snap]
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


def _reference_sample(g, config, frames, xq, t, i):
    """The Lagrange sum in t, term by term, of the per-snapshot values over
    snapshots i - 1 .. i + 2, shifted inside the run."""
    times = frames[0]
    s = min(max(i - 1, 0), len(times) - 4)
    w = lagrange_weights(t, times[s:s + 4])
    v, ok = 0.0, True
    for a in range(4):
        v_a, ok_a = _reference_space(g, frames, s + a, xq)
        v, ok = v + w[a] * v_a, ok & ok_a
    return rate_factor(config, t) * v, ok


def interval_sampler(g, config, frames, i):
    """The VelocitySampler of interval i: over the frames of its _stencil."""
    times, v, ok = frames
    rows = _stencil(i, len(times))
    return VelocitySampler(g, config, times[rows], v[rows], ok[rows])


class TestVelocitySampler:
    @staticmethod
    def _assert_matches_oracle(g, config, frames, xq):
        times = frames[0]
        for i in range(len(times) - 1):
            sampler = interval_sampler(g, config, frames, i)
            for t in times[i] + np.array([0.0, 0.3, 1.0]) * (times[i + 1]
                                                            - times[i]):
                v, ok = sampler.sample(xq, t)
                v_ref, ok_ref = _reference_sample(g, config, frames, xq, t, i)
                assert np.array_equal(ok, ok_ref)
                assert np.array_equal(v, v_ref)

    @pytest.mark.parametrize("times, intervals", [
        ([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], (0, 2, 5)),  # first, interior, last
        ([0.0, 0.1, 0.2, 0.3, 0.4, 0.45], (0, 3, 4)),     # a short last one
        ([0.0, 0.1, 0.15], (0, 1)),                       # 3 states: quadratic
        ([0.0, 0.1], (0,)),                               # 2 states: linear
    ])
    def test_reproduces_a_field_cubic_in_x_and_t(self, times, intervals):
        # the product of a cubic in x and a polynomial in t of the degree
        # the states can carry (cubic from four on), which the tensor
        # Lagrange stencil reproduces to rounding wherever the four x nodes
        # lie inside the grid
        degree = min(3, len(times) - 1)
        coeffs = np.array([1.0, -1.0, 2.0, -3.0])[:degree + 1]

        def field(x, t):
            return ((1 + x - 0.5 * x ** 2 + 0.3 * x ** 3)
                    * np.polyval(coeffs[::-1], t))

        g = GridSpec(-2.0, 2.0, 41)
        times = np.array(times)
        v = np.array([field(g.x, t) for t in times])
        frames = times, v, np.ones_like(v, dtype=bool)
        xq = np.random.default_rng(5).uniform(g.x_min + g.dx,
                                              g.x_max - 2 * g.dx, 50)
        for i in intervals:
            sampler = interval_sampler(g, PropagatorConfig(), frames, i)
            for t in times[i] + np.array([0.0, 0.25, 0.6, 1.0]) * (
                    times[i + 1] - times[i]):
                got, ok = sampler.sample(xq, t)
                assert ok.all()
                assert max_abs(got - field(xq, t)) < 1e-13

    def test_shared_stencil_matches_per_snapshot_oracle_beside_nodes(self):
        # two colliding packets: interference nodes inside the support
        g = sym_grid(10, 512)
        a = gaussian_packet(g, 0.7, x0=-2.5, p0=6.0)
        b = gaussian_packet(g, 0.7, x0=2.5, p0=-6.0)
        psi = ComplexField(g, (a.values + b.values) / math.sqrt(2), 0.0)
        run = propagate(psi, PropagatorConfig(dt=1e-2), 0.6, snapshot_every=5)
        frames = velocity_frames(run)
        nodes = []
        for ok in frames[2]:
            valid = np.flatnonzero(ok)
            nodes += list(valid[0] + np.flatnonzero(~ok[valid[0]:valid[-1]]))
        assert len(nodes) > 0
        beside = (g.x[nodes][:, None]
                  + g.dx * np.array([-1.5, -1.0, -0.3, 0.0, 0.3, 1.0, 1.5]))
        xq = np.concatenate((
            [g.x_min, g.x_max], beside.ravel(),
            np.random.default_rng(3).uniform(-10, 10, 200)))
        self._assert_matches_oracle(g, run.config, frames, xq)

    def test_shared_stencil_matches_per_snapshot_oracle_at_the_edges(self):
        # a plane wave is valid everywhere, so the stencil reaches the ends
        run = plane_wave_run(n_snaps=7)
        frames = velocity_frames(run)
        g = run.snapshots[0].grid
        assert frames[2].all()
        offsets = np.array([0.0, 0.4, 1.0, 1.4, 2.0, 2.6])
        xq = np.concatenate((g.x_min + offsets * g.dx,
                             g.x_max - offsets * g.dx))
        self._assert_matches_oracle(g, run.config, frames, xq)


# bundles -------------------------------------------------------------------

class TestBundles:
    def test_bundle_matches_per_trajectory_oracle(self):
        g = sym_grid(12, 1024)
        run = propagate(gaussian_packet(g, 1.0),
                        PropagatorConfig(dt=1e-3), 1.0, snapshot_every=5)
        rho0 = np.abs(run.snapshots[0].values) ** 2
        ens = sample_initial_positions(rho0, g, 12)
        frames = velocity_frames(run)
        bundle = integrate_bundle(ens, run, dt_traj=0.01)
        oracle = np.vstack([march_one(x0, run, frames, dt_traj=0.01)[1]
                            for x0 in ens.positions])
        assert np.array_equal(bundle.xs, oracle)
        assert bundle.errors == ()

    def test_escaping_trajectory_recorded_not_fatal(self):
        run = plane_wave_run()  # v = 2, domain [0, ~12.57], t up to 3
        ens = InitialEnsemble(np.array([1.0, 8.0]))
        bundle = push_frames(ens, run, plane_wave_frames(run), dt_traj=0.01)
        assert len(bundle.errors) == 1
        assert bundle.errors[0][0] == 1
        assert bundle.errors[0][1] == "LeftDomain"
        assert "trajectory 1 " in bundle.errors[0][2]
        assert np.isnan(bundle.xs[1, -1])
        assert abs(bundle.xs[0, -1] - 7.0) < 1e-10

    def test_node_encounter_recorded_not_fatal(self):
        # v = 2: over t in [0, 1] only row 1 crosses 4
        run = plane_wave_run(t_final=1.0, n_snaps=11)
        frames = plane_wave_frames(run)
        x = run.snapshots[0].grid.x
        frames[2][:, (x > 3.9) & (x < 4.1)] = False
        ens = InitialEnsemble(np.array([0.5, 3.0, 4.5]))
        bundle = push_frames(ens, run, frames, dt_traj=0.01)
        assert [e[:2] for e in bundle.errors] == [(1, "NodeEncounter")]
        assert np.all(np.isnan(bundle.xs[1]))
        for row in (0, 2):
            _, oracle, errors = march_one(ens.positions[row], run, frames,
                                          dt_traj=0.01)
            assert errors == [] and np.array_equal(bundle.xs[row], oracle)
        _, _, errors = march_one(3.0, run, frames, dt_traj=0.01)
        assert [type(exc) for _, exc in errors] == [NodeEncounter]
        # only row 1 met the band, once; its halvings all failed
        assert (bundle.fallback_rows, bundle.halvings) == (1, 0)

    def test_fallback_and_halvings_counted(self):
        # v = -50 x with dt = 0.1: the RK4 stages of the full step and of
        # its halves overshoot into x < 0, where v is invalid; quarter steps
        # do not.  One fallback row-step, 1 + 2 halvings.
        class Decay:
            grid = GridSpec(-2.0, 2.0, 101)
            times = np.array([0.0, 0.1])

            def sample(self, x, t):
                return -50.0 * x, x > 0

        march = _March(np.array([1.0, -1.0]), 2)
        march.interval(Decay(), 0, 0.1)
        xs, errors, fallback_rows, halvings = march.result()
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
        ens = InitialEnsemble(np.array([1.0, 2.0, 3.0]))
        bundle = push_frames(ens, run, plane_wave_frames(run), dt_traj=0.1)
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
    stream = BundleStream(ens, psi0.grid, cfg, dt_traj, state_count(
        whole_steps(psi0.time, t_final, cfg.dt), snapshot_every))
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
        (0.4, 2, 0.01),    # states 0.002 apart: one RK4 step each
        (0.4, 40, 0.01),   # states 0.04 apart: four RK4 steps each
        (0.5, 30, 0.01),   # the last two states only 0.02 apart
        (0.5, 7, 0.025),   # a last interval of 0.003 after 0.007 ones
        (0.4, 40, 0.015),  # dt_traj does not divide 0.04: three steps
        (0.5, 30, 0.07),   # dt_traj above the state spacing
        (0.01, 10, 0.004),  # 2 states: one linear stencil
        (0.02, 10, 0.004),  # 3 states: one stencil of all three
        (0.025, 10, 0.004),  # 4 states, the last two only 0.005 apart
        (0.04, 10, 0.004),  # 5 states: stencils shifted at both ends
    ])
    def test_equals_stored_snapshots_bit_for_bit(self, t_final,
                                                 snapshot_every, dt_traj):
        omega0 = 2 * math.pi / 10.0
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(model="caldirola_kanai",
                               potential=PotentialSpec("harmonic",
                                                       omega0=omega0),
                               gamma=0.3 * omega0, dt=1e-3)
        psi0 = gaussian_packet(g, math.sqrt(0.5 / omega0), x0=2.0)
        ens, streamed, run = streamed_and_stored(psi0, cfg, t_final,
                                                 snapshot_every, dt_traj)
        replayed = integrate_bundle(ens, run, dt_traj)
        assert_same_bundle(streamed, replayed)
        # the oracles: the march over the frames of every stored state, and
        # the tube values from every stored density
        frames = velocity_frames(run)
        xs, errors, fallback_rows, halvings = march(run, frames,
                                                    ens.positions, dt_traj)
        assert state_time(0.0, cfg.dt, run.steps) == frames[0][-1]
        assert np.array_equal(streamed.times, frames[0])
        assert np.array_equal(streamed.xs, xs)
        assert (errors, fallback_rows, halvings) == ([], 0, 0)
        assert np.array_equal(streamed.tubes,
                              tube_probability(streamed, run))

    def test_fallback_rows_and_failed_row_match_the_oracle(self):
        # v = -50 (x - 7), valid only for x > 6: the full steps of rows 1
        # and 2 overshoot below 6 and take the halving fallback, which
        # succeeds; row 0 starts in the invalid region and fails
        run = plane_wave_run(n_snaps=7)
        frames = velocity_frames(run)
        x = run.snapshots[0].grid.x
        frames[1][:] = -50.0 * (x - 7.0)
        frames[2][:] = x > 6.0
        ens = InitialEnsemble(np.array([5.0, 8.0, 9.0]))
        bundle = push_frames(ens, run, frames, dt_traj=0.1)
        xs, errors, fallback_rows, halvings = march(run, frames,
                                                    ens.positions, 0.1)
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
        # frames 0.1 (one RK4 step) or 0.2 (two) apart, and an equilibrium
        # 7 +- 0.8 that flips from frame to frame, so rows keep taking the
        # halving fallback; its halves end at (t + h) + h, which may round
        # past the interval's end (0.55 + 0.05 > 0.6), and must still read
        # that interval's four frames
        mesh = np.linspace(0.0, 1.6, 17)
        times = mesh[::stride]
        wave = plane_wave_run(t_final=1.6, n_snaps=len(times))
        run = make_run([ComplexField(s.grid, s.values, time=t)
                        for s, t in zip(wave.snapshots, times)], wave.config)
        frames = velocity_frames(run)
        x = run.snapshots[0].grid.x
        for i in range(len(times)):
            frames[1][i] = -30.0 * (x - 7.0 - 0.8 * (-1) ** i)
        frames[2][:] = x > 6.0
        ens = InitialEnsemble(np.array([7.2, 7.6]))
        bundle = push_frames(ens, run, frames, dt_traj=0.1)
        xs, errors, fallback_rows, halvings = march(run, frames,
                                                    ens.positions, 0.1)
        assert np.array_equal(bundle.times, times)
        assert errors == [] and bundle.errors == ()
        assert bundle.fallback_rows == fallback_rows > 10
        assert np.array_equal(bundle.xs, xs)

    def test_streamed_states_match_the_oracle_when_a_row_leaves(self):
        run = plane_wave_run()  # v = 2, domain [0, ~12.57], t up to 3
        ens = InitialEnsemble(np.array([1.0, 2.0, 8.0]))
        stream = BundleStream(ens, run.snapshots[0].grid, run.config, 0.01,
                              len(run.snapshots))
        for snap in run.snapshots:
            stream(snap)
        streamed = stream.finish()
        frames = velocity_frames(run)
        assert_same_bundle(streamed, push_frames(ens, run, frames, 0.01))
        xs, errors, _, _ = march(run, frames, ens.positions, 0.01)
        assert np.array_equal(streamed.xs, xs, equal_nan=True)
        assert [e[:2] for e in streamed.errors] == [(2, "LeftDomain")]
        assert np.array_equal(streamed.tubes, tube_probability(streamed, run),
                              equal_nan=True)

    def test_finish_rejects_a_stream_one_state_short(self):
        run = plane_wave_run(n_snaps=7)
        stream = BundleStream(InitialEnsemble(np.array([1.0, 2.0])),
                              run.snapshots[0].grid, run.config, 0.01, 7)
        for snap in run.snapshots[:-1]:
            stream(snap)
        with pytest.raises(ValueError, match="took 6 states, not 7"):
            stream.finish()
        stream(run.snapshots[-1])
        with pytest.raises(IndexError):
            stream(run.snapshots[-1])
        assert stream.finish().xs.shape == (2, 7)

    @staticmethod
    def _streamed_peaks(g, cfg, psi0, runs, dt_traj):
        """The traced peak of a streamed march for each (t_final, every) of
        runs, after one untraced warm-up run, so that no peak holds what
        the first run of the process allocates once."""
        peaks = {}
        for (t_final, every), traced in [(runs[0], False)] + [
                (r, True) for r in runs]:
            if traced:
                tracemalloc.start()
            try:
                ens = sample_initial_positions(np.abs(psi0.values) ** 2, g,
                                               8)
                stream = BundleStream(ens, g, cfg, dt_traj, state_count(
                    whole_steps(0.0, t_final, cfg.dt), every))
                propagate(psi0, cfg, t_final, every, consumers=(stream,))
                stream.finish()
                if traced:
                    peaks[t_final, every] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peaks

    def test_memory_does_not_grow_with_stored_states(self):
        # 10x the stored states (1001 against 101) may raise the traced
        # peak by at most 5 % of their 7.4 MB
        g = sym_grid(12, 512)
        cfg = PropagatorConfig(dt=1e-3)
        peaks = self._streamed_peaks(g, cfg, gaussian_packet(g, 1.0),
                                     [(1.0, 10), (1.0, 1)], 0.01)
        extra_bytes = 900 * g.n_points * 16
        assert peaks[1.0, 1] - peaks[1.0, 10] < 0.05 * extra_bytes

    def test_memory_holds_one_mesh_interval_of_dense_states(self):
        # states 50x denser: the window still holds the four frames of one
        # interval's stencil, 17 B a point each (v, ok, rho), however dense
        # the states and however many intervals the run takes
        g = sym_grid(12, 512)
        cfg = PropagatorConfig(dt=1e-3)
        peaks = self._streamed_peaks(g, cfg, gaussian_packet(g, 1.0),
                                     [(0.3, 50), (0.3, 1), (1.2, 1)], 0.05)
        window_bytes = 4 * 17 * g.n_points
        # 294 more stored states: each adds its series row (40 B) and the
        # bundle's time, 8 positions and 7 tube values, allocated once
        rows_bytes = 294 * (40 + 16 * 8)
        assert (peaks[0.3, 1] - peaks[0.3, 50]
                < 1.25 * (window_bytes + rows_bytes))
        # 4x the intervals and 900 more stored states (7.4 MB as states)
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

    def test_failed_row_is_not_the_first_violation(self):
        # the NaN gaps beside the failed row 1 are no crossing; the only
        # one is pair 2 at t = 2
        times = np.array([0.0, 1.0, 2.0])
        xs = np.array([[0.0, 0.0, 0.0], [np.nan] * 3, [2.0, 2.0, 2.0],
                       [3.0, 3.0, 1.5]])
        report = check_non_crossing(TrajectoryBundle(times, xs))
        assert not report.ok and report.min_gap == -0.5
        assert report.first_violation == (2.0, 2)

    def test_every_row_failed_is_not_ok_without_a_warning(self):
        times = np.linspace(0, 1, 11)
        xs = np.full((2, 11), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_non_crossing(TrajectoryBundle(times, xs))
        assert not report.ok and math.isnan(report.min_gap)

    def test_single_trajectory_trivially_passes(self):
        times = np.linspace(0, 1, 11)
        report = check_non_crossing(TrajectoryBundle(times,
                                                     times[None, :]))
        assert report.ok
        assert report.min_gap is None


@pytest.fixture(scope="module")
def free_run_and_bundle():
    g = sym_grid(12, 1024)
    run = propagate(gaussian_packet(g, 1.0),
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
                               gamma=0.3 * omega0, dt=1e-3)
        psi0 = gaussian_packet(g, math.sqrt(0.5 / omega0), x0=2.0)
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
        run = propagate(gaussian_packet(g, 1.0),
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
