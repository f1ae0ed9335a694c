"""Split-step propagation for the three dynamical models plus the
closed-form Gaussian oracle and the classical dissipative trajectory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstream import (ComplexField, PotentialSpec, PropagatorConfig,
                     analytic_gaussian_oracle, gaussian_packet, propagate,
                     step)
from qstream import fields as qf, propagators
from qstream.errors import (AllBelowThreshold, StabilityViolation,
                            ValidationError)
from qstream.fields import node_mask, norm, position_spread
from qstream.propagators import (_Transform, _cis, _friction_potential,
                                 _mirrored_phase_factor, _phase_factor,
                                 _split_step, _stepper, check_stability,
                                 damped_oscillator,
                                 fft_shape, free_gaussian_width,
                                 largest_prime_factor, physical_energy,
                                 state_count, state_time, whole_steps)
from qstream.scenarios import (builtin_scenario, initial_state,
                               parse_scenario, propagator_config,
                               run_scenario)

from conftest import max_abs, sym_grid

OMEGA0 = 2 * math.pi / 10.0
SIGMA_COH = math.sqrt(0.5 / OMEGA0)
HARMONIC = PotentialSpec("harmonic", omega0=1.0)


def coherent(grid, a=1.0):
    return gaussian_packet(grid, sigma0=math.sqrt(0.5), x0=a)


# configuration validation --------------------------------------------------

class TestSpecs:
    def test_unknown_potential_kind(self):
        for kind in ("coulomb", "polynomial"):
            with pytest.raises(ValueError):
                PotentialSpec(kind)

    def test_harmonic_needs_positive_frequency(self):
        with pytest.raises(ValueError):
            PotentialSpec("harmonic", omega0=0.0)

    def test_tabulated_needs_values(self):
        with pytest.raises(ValueError):
            PotentialSpec("tabulated")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            PropagatorConfig(model="lindblad")

    def test_negative_gamma(self):
        with pytest.raises(ValueError):
            PropagatorConfig(gamma=-0.1)

    def test_nonpositive_dt(self):
        with pytest.raises(ValueError):
            PropagatorConfig(dt=0.0)

    def test_stability_bound_rejects_huge_step(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, sigma0=math.sqrt(0.5), x0=3.0)
        cfg = PropagatorConfig(potential=HARMONIC, dt=1.0)
        with pytest.raises(StabilityViolation):
            check_stability(psi, cfg)


# standard model ------------------------------------------------------------

def _check_reversible(n):
    """One split step with dt = 1e-3 on n points, then one with the
    conjugate factors, which is the step with -dt."""
    g = sym_grid(10, n)
    psi = gaussian_packet(g, 1.0, p0=1.0)
    dt = 1e-3
    transform = _Transform(n)
    assert transform.blocked == (n >= 8192)
    half_V = _phase_factor(-0.5 * dt * HARMONIC.evaluate(g))
    kin = transform.spectral(_phase_factor(
        -0.5 * dt * g.wavenumbers() ** 2))
    fwd = _split_step(psi.values, half_V, kin, transform)
    back = _split_step(fwd, half_V.conj(), kin.conj(), transform)
    assert max_abs(back - psi.values) < 1e-9


class TestStandardStepper:
    def test_ground_state_one_period(self):
        g = sym_grid(8, 512)
        psi0 = gaussian_packet(g, sigma0=math.sqrt(0.5))
        cfg = PropagatorConfig(potential=HARMONIC, dt=1e-3)
        # the whole number of steps nearest one period
        T = round(2 * math.pi / cfg.dt) * cfg.dt
        run = propagate(psi0, cfg, T, snapshot_every=10 ** 6)
        final = run.snapshots[-1]
        assert max_abs(np.abs(final.values) - np.abs(psi0.values)) < 1e-8
        # global phase advanced by -omega t / 2
        assert max_abs(final.values
                       - np.exp(-0.5j * final.time) * psi0.values) < 1e-6

    def test_single_step_reversible(self):
        _check_reversible(512)

    def test_single_step_reversible_on_blocked_transforms(self):
        # the kinetic factor in the order the blocked transforms leave the
        # spectrum
        _check_reversible(8192)

    def test_norm_drift_per_step(self):
        g = sym_grid(10, 512)
        psi = gaussian_packet(g, 1.0, p0=1.0)
        cfg = PropagatorConfig(potential=HARMONIC, dt=1e-3)
        out = step(psi, cfg)
        assert abs(norm(out) - norm(psi)) < 1e-12

    def test_free_gaussian_width_at_t2(self):
        g = sym_grid(20, 2048)
        cfg = PropagatorConfig(dt=1e-3)
        run = propagate(gaussian_packet(g, 1.0), cfg, 2.0,
                        snapshot_every=10 ** 6)
        assert abs(position_spread(run.snapshots[-1])
                   - math.sqrt(2.0)) < 1e-6

    def test_coherent_state_three_periods(self):
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(potential=HARMONIC, dt=5e-4)
        t_final = round(6 * math.pi / cfg.dt) * cfg.dt
        run = propagate(coherent(g), cfg, t_final, snapshot_every=400,
                        consumers=())
        centers = run.x_means
        widths = run.sigmas
        expect = np.cos(run.times)
        assert max_abs(centers - expect) < 1e-6
        assert max_abs(widths - math.sqrt(0.5)) < 1e-6
        oracle = analytic_gaussian_oracle(
            {"sigma0": math.sqrt(0.5), "x0": 1.0, "grid": g}, cfg,
            run.snapshots[-1].time)
        assert max_abs(run.snapshots[-1].values - oracle.values) < 1e-6

    def test_second_order_convergence_in_dt(self):
        g = sym_grid(8, 512)
        errs = []
        for dt in (4e-3, 2e-3):
            cfg = PropagatorConfig(potential=HARMONIC, dt=dt)
            run = propagate(coherent(g), cfg, 2.0, snapshot_every=10 ** 6)
            oracle = analytic_gaussian_oracle(
                {"sigma0": math.sqrt(0.5), "x0": 1.0, "grid": g}, cfg, 2.0)
            errs.append(max_abs(run.snapshots[-1].values - oracle.values))
        assert 3.0 < errs[0] / errs[1] < 5.0


# dissipative models --------------------------------------------------------

class TestCaldirolaKanai:
    def test_frictionless_reduction(self):
        g = sym_grid(8, 512)
        psi = coherent(g)
        std = step(psi, PropagatorConfig(potential=HARMONIC, dt=1e-3))
        ck = step(psi, PropagatorConfig(model="caldirola_kanai",
                                        potential=HARMONIC, dt=1e-3))
        assert max_abs(std.values - ck.values) < 1e-12

    def test_norm_drift_per_step(self):
        g = sym_grid(8, 1024)
        psi = gaussian_packet(g, SIGMA_COH, x0=2.0)
        cfg = PropagatorConfig(model="caldirola_kanai",
                               potential=PotentialSpec("harmonic",
                                                       omega0=OMEGA0),
                               gamma=0.3 * OMEGA0, dt=1e-3)
        out = psi
        for _ in range(20):
            prev = norm(out)
            out = step(out, cfg)
            assert abs(norm(out) - prev) < 1e-10

    def test_physical_energy_decreases(self):
        g = sym_grid(8, 1024)
        psi = gaussian_packet(g, SIGMA_COH, x0=2.0)
        cfg = PropagatorConfig(model="caldirola_kanai",
                               potential=PotentialSpec("harmonic",
                                                       omega0=OMEGA0),
                               gamma=0.3 * OMEGA0, dt=1e-3)
        run = propagate(psi, cfg, 10.0, snapshot_every=1000, consumers=())
        assert run.energies[-1] < run.energies[0]

    def test_gaussian_follows_closed_form(self):
        # the CK Hamiltonian of a harmonic V is quadratic, so a Gaussian
        # stays Gaussian: its centroid follows the damped classical path,
        # its width is sigma0 |s| for the damped path s(t) from s = 1,
        # s' = i / (2 sigma0^2), and its physical energy is the classical
        # energy of both
        sc = builtin_scenario("fig2a")
        run = propagate(initial_state(sc), propagator_config(sc), 4.0,
                        snapshot_every=10, consumers=())
        (packet,) = sc.packets
        sigma0, x0 = packet["sigma0"], packet["x0"]
        w0, gamma, t = sc.potential.omega0, sc.gamma, run.times
        assert len(t) == 401
        x_c, v_c = damped_oscillator(x0, 0.0, w0, gamma, t)
        s, s_dot = damped_oscillator(1.0, 0.5j / sigma0 ** 2, w0, gamma, t)
        sigma = sigma0 * np.abs(s)
        energy = (0.5 * (v_c ** 2 + sigma0 ** 2 * np.abs(s_dot) ** 2)
                  + 0.5 * w0 ** 2 * (x_c ** 2 + sigma ** 2))
        assert max_abs(run.x_means - x_c) / x0 < 1e-6
        assert max_abs(run.sigmas / sigma - 1.0) < 1e-6
        assert max_abs(run.energies / energy - 1.0) < 1e-6


def _counted_friction(monkeypatch, raise_on=None):
    """Wrap the stepper's _friction_potential to count its calls in the
    returned list, raising AllBelowThreshold on call number raise_on."""
    calls = []

    def friction(values, config):
        calls.append(None)
        if len(calls) == raise_on:
            raise AllBelowThreshold("state below threshold")
        return _friction_potential(values, config)

    monkeypatch.setattr(propagators, "_friction_potential", friction)
    return calls


class TestKostin:
    def test_frictionless_reduction(self):
        g = sym_grid(8, 512)
        psi = coherent(g)
        std = step(psi, PropagatorConfig(potential=HARMONIC, dt=1e-3))
        ks = step(psi, PropagatorConfig(model="kostin", potential=HARMONIC,
                                        dt=1e-3))
        assert max_abs(std.values - ks.values) < 1e-12

    def test_constant_phase_state_kills_friction(self):
        g = sym_grid(8, 512)
        psi = gaussian_packet(g, sigma0=math.sqrt(0.5))
        cfg = PropagatorConfig(model="kostin", potential=HARMONIC,
                               gamma=0.3, dt=1e-3)
        W = _friction_potential(psi.values, cfg)
        assert max_abs(W) < 1e-12

    def test_norm_drift_per_step(self):
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(model="kostin", potential=HARMONIC,
                               gamma=0.3, dt=1e-3)
        out = coherent(g)
        for _ in range(20):
            prev = norm(out)
            out = step(out, cfg)
            assert abs(norm(out) - prev) < 1e-10

    def test_zero_state_phase_undefined(self):
        g = sym_grid(8, 256)
        psi = ComplexField(g, np.zeros(256, dtype=complex))
        cfg = PropagatorConfig(model="kostin", gamma=0.3, dt=1e-3)
        with pytest.raises(AllBelowThreshold):
            step(psi, cfg)

    def test_trial_state_phase_undefined(self, monkeypatch):
        # the predictor-corrector's second friction potential, of the trial
        # state, raises AllBelowThreshold out of the step like the first
        calls = _counted_friction(monkeypatch, raise_on=2)
        cfg = PropagatorConfig(model="kostin", potential=HARMONIC,
                               gamma=0.3, dt=1e-3)
        with pytest.raises(AllBelowThreshold):
            step(coherent(sym_grid(8, 256)), cfg)
        assert len(calls) == 2

    def test_one_friction_potential_per_step(self, monkeypatch):
        # two for the predictor-corrector start, then one per step
        calls = _counted_friction(monkeypatch)
        cfg = PropagatorConfig(model="kostin", potential=HARMONIC,
                               gamma=0.3, dt=1e-2)
        run = propagate(coherent(sym_grid(8, 256)), cfg, 0.5,
                        snapshot_every=7, consumers=())
        assert run.steps == 50
        assert len(calls) == 51

    def test_second_order_in_dt(self):
        # against a dt/8 run on the same grid, so only the time error counts
        g = sym_grid(8, 512)
        psi0 = coherent(g)

        def final(dt):
            cfg = PropagatorConfig(model="kostin", potential=HARMONIC,
                                   gamma=0.3, dt=dt)
            return propagate(psi0, cfg, 2.0, snapshot_every=10 ** 6,
                             consumers=()).snapshots[-1].values

        ref = final(0.04 / 8)
        errs = [max_abs(final(dt) - ref) for dt in (0.04, 0.02)]
        assert errs[0] / errs[1] >= 3.0

    def test_centroid_follows_damped_oscillator(self):
        # Ehrenfest: <x> solves x'' + gamma x' + omega^2 x = 0
        g = sym_grid(8, 512)
        gamma = 0.3
        cfg = PropagatorConfig(model="kostin", potential=HARMONIC,
                               gamma=gamma, dt=2e-3)
        run = propagate(coherent(g), cfg, 10.0, snapshot_every=100,
                        consumers=())
        wt = math.sqrt(1.0 - gamma ** 2 / 4.0)
        t = run.times
        expect = np.exp(-0.5 * gamma * t) * (
            np.cos(wt * t) + 0.5 * gamma / wt * np.sin(wt * t))
        assert max_abs(run.x_means - expect) < 1e-4


# run loop ------------------------------------------------------------------

class TestPropagate:
    def test_zero_duration_returns_initial(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, 1.0)
        run = propagate(psi, PropagatorConfig(dt=1e-3), psi.time)
        assert len(run.snapshots) == 1
        assert run.snapshots[0] is psi

    def test_backwards_target_rejected(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, 1.0)
        with pytest.raises(ValueError):
            propagate(psi, PropagatorConfig(dt=1e-3), -1.0)

    def test_ground_state_norms_over_ten_periods(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, sigma0=math.sqrt(0.5))
        cfg = PropagatorConfig(potential=HARMONIC, dt=2e-3)
        n_steps = round(20 * math.pi / cfg.dt)
        run = propagate(psi, cfg, n_steps * cfg.dt,
                        snapshot_every=n_steps // 100)
        assert len(run.snapshots) >= 100
        assert max_abs(run.norms - 1.0) < 1e-8

    def test_off_grid_t_final_rejected(self):
        # 0.505 lies between the 50th and 51st step of 0.01
        psi = gaussian_packet(sym_grid(8, 256), 1.0)
        with pytest.raises(ValueError, match="not a whole number of steps"):
            propagate(psi, PropagatorConfig(dt=0.01), 0.505)

    def test_rounded_division_accepted(self):
        # 0.3 / 0.1 = 2.9999999999999996: only the rounding of the division
        psi = gaussian_packet(sym_grid(8, 256), 1.0)
        run = propagate(psi, PropagatorConfig(dt=0.1), 0.3)
        assert run.steps == 3
        assert len(run.snapshots) == 4

    def test_validation_applies_the_same_rule(self):
        text = "\n".join([
            "scenario.name = off-grid", "scenario.kind = matter_wave",
            "grid.x_min = -8", "grid.x_max = 8", "grid.n_points = 256",
            "time.dt = 0.01", "time.t_final = 0.505", "packet1.sigma0 = 1.0"])
        with pytest.raises(ValidationError) as info:
            parse_scenario(text)
        with pytest.raises(ValueError) as direct:
            whole_steps(0.0, 0.505, 0.01)
        assert info.value.key == "time"
        assert info.value.constraint == str(direct.value)

    @pytest.mark.parametrize("model",
                             ["standard", "caldirola_kanai", "kostin"])
    def test_consumers_get_every_stored_state(self, model):
        # the handed-out states are those a run without consumers stores;
        # the run itself then keeps only the initial and final states
        g = sym_grid(8, 256)
        cfg = PropagatorConfig(model=model, potential=HARMONIC, gamma=0.3,
                               dt=1e-2)
        psi = coherent(g)
        stored = propagate(psi, cfg, 0.23, snapshot_every=5)
        handed = []
        run = propagate(psi, cfg, 0.23, snapshot_every=5,
                        consumers=(handed.append,))
        assert len(handed) == len(stored.snapshots) == 6  # 0 5 .. 20 23
        for a, b in zip(handed, stored.snapshots):
            assert a.time == b.time
            assert np.array_equal(a.values, b.values)
        assert run.snapshots == [handed[0], handed[-1]]
        for name in ("times", "norms", "x_means", "sigmas", "energies"):
            assert np.array_equal(getattr(run, name), getattr(stored, name))
        assert propagate(psi, cfg, psi.time, consumers=()).snapshots == [psi]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n_steps=st.integers(0, 30), every=st.integers(1, 12))
    def test_consumers_called_state_count_times(self, n_steps, every):
        psi = gaussian_packet(sym_grid(8, 32), 1.0)
        handed = []
        run = propagate(psi, PropagatorConfig(dt=1e-2), n_steps * 1e-2,
                        snapshot_every=every, consumers=(handed.append,))
        assert len(handed) == len(run.times) == state_count(n_steps, every)
        assert handed[-1].time == state_time(0.0, 1e-2, n_steps)

    def test_state_times_are_t0_plus_i_dt(self, tmp_path):
        psi = gaussian_packet(sym_grid(8, 256), 1.0, time=0.1)
        run = propagate(psi, PropagatorConfig(dt=1e-3), 0.6)
        assert run.steps == 500
        expected = [0.1 + i * 1e-3 for i in range(501)]
        assert [s.time for s in run.snapshots] == expected
        assert run.times.tolist() == expected
        assert all(type(s.time) is float for s in run.snapshots)
        # one cadence: the series has a row for each handed-out state (the
        # first, every 7th and the last) and for no other
        handed = []
        sparse = propagate(psi, PropagatorConfig(dt=1e-3), 0.6,
                           snapshot_every=7, consumers=(handed.append,))
        kept = [i for i in range(501) if i % 7 == 0 or i == 500]
        assert [s.time for s in handed] == [expected[i] for i in kept]
        assert sparse.times.tolist() == [expected[i] for i in kept]
        assert sparse.snapshots == [handed[0], handed[-1]]
        for name in ("norms", "x_means", "sigmas", "energies"):
            assert np.array_equal(getattr(sparse, name),
                                  getattr(run, name)[kept])
        assert [state_time(0.1, 1e-3, i) for i in range(501)] == expected
        assert type(state_time(np.float64(0.1), 1e-3, 3)) is float
        assert step(psi, PropagatorConfig(dt=1e-3)).time == expected[1]
        # a 4000-step run ends at t0 + 4000 dt exactly, where 4000 additions
        # of 1e-3 end at 3.9999999999996705
        text = ("scenario.name = t\nscenario.kind = matter_wave\n"
                "grid.x_min = -10\ngrid.x_max = 10\ngrid.n_points = 64\n"
                "time.dt = 1e-3\ntime.t_final = 4.0\n"
                "time.snapshot_every = 1000\npacket1.sigma0 = 1.0\n")
        run_scenario(parse_scenario(text), out_dir=str(tmp_path))
        header = (tmp_path / "snapshot_final.txt").read_text().splitlines()
        assert header[3] == "time = 4.0"

    def test_non_finite_state_rejected(self):
        # on a wide grid exp(gamma t) V overflows the phase of the
        # Caldirola-Kanai half-potential factor, whose cos and sin are NaN
        g = sym_grid(2000, 256)
        cfg = PropagatorConfig(model="caldirola_kanai", potential=HARMONIC,
                               gamma=5.6e5, dt=2.5e-3)
        psi = gaussian_packet(g, sigma0=20.0)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            propagate(psi, cfg, 2.5e-3)

    def test_stability_checked_on_entry(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, sigma0=math.sqrt(0.5), x0=3.0)
        cfg = PropagatorConfig(potential=PotentialSpec("harmonic",
                                                       omega0=5.0), dt=0.5)
        with pytest.raises(StabilityViolation):
            propagate(psi, cfg, 1.0)

    @pytest.mark.parametrize("model",
                             ["standard", "caldirola_kanai", "kostin"])
    def test_run_equals_repeated_steps(self, model):
        # bit for bit, except Kostin at gamma > 0 after its first step: the
        # run then takes Adams-Bashforth steps, and repeated step() is the
        # predictor-corrector oracle
        g = sym_grid(8, 256)
        cfg = PropagatorConfig(model=model, potential=HARMONIC, gamma=0.3,
                               dt=1e-2)
        psi = coherent(g)
        run = propagate(psi, cfg, 0.05, snapshot_every=1)
        for i, snap in enumerate(run.snapshots[1:]):
            psi = step(psi, cfg)
            assert snap.time == psi.time
            if model == "kostin" and i > 0:
                assert max_abs(snap.values - psi.values) <= 1e-6
            else:
                assert np.array_equal(snap.values, psi.values)

    def test_split_step_leaves_its_arguments_unchanged(self):
        # the transforms run in place, on a buffer of the split step's own
        g = sym_grid(8, 256)
        values = coherent(g).values
        half_V = _phase_factor(-5e-3 * HARMONIC.evaluate(g))
        kin = _phase_factor(-5e-3 * g.wavenumbers() ** 2)
        before = [a.copy() for a in (values, half_V, kin)]
        out = _split_step(values, half_V, kin, _Transform(256))
        assert not np.shares_memory(out, values)
        for arg, copy in zip((values, half_V, kin), before):
            assert np.array_equal(arg, copy)

    @pytest.mark.parametrize("model", ["caldirola_kanai", "kostin"])
    def test_stepper_returns_fresh_arrays(self, model):
        # handed-out states are stored, so a step never writes into one:
        # two calls give two arrays, the second leaves the first as it
        # was, and it is the split step of the second step's factors, bit
        # for bit (for Kostin the Adams-Bashforth step, which
        # test_run_equals_repeated_steps compares only to 1e-6)
        g = sym_grid(8, 256)
        cfg = PropagatorConfig(model=model, potential=HARMONIC, gamma=0.3,
                               dt=1e-2)
        advance = _stepper(g, cfg)
        v0 = coherent(g).values
        v1 = advance(v0, 0.0)
        kept = v1.copy()
        v2 = advance(v1, cfg.dt)
        assert not np.shares_memory(v1, v2)
        assert np.array_equal(v1, kept)
        V, k2_half = HARMONIC.evaluate(g), g.wavenumbers()[:129] ** 2
        if model == "kostin":
            W_mid = (1.5 * _friction_potential(v1, cfg)
                     - 0.5 * _friction_potential(v0, cfg))
            half_V = _phase_factor(-0.5 * cfg.dt * (V + W_mid))
            kin = _mirrored_phase_factor(
                -0.5 * 1.0 * cfg.dt * k2_half, 256, _cis)
        else:
            t_mid = cfg.dt + 0.5 * cfg.dt
            half_V = _phase_factor(-0.5 * cfg.dt
                                   * (math.exp(0.3 * t_mid) * V))
            kin = _mirrored_phase_factor(
                -0.5 * math.exp(-0.3 * t_mid) * cfg.dt * k2_half, 256,
                _phase_factor)
        assert np.array_equal(v2, _split_step(v1, half_V, kin,
                                              _Transform(256)))

    @pytest.mark.parametrize("model",
                             ["standard", "caldirola_kanai", "kostin"])
    def test_propagate_leaves_stored_states_unchanged(self, model):
        # a write into a stored state's values after it was stored would
        # break the step from it to the next stored state
        g = sym_grid(8, 256)
        cfg = PropagatorConfig(model=model, potential=HARMONIC, gamma=0.3,
                               dt=1e-2)
        psi0 = coherent(g)
        initial = psi0.values.copy()
        run = propagate(psi0, cfg, 0.05, snapshot_every=1)
        assert np.array_equal(psi0.values, initial)
        for i, (prev, snap) in enumerate(zip(run.snapshots,
                                             run.snapshots[1:])):
            fresh = ComplexField(g, prev.values.copy(), prev.time)
            # a Kostin run's steps after the first are Adams-Bashforth
            # steps; step() from the same state is the predictor-corrector
            if model == "kostin" and i > 0:
                assert max_abs(step(fresh, cfg).values - snap.values) <= 1e-6
            else:
                assert np.array_equal(step(fresh, cfg).values, snap.values)

    def test_series_memory_per_row(self, monkeypatch):
        # the series is five float64 columns of a length known before the
        # run, 40 B a row.  The step and the row's four diagnostics are
        # stubbed so that 40,000 rows trace in about a second; each
        # diagnostic still returns a fresh numpy scalar, as the real ones do
        def row(record, psi):
            return (psi.time,) + tuple(np.float64(psi.time) for _ in range(4))

        monkeypatch.setattr(propagators.SeriesRecord, "row", row)
        monkeypatch.setattr(propagators, "_stepper",
                            lambda grid, config: lambda values, t: values)
        psi0 = gaussian_packet(sym_grid(8, 8), 1.0)
        cfg = PropagatorConfig(dt=1e-3)
        tracemalloc.start()
        try:
            run = propagate(psi0, cfg, 40_000 * cfg.dt, consumers=())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.times) == 40_001
        assert peak <= 64 * len(run.times)

    def test_series_written(self, tmp_path):
        g = sym_grid(8, 256)
        cfg = PropagatorConfig(potential=HARMONIC, dt=1e-2)
        run = propagate(coherent(g), cfg, 0.1, snapshot_every=5)
        path = tmp_path / "series.txt"
        run.write_series(path)
        rows = [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")]
        assert len(rows) == len(run.times)
        assert len(rows[0].split()) == 5


# per-step oracle of the cached plan -----------------------------------------

def _reference_friction(values, grid, config):
    """Kostin's gamma (S - <S>) with the phase unwrapped through
    angle(exp(i d)), as before the real-arithmetic unwrap."""
    rho = np.abs(values) ** 2
    valid = node_mask(rho)
    raw = np.angle(values)
    diff = np.diff(raw)
    corr = np.angle(np.exp(1j * diff)) - diff
    corr[~(valid[:-1] & valid[1:])] = 0.0
    offset = np.zeros_like(raw)
    i0 = int(np.argmax(rho))
    offset[i0 + 1:] = np.cumsum(corr[i0:])
    offset[:i0] = -np.cumsum(corr[:i0][::-1])[::-1]
    S = raw + offset
    if not valid.all():
        x = np.linspace(grid.x_min, grid.x_max, grid.n_points)
        S = np.interp(x, x[valid], S[valid])
    rho = rho / np.trapezoid(rho, dx=grid.dx)
    return config.gamma * (S - np.trapezoid(rho * S, dx=grid.dx))


def _reference_step(values, t, grid, config, W_last=None):
    """One step of the configured model as the split step computed it
    before the cached plan: numpy.fft, and both complex exponentials built
    on every step from the model's coefficients, over the full spectrum and
    with literal np.exp, never through _phase_factor.  Returns the new
    values and Kostin's friction potential of `values` (None for the other
    models).  Kostin's midpoint friction potential is the predictor-corrector
    average when W_last is None, and otherwise the Adams-Bashforth
    1.5 W - 0.5 W_last, W_last being the friction potential that the
    previous step returned."""
    dt, gamma = config.dt, config.gamma
    V = config.potential.evaluate(grid)
    kin_phase = -0.5j * (2.0 * np.pi
                         * np.fft.fftfreq(grid.n_points, grid.dx)) ** 2

    def split(vals, V_eff, scale=1.0):
        half_V = np.exp(-0.5j * V_eff * dt)
        kin = np.exp(kin_phase * scale * dt)
        return half_V * np.fft.ifft(kin * np.fft.fft(half_V * vals))

    t_mid = t + 0.5 * dt
    if config.model == "caldirola_kanai":
        return split(values, math.exp(gamma * t_mid) * V,
                     math.exp(-gamma * t_mid)), None
    if config.model == "kostin":
        W = _reference_friction(values, grid, config)
        if W_last is None:
            W_mid = 0.5 * (W + _reference_friction(split(values, V + W),
                                                   grid, config))
        else:
            W_mid = 1.5 * W - 0.5 * W_last
        return split(values, V + W_mid), W
    return split(values, V), None


ORACLE_CASES = {
    "standard": dict(model="standard"),
    "ck-gamma0": dict(model="caldirola_kanai"),
    "ck-gamma0.3": dict(model="caldirola_kanai", gamma=0.3),
    "kostin-gamma0": dict(model="kostin"),
    "kostin-gamma0.3": dict(model="kostin", gamma=0.3),
}


def _check_against_reference(case, n, t_final):
    """propagate and repeated step() of ORACLE_CASES[case] on n points
    against _reference_step, state by state, with dt = 5e-3."""
    g = sym_grid(8, n)
    cfg = PropagatorConfig(potential=HARMONIC, dt=5e-3, **ORACLE_CASES[case])
    psi0 = gaussian_packet(g, math.sqrt(0.5), x0=1.0, p0=0.5)
    run = propagate(psi0, cfg, t_final, snapshot_every=1)
    assert len(run.snapshots) == whole_steps(0.0, t_final, cfg.dt) + 1
    # repeated step() is the predictor-corrector throughout, which a
    # Kostin run at gamma > 0 takes only for its first step
    two_step = cfg.model == "kostin" and cfg.gamma > 0
    ref, W, psi = psi0.values, None, psi0
    for snap in run.snapshots[1:]:
        ref, W = _reference_step(ref, psi.time, g, cfg, W)
        psi = step(psi, cfg)
        assert max_abs(snap.values - ref) <= 1e-12
        if two_step:
            assert max_abs(psi.values - snap.values) <= 1e-5
        else:
            assert max_abs(psi.values - ref) <= 1e-12


class TestCachedPlanOracle:
    """The cached phase factors, the in-place numpy.fft transforms and the
    real-arithmetic unwrap against the per-step formulas they replace: 200
    steps at n = 512, and 20 steps at n = 8192, where the transforms are
    blocked."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_propagate_and_step_match_per_step_formulas(self, case):
        _check_against_reference(case, 512, 1.0)

    @pytest.mark.parametrize("case",
                             ["standard", "ck-gamma0.3", "kostin-gamma0.3"])
    def test_blocked_transforms_match_per_step_formulas(self, case):
        assert fft_shape(8192) == (128, 64)
        _check_against_reference(case, 8192, 0.1)


class TestBlockedTransform:
    """The four-step transforms against numpy.fft and scipy.fft."""

    @pytest.mark.parametrize("n", [8192, 12288, 32768, 49152])
    def test_matches_numpy_and_scipy(self, n):
        import scipy.fft

        transform = _Transform(n)
        n1, n2 = transform.shape
        # n2 is the smallest divisor of n from 64 on
        assert transform.blocked and n1 * n2 == n and n1 >= 8
        assert n2 >= 64 and not any(n % d == 0 for d in range(64, n2))
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for ref in (np.fft.fft(x), scipy.fft.fft(x)):
            buf = x.copy()
            transform.forward(buf)
            assert max_abs(buf - transform.spectral(ref)) \
                <= 1e-13 * max_abs(ref)
            buf = transform.spectral(ref)
            transform.inverse(buf)
            for inv in (np.fft.ifft(ref), scipy.fft.ifft(ref)):
                assert max_abs(buf - inv) <= 1e-13 * max_abs(inv)

    @pytest.mark.parametrize("n, prime", [(8, 2), (9, 3), (8191, 8191),
                                          (2 * 4099, 4099), (8 * 1031, 1031),
                                          (49152, 3), (2 * 3 * 5 * 7, 7)])
    def test_largest_prime_factor(self, n, prime):
        assert largest_prime_factor(n) == prime

    @pytest.mark.parametrize("n", [4096, 8191, 2 * 4099])
    def test_plain_path(self, n):
        # below the size threshold, prime, and no divisor from 64 that
        # leaves 8 rows
        assert fft_shape(n) == (1, n)
        transform = _Transform(n)
        assert not transform.blocked
        x = np.random.default_rng(n).standard_normal(n) + 0j
        assert transform.spectral(x) is x
        buf = x.copy()
        transform.forward(buf)
        assert np.array_equal(buf, np.fft.fft(x))


# the fast forms against the ones they replace ------------------------------

def _friction_oracle(values, grid, config):
    """Kostin's friction potential as it was computed before the one-cumsum
    form: polar_decompose, np.interp over the valid S, and two np.trapezoid
    calls."""
    polar = qf.polar_decompose(ComplexField(grid, values))
    rho, S, valid = polar.rho, polar.S, polar.valid
    if not valid.all():
        # np.interp returns S itself at the valid points, so only the
        # others need it
        x = grid.x
        S[~valid] = np.interp(x[~valid], x[valid], S[valid])
    rho = rho / np.trapezoid(rho, dx=grid.dx)
    S_mean = np.trapezoid(rho * S, dx=grid.dx)
    return config.gamma * (S - S_mean)


def _interior_gaps(values):
    """The sub-threshold runs between the first and the last valid point,
    as (start, stop) index pairs."""
    valid = node_mask(np.abs(values) ** 2)
    idx = np.flatnonzero(valid)
    return [(a + 1, b) for a, b in zip(idx[:-1], idx[1:]) if b > a + 1]


def _packet_with_nodes(nodes):
    # wide box: the tails fall below the node threshold
    g = sym_grid(30, 1024)
    values = gaussian_packet(g, 1.0, x0=1.0, p0=0.7).values.copy()
    values[nodes] = 0.0
    return ComplexField(g, values)


def _real_sign_flips():
    # a real state whose sign flips between valid neighbours, where the raw
    # phase steps by exactly +pi or -pi
    g = sym_grid(4, 1000)
    values = np.cos(3.0 * g.x) * np.exp(-0.5 * g.x ** 2) + 0j
    flips = values.real[1:] * values.real[:-1] < 0
    assert flips.sum() >= 6 and node_mask(np.abs(values) ** 2).all()
    return ComplexField(g, values)


def _kostin_wide_state():
    # the kostin-wide benchmark's scenario at n = 1024 after 400 steps:
    # noise in the tails leaves many sub-threshold fragments
    cfg = PropagatorConfig(model="kostin", potential=PotentialSpec(
        "harmonic", omega0=OMEGA0), gamma=0.3 * OMEGA0, dt=5e-3)
    psi0 = gaussian_packet(sym_grid(8, 1024), SIGMA_COH, x0=2.0)
    psi = propagate(psi0, cfg, 2.0, snapshot_every=10 ** 6,
                    consumers=()).snapshots[-1]
    assert len(_interior_gaps(psi.values)) >= 5
    return psi


FRICTION_STATES = {
    "all-valid": lambda: gaussian_packet(sym_grid(4, 512), 1.0, x0=0.5,
                                         p0=6.0),
    "tails-only": lambda: _packet_with_nodes([]),
    "three-interior-nodes": lambda: _packet_with_nodes([500, 530, 531]),
    "adjacent-one-point-gaps": lambda: _packet_with_nodes([600, 602, 604]),
    "real-sign-flips": _real_sign_flips,
    "kostin-wide-fragmented": _kostin_wide_state,
}


class TestFastFormOracles:
    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
    def test_phase_factor_is_complex_exp(self, scale):
        # the one-tangent form differed from np.exp(1j * phase) by at most
        # 2.7e-16 at these scales on x86-64 with numpy 2.4; the bound
        # leaves room for other builds
        phase = np.random.default_rng(7).uniform(-scale, scale, 100_000)
        out = _phase_factor(phase)
        assert out.dtype == complex
        assert max_abs(out - np.exp(1j * phase)) <= 4.5e-16

    def test_phase_factor_at_poles_of_the_tangent_and_huge_phases(self):
        # tan(phase / 2) is largest at odd multiples of pi; it stays finite
        # because no float is an odd multiple of pi / 2
        k = np.arange(-10 ** 6, 10 ** 6, 37)
        rng = np.random.default_rng(3)
        huge = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(
            0.0, 300.0, 20_000)
        for phase in ((2 * k + 1) * np.pi, np.append(huge, [1e300, -1e300])):
            out = _phase_factor(phase)
            assert np.isfinite(out).all()
            assert max_abs(np.abs(out) - 1.0) <= 1e-15
        assert max_abs(_phase_factor(np.array([np.pi, -np.pi])) + 1.0) \
            <= 1e-15

    def test_phase_factor_of_non_finite_phase_is_nan(self):
        # as cos + i sin gave
        with np.errstate(invalid="ignore"):
            out = _phase_factor(np.array([np.nan, np.inf, -np.inf, 0.0]))
        assert np.isnan(out.real[:3]).all() and np.isnan(out.imag[:3]).all()
        assert out[3] == 1.0

    @pytest.mark.parametrize("n", [8, 9, 2047, 2048, 49152])
    def test_mirrored_kinetic_factor_is_full_spectrum(self, n):
        g = sym_grid(8, n)
        k2 = g.wavenumbers() ** 2
        c = -0.5 * 0.37 * 2e-3
        phase = c * k2
        out = _mirrored_phase_factor(c * k2[:n // 2 + 1], n, _phase_factor)
        # bit for bit against _phase_factor of the full spectrum, and
        # within its bound of the complex exponential
        assert np.array_equal(out, _phase_factor(phase))
        assert max_abs(out - np.exp(1j * phase)) <= 4.5e-16

    def test_friction_interpolates_only_below_threshold(self):
        # the one-cumsum friction potential against the formula it
        # replaced, _friction_oracle, within rounding on every state
        cfg = PropagatorConfig(model="kostin", gamma=0.3)
        for name, build in FRICTION_STATES.items():
            psi = build()
            gaps = _interior_gaps(psi.values)
            if name == "adjacent-one-point-gaps":
                assert gaps[-3:] == [(600, 601), (602, 603), (604, 605)]
            if name == "three-interior-nodes":
                assert gaps[-2:] == [(500, 501), (530, 532)]
            ref = _friction_oracle(psi.values, psi.grid, cfg)
            W = _friction_potential(psi.values, cfg)
            assert max_abs(W - ref) <= 1e-13 * max_abs(ref), name

    def test_friction_of_state_below_threshold_raises(self):
        cfg = PropagatorConfig(model="kostin", gamma=0.3)
        with pytest.raises(AllBelowThreshold):
            _friction_potential(np.zeros(64, dtype=complex), cfg)


# the series record against the diagnostics it replaces ---------------------

RECORD_CASES = {
    "standard": dict(model="standard"),
    "ck": dict(model="caldirola_kanai", gamma=0.3),
    "kostin": dict(model="kostin", gamma=0.3),
}


class TestSeriesRecord:
    """propagate's series rows against fields.norm, expectation_position,
    position_spread and physical_energy, which compute them one at a
    time."""

    @pytest.mark.parametrize("n", [512, 8192])
    @pytest.mark.parametrize("case", sorted(RECORD_CASES))
    def test_rows_match_diagnostics(self, case, n):
        cfg = PropagatorConfig(potential=HARMONIC, dt=1e-2,
                               **RECORD_CASES[case])
        # wide enough that |psi|^2 at the box ends is 1e-3 of its peak, so
        # the trapezoid's end terms count
        psi0 = gaussian_packet(sym_grid(8, n), 2.5, x0=1.0, p0=0.5,
                               time=1.0)
        run = propagate(psi0, cfg, 1.1, snapshot_every=2)
        assert len(run.snapshots) == len(run.times) == 6
        for i, psi in enumerate(run.snapshots):
            assert run.times[i] == psi.time
            for column, oracle in ((run.norms, norm(psi)),
                                   (run.x_means,
                                    qf.expectation_position(psi)),
                                   (run.sigmas, position_spread(psi)),
                                   (run.energies, physical_energy(psi, cfg))):
                assert abs(column[i] - oracle) <= 1e-13 * abs(oracle)

    def test_width_on_a_grid_away_from_zero(self):
        # <x^2> - <x>^2 about x = 0 would cancel to about 1e-11 here
        g = qf.GridSpec(100.0, 116.0, 1024)
        psi = gaussian_packet(g, 0.5, x0=108.5, p0=0.5)
        record = propagators.SeriesRecord(g, PropagatorConfig(), 1)
        _, _, mean, sigma, _ = record.row(psi)
        assert abs(mean - qf.expectation_position(psi)) <= 1e-13 * 108.5
        assert abs(sigma - position_spread(psi)) <= 1e-13 * 0.5


# closed-form oracle --------------------------------------------------------

class TestOracle:
    def test_initial_time_is_initial_packet(self):
        g = sym_grid(10, 512)
        cfg = PropagatorConfig(dt=1e-3)
        out = analytic_gaussian_oracle({"sigma0": 1.0, "x0": 0.5, "p0": 2.0,
                                        "grid": g}, cfg, 0.0)
        ref = gaussian_packet(g, 1.0, x0=0.5, p0=2.0)
        assert max_abs(out.values - ref.values) < 1e-12

    def test_free_width_formula(self):
        g = sym_grid(20, 2048)
        cfg = PropagatorConfig(dt=1e-3)
        out = analytic_gaussian_oracle({"sigma0": 1.0, "grid": g}, cfg, 2.0)
        assert abs(position_spread(out) - math.sqrt(2.0)) < 1e-9
        assert free_gaussian_width(1.0, 2.0) == pytest.approx(
            math.sqrt(2.0))

    def test_coherent_half_period_mirror(self):
        g = sym_grid(8, 1024)
        cfg = PropagatorConfig(potential=HARMONIC, dt=1e-3)
        out = analytic_gaussian_oracle(
            {"sigma0": math.sqrt(0.5), "x0": 1.0, "grid": g}, cfg, math.pi)
        assert abs(np.trapezoid(g.x * np.abs(out.values) ** 2, dx=g.dx)
                   + 1.0) < 1e-9
        assert abs(position_spread(out) - math.sqrt(0.5)) < 1e-9


# closed-form damped oscillator --------------------------------------------

class TestDampedOscillator:
    @pytest.mark.parametrize("ratio", [0.0, 0.3, 2.0, 4.0])
    def test_matches_numerical_integration(self, ratio):
        # the closed form replaces an adaptive ODE solve, kept here as the
        # oracle
        from scipy.integrate import solve_ivp
        w, gamma = OMEGA0, ratio * OMEGA0
        t = np.linspace(0.0, 40.0, 201)
        sol = solve_ivp(lambda _, y: [y[1], -gamma * y[1] - w ** 2 * y[0]],
                        (0.0, 40.0), [2.0, -0.5], method="DOP853",
                        t_eval=t, rtol=1e-13, atol=1e-13)
        x, v = damped_oscillator(2.0, -0.5, w, gamma, t)
        assert max_abs(x - sol.y[0]) < 1e-10
        assert max_abs(v - sol.y[1]) < 1e-10

    def test_critical_damping_exact(self):
        w, x0, v0 = OMEGA0, 2.0, -0.5
        t = np.linspace(0.0, 50.0, 101)
        x, v = damped_oscillator(x0, v0, w, 2.0 * w, t)
        b = v0 + w * x0
        assert max_abs(x - (x0 + b * t) * np.exp(-w * t)) < 1e-14
        assert max_abs(v - (v0 - w * b * t) * np.exp(-w * t)) < 1e-14

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_continuous_across_critical_damping(self, sign):
        # Omega is tiny and imaginary (sign +1) or real (sign -1)
        w = OMEGA0
        t = np.linspace(0.0, 50.0, 101)
        crit = damped_oscillator(2.0, -0.5, w, 2.0 * w, t)
        near = damped_oscillator(2.0, -0.5, w, 2.0 * w * (1.0 + sign * 1e-9),
                                 t)
        for a, b in zip(near, crit):
            assert max_abs(a - b) < 1e-8

    def test_overdamped_finite_at_late_times(self):
        t = np.array([0.0, 1.0, 1e2, 1e4])
        x, v = damped_oscillator(2.0, 1.0, OMEGA0, 4.0 * OMEGA0, t)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(v))
        assert x[0] == pytest.approx(2.0) and v[0] == pytest.approx(1.0)
        assert x[-1] == 0.0 and v[-1] == 0.0

    def test_complex_start_is_the_gaussian_width_factor(self):
        # s(0) = 1, s'(0) = i eps solves the oscillator; for gamma = 0 it is
        # the width factor of analytic_gaussian_oracle
        w, eps = OMEGA0, 0.7
        t = np.linspace(0.0, 30.0, 61)
        s, s_dot = damped_oscillator(1.0 + 0j, 1j * eps, w, 0.0, t)
        assert max_abs(s - (np.cos(w * t) + 1j * eps / w * np.sin(w * t))) \
            < 1e-14
        assert max_abs(s_dot - (-w * np.sin(w * t)
                                + 1j * eps * np.cos(w * t))) < 1e-14


# classical dissipative trajectory -----------------------------------------

class TestClassicalTrajectory:
    """x'' + gamma x' + omega0^2 x = 0, to which Hamilton's equations of
    the classical Caldirola-Kanai Hamiltonian reduce; at m = 1 the physical
    energy is v^2/2 + omega0^2 x^2/2, and it decays as E0 exp(-gamma t)."""

    @staticmethod
    def energy(x, v, omega0=OMEGA0):
        return v ** 2 / 2.0 + 0.5 * omega0 ** 2 * x ** 2

    def test_frictionless_energy_conserved(self):
        w = HARMONIC.omega0
        x, v = damped_oscillator(1.0, 0.0, w, 0.0,
                                 np.linspace(0.0, 20.0, 400))
        E = self.energy(x, v, w)
        assert max_abs(E - E[0]) < 1e-8

    def test_stroboscopic_exponential_decay(self):
        gamma = 0.3 * OMEGA0
        wt = math.sqrt(OMEGA0 ** 2 - gamma ** 2 / 4.0)
        t = np.linspace(0.0, 3.0 / gamma, 400)
        E = self.energy(*damped_oscillator(2.0, 0.0, OMEGA0, gamma, t))
        # sampled once per half pseudo-period the decay law is exact
        for n in range(1, int(3.0 / gamma / (math.pi / wt)) + 1):
            tn = n * math.pi / wt
            En = np.interp(tn, t, E)
            assert En == pytest.approx(E[0] * math.exp(-gamma * tn),
                                       rel=1e-4)

    def test_overdamped_position_monotone_after_one_extremum(self):
        x, _ = damped_oscillator(2.0, 1.0, OMEGA0, 4.0 * OMEGA0,
                                 np.linspace(0.0, 20.0, 2000))
        dx = np.diff(x)
        sign_changes = np.count_nonzero(np.diff(np.sign(dx[dx != 0])) != 0)
        assert sign_changes <= 1


def test_physical_energy_ck_uses_damped_kinetic_term():
    g = sym_grid(8, 512)
    psi = ComplexField(g, gaussian_packet(g, SIGMA_COH).values, time=2.0)
    pot = PotentialSpec("harmonic", omega0=OMEGA0)
    gamma = 0.5
    std = physical_energy(psi, PropagatorConfig(potential=pot, dt=1e-3))
    ck = physical_energy(psi, PropagatorConfig(
        model="caldirola_kanai", potential=pot, gamma=gamma, dt=1e-3))
    from qstream.fields import kinetic_energy
    T = kinetic_energy(psi)
    assert ck == pytest.approx(std - T * (1 - math.exp(-2 * gamma * 2.0)),
                               rel=1e-10)
