"""Split-step propagation for the three dynamical models plus the
closed-form Gaussian oracle and the classical dissipative trajectory."""

import math
import tracemalloc

import numpy as np
import pytest

from qstream import (ClassicalCKState, ComplexField, PhysicalConstants,
                     PotentialSpec, PropagatorConfig, analytic_gaussian_oracle,
                     classical_ck_trajectory, gaussian_packet, propagate,
                     step)
from qstream import fields as qf, propagators
from qstream.errors import (AllBelowThreshold, PhaseUndefined,
                            StabilityViolation, UnsupportedPotential,
                            ValidationError)
from qstream.fields import (node_mask, norm, polar_decompose,
                            position_spread)
from qstream.propagators import (_friction_potential, _mirrored_phase_factor,
                                 _phase_factor, _split_step, check_stability,
                                 classical_ck_energy, damped_oscillator,
                                 free_gaussian_width, physical_energy,
                                 state_time, whole_steps)
from qstream.scenarios import parse_scenario, run_scenario

from conftest import max_abs, sym_grid

C = PhysicalConstants()
OMEGA0 = 2 * math.pi / 10.0
SIGMA_COH = math.sqrt(0.5 / OMEGA0)
HARMONIC = PotentialSpec("harmonic", omega0=1.0)


def coherent(grid, a=1.0):
    return gaussian_packet(grid, C, sigma0=math.sqrt(0.5), x0=a)


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

    def test_dissipative_ck_requires_horizon(self):
        with pytest.raises(ValueError):
            PropagatorConfig(model="caldirola_kanai", gamma=0.1)

    def test_stability_bound_rejects_huge_step(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, C, sigma0=math.sqrt(0.5), x0=3.0)
        cfg = PropagatorConfig(potential=HARMONIC, dt=1.0)
        with pytest.raises(StabilityViolation):
            check_stability(psi, cfg)


# standard model ------------------------------------------------------------

class TestStandardStepper:
    def test_ground_state_one_period(self):
        g = sym_grid(8, 512)
        psi0 = gaussian_packet(g, C, sigma0=math.sqrt(0.5))
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
        g = sym_grid(10, 512)
        psi = gaussian_packet(g, C, 1.0, p0=1.0)
        dt = 1e-3
        half_V = _phase_factor(-0.5 * dt / C.hbar * HARMONIC.evaluate(g, C))
        kin = _phase_factor(-0.5 * C.hbar * dt / C.mass
                            * g.wavenumbers() ** 2)
        fwd = _split_step(psi.values, half_V, kin)
        # the conjugate factors are the step with -dt
        back = _split_step(fwd, half_V.conj(), kin.conj())
        assert max_abs(back - psi.values) < 1e-9

    def test_norm_drift_per_step(self):
        g = sym_grid(10, 512)
        psi = gaussian_packet(g, C, 1.0, p0=1.0)
        cfg = PropagatorConfig(potential=HARMONIC, dt=1e-3)
        out = step(psi, cfg)
        assert abs(norm(out) - norm(psi)) < 1e-12

    def test_free_gaussian_width_at_t2(self):
        g = sym_grid(20, 2048)
        cfg = PropagatorConfig(dt=1e-3)
        run = propagate(gaussian_packet(g, C, 1.0), cfg, 2.0,
                        snapshot_every=10 ** 6)
        assert abs(position_spread(run.snapshots[-1])
                   - math.sqrt(2.0)) < 1e-6

    def test_coherent_state_three_periods(self):
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(potential=HARMONIC, dt=5e-4)
        t_final = round(6 * math.pi / cfg.dt) * cfg.dt
        run = propagate(coherent(g), cfg, t_final, snapshot_every=2000,
                        series_every=400)
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
        psi = gaussian_packet(g, C, SIGMA_COH, x0=2.0)
        cfg = PropagatorConfig(model="caldirola_kanai",
                               potential=PotentialSpec("harmonic",
                                                       omega0=OMEGA0),
                               gamma=0.3 * OMEGA0, dt=1e-3, t_final=1.0)
        out = psi
        for _ in range(20):
            prev = norm(out)
            out = step(out, cfg)
            assert abs(norm(out) - prev) < 1e-10

    def test_stepping_past_horizon_rejected(self):
        g = sym_grid(8, 256)
        psi = ComplexField(g, gaussian_packet(g, C, SIGMA_COH).values,
                           time=0.9995)
        cfg = PropagatorConfig(model="caldirola_kanai",
                               potential=PotentialSpec("harmonic",
                                                       omega0=OMEGA0),
                               gamma=OMEGA0, dt=1e-3, t_final=1.0)
        ok = step(psi, cfg)  # lands exactly on t_final
        with pytest.raises(StabilityViolation):
            step(ok, cfg)

    def test_physical_energy_decreases(self):
        g = sym_grid(8, 1024)
        psi = gaussian_packet(g, C, SIGMA_COH, x0=2.0)
        cfg = PropagatorConfig(model="caldirola_kanai",
                               potential=PotentialSpec("harmonic",
                                                       omega0=OMEGA0),
                               gamma=0.3 * OMEGA0, dt=1e-3, t_final=10.0)
        run = propagate(psi, cfg, 10.0, snapshot_every=10 ** 6,
                        series_every=1000)
        assert run.energies[-1] < run.energies[0]


def _counted_friction(monkeypatch, raise_on=None):
    """Wrap the stepper's _friction_potential to count its calls in the
    returned list, raising AllBelowThreshold on call number raise_on."""
    calls = []

    def friction(values, grid, config):
        calls.append(None)
        if len(calls) == raise_on:
            raise AllBelowThreshold("state below threshold")
        return _friction_potential(values, grid, config)

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
        psi = gaussian_packet(g, C, sigma0=math.sqrt(0.5))
        cfg = PropagatorConfig(model="kostin", potential=HARMONIC,
                               gamma=0.3, dt=1e-3)
        W = _friction_potential(psi.values, psi.grid, cfg)
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
        with pytest.raises(PhaseUndefined):
            step(psi, cfg)

    def test_trial_state_phase_undefined(self, monkeypatch):
        # the predictor-corrector's second friction potential, of the trial
        # state, maps AllBelowThreshold to PhaseUndefined like the first
        calls = _counted_friction(monkeypatch, raise_on=2)
        cfg = PropagatorConfig(model="kostin", potential=HARMONIC,
                               gamma=0.3, dt=1e-3)
        with pytest.raises(PhaseUndefined):
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
        run = propagate(coherent(g), cfg, 10.0, snapshot_every=10 ** 6,
                        series_every=100)
        wt = math.sqrt(1.0 - gamma ** 2 / 4.0)
        t = run.times
        expect = np.exp(-0.5 * gamma * t) * (
            np.cos(wt * t) + 0.5 * gamma / wt * np.sin(wt * t))
        assert max_abs(run.x_means - expect) < 1e-4


# run loop ------------------------------------------------------------------

class TestPropagate:
    def test_zero_duration_returns_initial(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, C, 1.0)
        run = propagate(psi, PropagatorConfig(dt=1e-3), psi.time)
        assert len(run.snapshots) == 1
        assert run.snapshots[0] is psi

    def test_backwards_target_rejected(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, C, 1.0)
        with pytest.raises(ValueError):
            propagate(psi, PropagatorConfig(dt=1e-3), -1.0)

    def test_ground_state_norms_over_ten_periods(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, C, sigma0=math.sqrt(0.5))
        cfg = PropagatorConfig(potential=HARMONIC, dt=2e-3)
        n_steps = round(20 * math.pi / cfg.dt)
        run = propagate(psi, cfg, n_steps * cfg.dt,
                        snapshot_every=n_steps // 100)
        assert len(run.snapshots) >= 100
        assert max_abs(run.norms - 1.0) < 1e-8

    def test_off_grid_t_final_rejected(self):
        # 0.505 lies between the 50th and 51st step of 0.01
        psi = gaussian_packet(sym_grid(8, 256), C, 1.0)
        with pytest.raises(ValueError, match="not a whole number of steps"):
            propagate(psi, PropagatorConfig(dt=0.01), 0.505)

    def test_rounded_division_accepted(self):
        # 0.3 / 0.1 = 2.9999999999999996: only the rounding of the division
        psi = gaussian_packet(sym_grid(8, 256), C, 1.0)
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
                               dt=1e-2, t_final=1.0)
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

    def test_state_times_are_t0_plus_i_dt(self, tmp_path):
        psi = gaussian_packet(sym_grid(8, 256), C, 1.0, time=0.1)
        run = propagate(psi, PropagatorConfig(dt=1e-3), 0.6,
                        series_every=7)
        assert run.steps == 500
        expected = [0.1 + i * 1e-3 for i in range(501)]
        assert [s.time for s in run.snapshots] == expected
        assert all(type(s.time) is float for s in run.snapshots)
        recorded = [i for i in range(501) if i % 7 == 0 or i == 500]
        assert run.times.tolist() == [expected[i] for i in recorded]
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
                               gamma=5.6e5, dt=2.5e-3, t_final=2.5e-3)
        psi = gaussian_packet(g, C, sigma0=20.0)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            propagate(psi, cfg, 2.5e-3)

    def test_stability_checked_on_entry(self):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, C, sigma0=math.sqrt(0.5), x0=3.0)
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
                               dt=1e-2, t_final=1.0)
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
        half_V = _phase_factor(-5e-3 * HARMONIC.evaluate(g, C))
        kin = _phase_factor(-5e-3 * g.wavenumbers() ** 2)
        before = [a.copy() for a in (values, half_V, kin)]
        out = _split_step(values, half_V, kin)
        assert not np.shares_memory(out, values)
        for arg, copy in zip((values, half_V, kin), before):
            assert np.array_equal(arg, copy)

    @pytest.mark.parametrize("model",
                             ["standard", "caldirola_kanai", "kostin"])
    def test_propagate_leaves_stored_states_unchanged(self, model):
        # a write into a stored state's values after it was stored would
        # break the step from it to the next stored state
        g = sym_grid(8, 256)
        cfg = PropagatorConfig(model=model, potential=HARMONIC, gamma=0.3,
                               dt=1e-2, t_final=1.0)
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
        # run, 40 B a row.  The step and the four diagnostics are stubbed so
        # that 40,000 rows trace in about a second; each diagnostic still
        # returns a fresh numpy scalar, as the real ones do
        def diagnostic(psi, *args):
            return np.float64(psi.time)

        for name in ("norm", "expectation_position", "position_spread"):
            monkeypatch.setattr(qf, name, diagnostic)
        monkeypatch.setattr(propagators, "physical_energy", diagnostic)
        monkeypatch.setattr(propagators, "_stepper",
                            lambda grid, config: lambda values, t: values)
        psi0 = gaussian_packet(sym_grid(8, 8), C, 1.0)
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
    S = config.constants.hbar * (raw + offset)
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
    c, dt, gamma = config.constants, config.dt, config.gamma
    V = config.potential.evaluate(grid, c)
    kin_phase = -0.5j * c.hbar * (2.0 * np.pi
                                  * np.fft.fftfreq(grid.n_points, grid.dx)) ** 2

    def split(vals, V_eff, scale=1.0):
        half_V = np.exp(-0.5j * V_eff * dt / c.hbar)
        kin = np.exp(kin_phase * scale * dt / c.mass)
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
    "ck-gamma0.3": dict(model="caldirola_kanai", gamma=0.3, t_final=1.0),
    "kostin-gamma0": dict(model="kostin"),
    "kostin-gamma0.3": dict(model="kostin", gamma=0.3),
}


class TestCachedPlanOracle:
    """The cached phase factors, the in-place numpy.fft transforms and the
    real-arithmetic unwrap against the per-step formulas they replace: 200
    steps at n = 512."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_propagate_and_step_match_per_step_formulas(self, case):
        g = sym_grid(8, 512)
        cfg = PropagatorConfig(potential=HARMONIC, dt=5e-3,
                               **ORACLE_CASES[case])
        psi0 = gaussian_packet(g, C, math.sqrt(0.5), x0=1.0, p0=0.5)
        run = propagate(psi0, cfg, 1.0, snapshot_every=1)
        assert len(run.snapshots) == 201
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


# the fast forms against the ones they replace ------------------------------

class TestFastFormOracles:
    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
    def test_phase_factor_is_complex_exp(self, scale):
        # cos + i sin and np.exp(1j * phase) were bit-equal on x86-64 with
        # numpy 2.4; the bound leaves room for other builds
        phase = np.random.default_rng(7).uniform(-scale, scale, 100_000)
        out = _phase_factor(phase)
        assert out.dtype == complex
        assert max_abs(out - np.exp(1j * phase)) <= 4.5e-16

    @pytest.mark.parametrize("n", [8, 9, 2047, 2048, 49152])
    def test_mirrored_kinetic_factor_is_full_spectrum(self, n):
        g = sym_grid(8, n)
        k2 = g.wavenumbers() ** 2
        c = -0.5 * C.hbar * 0.37 * 2e-3 / C.mass
        phase = c * k2
        out = _mirrored_phase_factor(c * k2[:n // 2 + 1], n)
        # bit for bit against cos + i sin of the full spectrum, and within
        # the _phase_factor bound of the complex exponential
        assert np.array_equal(out, np.cos(phase) + 1j * np.sin(phase))
        assert max_abs(out - np.exp(1j * phase)) <= 4.5e-16

    def test_friction_interpolates_only_below_threshold(self):
        # wide box: the tails fall below the node threshold; three nodes
        # inside the support
        g = sym_grid(30, 1024)
        values = gaussian_packet(g, C, 1.0, x0=1.0, p0=0.7).values.copy()
        values[[500, 530, 531]] = 0.0
        psi = ComplexField(g, values, 0.0)
        cfg = PropagatorConfig(model="kostin", gamma=0.3)
        polar = polar_decompose(psi, C)
        assert 0 < polar.valid.sum() < g.n_points
        x = g.x
        S = np.interp(x, x[polar.valid], polar.S[polar.valid])
        rho = polar.rho / np.trapezoid(polar.rho, dx=g.dx)
        ref = cfg.gamma * (S - np.trapezoid(rho * S, dx=g.dx))
        assert np.array_equal(_friction_potential(psi.values, psi.grid, cfg), ref)


# closed-form oracle --------------------------------------------------------

class TestOracle:
    def test_initial_time_is_initial_packet(self):
        g = sym_grid(10, 512)
        cfg = PropagatorConfig(dt=1e-3)
        out = analytic_gaussian_oracle({"sigma0": 1.0, "x0": 0.5, "p0": 2.0,
                                        "grid": g}, cfg, 0.0)
        ref = gaussian_packet(g, C, 1.0, x0=0.5, p0=2.0)
        assert max_abs(out.values - ref.values) < 1e-12

    def test_free_width_formula(self):
        g = sym_grid(20, 2048)
        cfg = PropagatorConfig(dt=1e-3)
        out = analytic_gaussian_oracle({"sigma0": 1.0, "grid": g}, cfg, 2.0)
        assert abs(position_spread(out) - math.sqrt(2.0)) < 1e-9
        assert free_gaussian_width(1.0, 2.0, C) == pytest.approx(
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
    def test_frictionless_energy_conserved(self):
        cfg = PropagatorConfig(model="standard", potential=HARMONIC, dt=1e-3)
        states = classical_ck_trajectory(ClassicalCKState(1.0, 0.0, 0.0),
                                         cfg, t_final=20.0)
        E = classical_ck_energy(states, cfg)
        assert max_abs(E - E[0]) < 1e-8

    def test_stroboscopic_exponential_decay(self):
        gamma = 0.3 * OMEGA0
        pot = PotentialSpec("harmonic", omega0=OMEGA0)
        cfg = PropagatorConfig(model="caldirola_kanai", potential=pot,
                               gamma=gamma, dt=1e-3, t_final=40.0)
        wt = math.sqrt(OMEGA0 ** 2 - gamma ** 2 / 4.0)
        state0 = ClassicalCKState(2.0, 0.0, 0.0)
        states = classical_ck_trajectory(state0, cfg, t_final=3.0 / gamma)
        E = classical_ck_energy(states, cfg)
        t = np.array([s.t for s in states])
        # sampled once per half pseudo-period the decay law is exact
        for n in range(1, int(3.0 / gamma / (math.pi / wt)) + 1):
            tn = n * math.pi / wt
            En = np.interp(tn, t, E)
            assert En == pytest.approx(E[0] * math.exp(-gamma * tn),
                                       rel=1e-4)

    def test_overdamped_position_monotone_after_one_extremum(self):
        pot = PotentialSpec("harmonic", omega0=OMEGA0)
        cfg = PropagatorConfig(model="caldirola_kanai", potential=pot,
                               gamma=4.0 * OMEGA0, dt=1e-3, t_final=20.0)
        states = classical_ck_trajectory(ClassicalCKState(2.0, 1.0, 0.0),
                                         cfg, t_final=20.0, n_samples=2000)
        x = np.array([s.x for s in states])
        dx = np.diff(x)
        sign_changes = np.count_nonzero(np.diff(np.sign(dx[dx != 0])) != 0)
        assert sign_changes <= 1

    def test_requires_horizon(self):
        cfg = PropagatorConfig(model="standard", potential=HARMONIC, dt=1e-3)
        with pytest.raises(ValueError):
            classical_ck_trajectory(ClassicalCKState(1.0, 0.0, 0.0), cfg)

    def test_unsupported_potential(self):
        cfg = PropagatorConfig(model="standard", dt=1e-3)
        with pytest.raises(UnsupportedPotential):
            classical_ck_trajectory(ClassicalCKState(1.0, 0.0, 0.0), cfg,
                                    t_final=1.0)


def test_physical_energy_ck_uses_damped_kinetic_term():
    g = sym_grid(8, 512)
    psi = ComplexField(g, gaussian_packet(g, C, SIGMA_COH).values, time=2.0)
    pot = PotentialSpec("harmonic", omega0=OMEGA0)
    gamma = 0.5
    std = physical_energy(psi, PropagatorConfig(potential=pot, dt=1e-3))
    ck = physical_energy(psi, PropagatorConfig(
        model="caldirola_kanai", potential=pot, gamma=gamma, dt=1e-3,
        t_final=10.0))
    from qstream.fields import kinetic_energy
    T = kinetic_energy(psi, C)
    assert ck == pytest.approx(std - T * (1 - math.exp(-2 * gamma * 2.0)),
                               rel=1e-10)
