"""Split-step propagation for the three dynamical models plus the
closed-form Gaussian oracle and the classical dissipative trajectory."""

import math

import numpy as np
import pytest

from qstream import (ClassicalCKState, ComplexField, PhysicalConstants,
                     PotentialSpec, PropagatorConfig, analytic_gaussian_oracle,
                     classical_ck_trajectory, gaussian_packet, propagate,
                     step)
from qstream.errors import (PhaseUndefined, StabilityViolation,
                            UnsupportedPotential)
from qstream.fields import norm, position_spread
from qstream.propagators import (_friction_potential, _split_step,
                                 check_stability, classical_ck_energy,
                                 free_gaussian_width, physical_energy)

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
        with pytest.raises(ValueError):
            PotentialSpec("coulomb")

    def test_harmonic_needs_positive_frequency(self):
        with pytest.raises(ValueError):
            PotentialSpec("harmonic", omega0=0.0)

    def test_tabulated_needs_values(self):
        with pytest.raises(ValueError):
            PotentialSpec("tabulated")

    def test_polynomial_evaluate_and_gradient(self):
        g = sym_grid(1, 16)
        p = PotentialSpec("polynomial", coefficients=(1.0, 2.0, 3.0))
        assert np.allclose(p.evaluate(g, C), 1 + 2 * g.x + 3 * g.x ** 2)
        assert np.allclose(p.gradient(g.x, C), 2 + 6 * g.x)

    def test_tabulated_gradient_unsupported(self):
        p = PotentialSpec("tabulated", values=np.zeros(16))
        with pytest.raises(UnsupportedPotential):
            p.gradient(0.0, C)

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
        T = 2 * math.pi
        run = propagate(psi0, cfg, T, snapshot_every=10 ** 6)
        final = run.snapshots[-1]
        assert max_abs(np.abs(final.values) - np.abs(psi0.values)) < 1e-8
        # global phase advanced by -omega t / 2
        assert max_abs(final.values
                       - np.exp(-0.5j * final.time) * psi0.values) < 1e-6

    def test_single_step_reversible(self):
        g = sym_grid(10, 512)
        psi = gaussian_packet(g, C, 1.0, p0=1.0)
        V = HARMONIC.evaluate(g, C)
        kin_phase = -0.5j * C.hbar * g.wavenumbers() ** 2
        fwd = _split_step(psi.values, V, kin_phase, 1e-3, C)
        back = _split_step(fwd, V, kin_phase, -1e-3, C)
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
        t_final = 6 * math.pi
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
        W = _friction_potential(psi, cfg)
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
        t_final = 20 * math.pi
        n_steps = int(round(t_final / cfg.dt))
        run = propagate(psi, cfg, t_final, snapshot_every=n_steps // 100)
        assert len(run.snapshots) >= 100
        assert max_abs(run.norms - 1.0) < 1e-8

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
        g = sym_grid(8, 256)
        cfg = PropagatorConfig(model=model, potential=HARMONIC, gamma=0.3,
                               dt=1e-2, t_final=1.0)
        psi = coherent(g)
        run = propagate(psi, cfg, 0.05, snapshot_every=1)
        for snap in run.snapshots[1:]:
            psi = step(psi, cfg)
            assert snap.time == psi.time
            assert np.array_equal(snap.values, psi.values)

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

    def test_unsupported_potential(self):
        g = sym_grid(8, 256)
        cfg = PropagatorConfig(
            potential=PotentialSpec("polynomial", coefficients=(0, 1, 0)),
            dt=1e-3)
        with pytest.raises(UnsupportedPotential):
            analytic_gaussian_oracle({"sigma0": 1.0, "grid": g}, cfg, 1.0)


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
