"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line with the measured value and its tolerance."""

import json
import math

import numpy as np
import pytest
from scipy.signal import argrelmax, argrelmin

from qstream import (ClassicalCKState, GridSpec, OpticalScene,
                     PhysicalConstants, PotentialSpec, PropagatorConfig,
                     SlitSpec, analytic_gaussian_oracle, check_non_crossing,
                     classical_ck_trajectory, fresnel_propagate,
                     gaussian_packet, integrate_bundle, photon_path_bundle,
                     propagate, sample_initial_positions, tube_probability)
from qstream import cli
from qstream.fields import derivative, polar_decompose, quantum_potential
from qstream.optics import (FresnelEvaluator, PoyntingField,
                            assemble_em_fields, energy_density,
                            gaussian_beam_intensity, poynting)
from qstream.propagators import classical_ck_energy, physical_energy, step
from qstream.scenarios import (_launch_positions, _path_non_crossing,
                               builtin_scenario, initial_state,
                               parse_scenario, propagator_config)
from qstream.trajectories import VelocitySampler, integrate_trajectory

C = PhysicalConstants()
OMEGA0 = 2 * math.pi / 10.0
SIGMA_COH = math.sqrt(0.5 / OMEGA0)
MM = 1e-3
LAMBDA = 943e-9


def report(num, label, value, tol, passed, unit=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status}  "
          f"value = {value:.3e}{unit} (tol {tol:g}{unit})")
    assert passed, f"criterion {num}: {label} value {value} vs tol {tol}"


# shared runs ---------------------------------------------------------------

@pytest.fixture(scope="module")
def free_gaussian_run():
    grid = GridSpec(-20.0, 20.0, 2048)
    cfg = PropagatorConfig(dt=1e-3)
    return propagate(gaussian_packet(grid, C, 1.0), cfg, 4.0,
                     snapshot_every=4)


@pytest.fixture(scope="module")
def free_gaussian_bundle(free_gaussian_run):
    run = free_gaussian_run
    rho0 = np.abs(run.snapshots[0].values) ** 2
    ens = sample_initial_positions(rho0, run.snapshots[0].grid, 16)
    return integrate_bundle(ens, run, dt_traj=0.004)


@pytest.fixture(scope="module")
def superposition_run_and_bundle():
    grid = GridSpec(-30.0, 30.0, 4096)
    cfg = PropagatorConfig(dt=1e-3)
    vals = (gaussian_packet(grid, C, 0.5, x0=-5.0).values
            + gaussian_packet(grid, C, 0.5, x0=5.0).values)
    from qstream import ComplexField
    from qstream.fields import norm
    psi = ComplexField(grid, vals)
    psi = ComplexField(grid, vals / math.sqrt(norm(psi)))
    run = propagate(psi, cfg, 5.0, snapshot_every=5)
    rho0 = np.abs(run.snapshots[0].values) ** 2
    ens = sample_initial_positions(rho0, grid, 64)
    bundle = integrate_bundle(ens, run, dt_traj=0.005)
    return run, bundle


@pytest.fixture(scope="module")
def symmetric_two_slit():
    scene = OpticalScene((SlitSpec(0.3 * MM, 2.35 * MM),
                          SlitSpec(0.3 * MM, -2.35 * MM)), LAMBDA,
                         GridSpec(-10 * MM, 10 * MM, 1601),
                         tuple(np.linspace(0.5, 8.0, 31)))
    return scene, PoyntingField(fresnel_propagate(scene, source_dx=8e-6))


# criteria ------------------------------------------------------------------

def test_criterion_01_oracle_equivalence(free_gaussian_run):
    run = free_gaussian_run
    cfg = run.config
    grid = run.snapshots[0].grid
    dev = 0.0
    for snap in run.snapshots[::100] + [run.snapshots[-1]]:
        oracle = analytic_gaussian_oracle({"sigma0": 1.0, "grid": grid},
                                          cfg, snap.time)
        dev = max(dev, float(np.max(np.abs(snap.values - oracle.values))))
    report(1, "free-Gaussian oracle equivalence", dev, 1e-6, dev < 1e-6)


def test_criterion_02_guidance_equation_fidelity(free_gaussian_bundle):
    bundle = free_gaussian_bundle
    scale = np.sqrt(1.0 + (bundle.times / 2.0) ** 2)
    ratio = bundle.xs / bundle.xs[:, :1]
    dev = float(np.max(np.abs(ratio - scale[None, :]) / scale[None, :]))
    report(2, "guidance-equation scaling, 16 starts", dev, 1e-4, dev < 1e-4)


def test_criterion_03_non_crossing(superposition_run_and_bundle):
    _, bundle = superposition_run_and_bundle
    rep = check_non_crossing(bundle)
    halves_ok = (np.all(bundle.xs[:32] < 0.0)
                 and np.all(bundle.xs[32:] > 0.0))
    ok = rep.ok and rep.min_gap > 0 and not bundle.errors and halves_ok
    report(3, "two-Gaussian non-crossing, 64 trajectories", rep.min_gap,
           0.0, ok)


def test_criterion_04_probability_tubes(free_gaussian_bundle,
                                        free_gaussian_run,
                                        superposition_run_and_bundle):
    dev = 0.0
    sup_run, sup_bundle = superposition_run_and_bundle
    for run, bundle in ((free_gaussian_run, free_gaussian_bundle),
                        (sup_run, sup_bundle)):
        tubes = tube_probability(bundle, run)
        dev = max(dev, float(np.max(np.abs(tubes - tubes[:, :1]))))
    report(4, "probability-tube conservation", dev, 1e-3, dev < 1e-3)


def test_criterion_05_classical_energy_decay_law():
    gamma = 0.3 * OMEGA0
    pot = PotentialSpec("harmonic", omega0=OMEGA0)
    cfg = PropagatorConfig(model="caldirola_kanai", potential=pot,
                           gamma=gamma, dt=1e-3, t_final=100.0)
    wt = math.sqrt(OMEGA0 ** 2 - gamma ** 2 / 4.0)
    half_period = math.pi / wt
    n_half = int((3.0 / gamma) / half_period)
    t_final = n_half * half_period
    states = classical_ck_trajectory(ClassicalCKState(2.0, 0.0, 0.0), cfg,
                                     t_final=t_final,
                                     n_samples=100 * n_half + 1)
    E = classical_ck_energy(states, cfg)
    t = np.array([s.t for s in states])
    # the decay law holds exactly once per half pseudo-period; in between
    # the energy oscillates around it (dE/dt = -2 gamma T)
    idx = np.arange(100, len(t), 100)
    dev = float(np.max(np.abs(E[idx] / (E[0] * np.exp(-gamma * t[idx]))
                              - 1.0)))
    report(5, "classical dissipative energy law (stroboscopic)", dev, 1e-5,
           dev < 1e-5)


def test_criterion_06_ck_zero_point_pathology():
    ok = True
    worst_energy = -np.inf
    for name in ("fig2a", "fig2b", "fig2c"):
        sc = builtin_scenario(name)
        run = propagate(initial_state(sc), propagator_config(sc),
                        sc.t_final, snapshot_every=10 ** 9, series_every=10)
        tail = run.times > 5.0 / sc.gamma
        widths = run.sigmas[tail]
        mono = bool(np.all(np.diff(widths) < 1e-10))
        below = bool(np.any((run.energies < 0.5 * OMEGA0)
                            & (run.times < 100.0)))
        ok = ok and mono and below
        worst_energy = max(worst_energy, float(run.energies[-1]))
    # frictionless control: same oscillator, gamma = 0
    grid = GridSpec(-8.0, 8.0, 512)
    cfg0 = PropagatorConfig(model="caldirola_kanai",
                            potential=PotentialSpec("harmonic",
                                                    omega0=OMEGA0),
                            dt=1e-3)
    run0 = propagate(gaussian_packet(grid, C, SIGMA_COH, x0=2.0), cfg0,
                     10.0, snapshot_every=10 ** 9, series_every=100)
    drift = float(np.max(np.abs(run0.energies - run0.energies[0])))
    ok = ok and drift < 1e-6
    report(6, "zero-point pathology (final energy, all regimes)",
           worst_energy, 0.5 * OMEGA0, ok and worst_energy < 0.5 * OMEGA0)


def test_criterion_07_nonlinear_friction_relaxation():
    sc = builtin_scenario("kostin-relaxation")
    run = propagate(initial_state(sc), propagator_config(sc), sc.t_final,
                    snapshot_every=10 ** 9, series_every=200)
    rel = abs(run.energies[-1] / (0.5 * OMEGA0) - 1.0)
    # ground-state stationarity over 5 oscillator periods
    grid = GridSpec(-8.0, 8.0, 512)
    cfg = PropagatorConfig(model="kostin",
                           potential=PotentialSpec("harmonic",
                                                   omega0=OMEGA0),
                           gamma=0.3 * OMEGA0, dt=1e-3)
    gs = gaussian_packet(grid, C, SIGMA_COH)
    run_gs = propagate(gs, cfg, 50.0, snapshot_every=10000)
    dev = max(float(np.max(np.abs(np.abs(s.values) - np.abs(gs.values))))
              for s in run_gs.snapshots[1:])
    ok = rel < 0.01 and dev < 1e-8
    print(f"[criterion 07]   ground-state stationarity dev = {dev:.3e} "
          f"(tol 1e-08)")
    report(7, "friction-model relaxation to zero-point energy", rel, 0.01,
           ok)


def _phase_and_trajectory_residuals(n, dt, t_final=2.0):
    """Discrete residuals of the dissipative Hamilton-Jacobi equation and
    of the damped trajectory equation along a nonlinear-friction run."""
    gamma = 0.3 * OMEGA0
    grid = GridSpec(-12.0, 12.0, n)
    pot = PotentialSpec("harmonic", omega0=OMEGA0)
    cfg = PropagatorConfig(model="kostin", potential=pot, gamma=gamma,
                           dt=dt)
    run = propagate(gaussian_packet(grid, C, SIGMA_COH, x0=1.0), cfg,
                    t_final, snapshot_every=1)
    V = pot.evaluate(grid, C)
    snaps = run.snapshots
    S, rho = [], []
    for s in snaps:
        p = polar_decompose(s, C)
        S.append(p.S)
        rho.append(p.rho)
    S, rho = np.array(S), np.array(rho)
    phase_norms = []
    for k in range(1, len(snaps) - 1):
        S_t = (S[k + 1] - S[k - 1]) / (2 * dt)
        S_x = derivative(S[k], grid.dx)
        Q = quantum_potential(snaps[k], C)
        r = rho[k]
        mean_S = np.trapezoid(r * S[k], dx=grid.dx)
        R = S_t + S_x ** 2 / (2 * C.mass) + V + Q + gamma * (S[k] - mean_S)
        w = r > 1e-6 * r.max()
        gauge = (np.trapezoid(np.where(w, r * R, 0), dx=grid.dx)
                 / np.trapezoid(np.where(w, r, 0), dx=grid.dx))
        R = R - gauge
        phase_norms.append(math.sqrt(
            np.trapezoid(np.where(w, r * R ** 2, 0), dx=grid.dx)))
    phase_res = float(np.median(phase_norms))

    ens = sample_initial_positions(rho[0], grid, 8)
    bundle = integrate_bundle(ens, run, dt_traj=dt)
    snap_times = np.array([s.time for s in snaps])
    dVQ = np.array([derivative(V + quantum_potential(s, C), grid.dx)
                    for s in snaps])
    xs, ts = bundle.xs, bundle.times
    acc, cnt = 0.0, 0
    for k in range(1, len(ts) - 1):
        a = (xs[:, k + 1] - 2 * xs[:, k] + xs[:, k - 1]) / dt ** 2
        v = (xs[:, k + 1] - xs[:, k - 1]) / (2 * dt)
        i = int(np.argmin(np.abs(snap_times - ts[k])))
        grad = np.interp(xs[:, k], grid.x, dVQ[i])
        R = C.mass * a + gamma * C.mass * v + grad
        acc += float(np.mean(R ** 2))
        cnt += 1
    traj_res = math.sqrt(acc / cnt)
    return phase_res, traj_res


def test_criterion_08_friction_model_bohm_consistency():
    p_coarse, t_coarse = _phase_and_trajectory_residuals(768, 0.004)
    p_fine, t_fine = _phase_and_trajectory_residuals(1536, 0.002)
    ratio_p = p_coarse / p_fine
    ratio_t = t_coarse / t_fine
    ok = ratio_p >= 1.5 and ratio_t >= 1.5
    print(f"[criterion 08]   phase-equation residual {p_coarse:.3e} -> "
          f"{p_fine:.3e} (ratio {ratio_p:.2f}); trajectory residual "
          f"{t_coarse:.3e} -> {t_fine:.3e} (ratio {ratio_t:.2f})")
    report(8, "dissipative Hamilton-Jacobi / trajectory residual reduction",
           min(ratio_p, ratio_t), 1.5, ok)


def test_criterion_09_fresnel_oracle():
    scene = OpticalScene((SlitSpec(0.3 * MM),), LAMBDA,
                         GridSpec(-12 * MM, 12 * MM, 1601), (0.5, 3.0, 8.0))
    field = fresnel_propagate(scene, source_dx=2e-6)
    dev = 0.0
    for row, z in zip(field.psi, scene.z_planes):
        ref = gaussian_beam_intensity(scene.slits[0],
                                      scene.transverse_grid.x, z, scene.k)
        dev = max(dev, float(np.max(np.abs(np.abs(row) ** 2 - ref))
                             / ref.max()))
    report(9, "Gaussian-beam closed-form intensity", dev, 1e-4, dev < 1e-4)


def _parabolic(xs, ys, i):
    a, b, c = ys[i - 1], ys[i], ys[i + 1]
    return xs[i] + 0.5 * (a - c) / (a - 2 * b + c) * (xs[1] - xs[0])


def test_criterion_10_two_slit_fringe_spacing(symmetric_two_slit):
    scene, _ = symmetric_two_slit
    ev = FresnelEvaluator(scene, source_dx=2e-6)
    x = np.linspace(-1.5 * MM, 1.5 * MM, 6001)
    psi, px, pz = ev.evaluate(x, 3.0)
    em = assemble_em_fields(psi, px, pz, scene)
    Sx, Sz = poynting(em)
    U = energy_density(em)
    kx = Sx / np.hypot(Sx, Sz)
    # fringe spacing read off the transverse-momentum profile: the two
    # kx/k extrema flanking the axis sit one fringe period apart
    extrema = sorted([_parabolic(x, kx, i)
                      for i in np.concatenate([argrelmax(kx)[0],
                                               argrelmin(kx)[0]])])
    right = min(v for v in extrema if v > 0)
    left = max(v for v in extrema if v < 0)
    spacing = right - left
    dev = abs(spacing / 0.602e-3 - 1.0)
    # supplementary: spacing of the first intensity minima (near-zone
    # curvature pushes it below the far-field value)
    inten = np.abs(psi) ** 2
    minima = sorted((_parabolic(x, inten, i) for i in argrelmin(inten)[0]),
                    key=abs)[:2]
    dark = abs(minima[1] - minima[0])
    print(f"[criterion 10]   kx/k-extrema spacing {spacing * 1e3:.4f} mm; "
          f"intensity-minima spacing {dark * 1e3:.4f} mm "
          f"(far-field 0.602 mm)")
    # axis behaviour of kx/k
    i0 = len(x) // 2
    axis_zero = abs(kx[i0])
    antisym = float(np.max(np.abs(kx + kx[::-1])))
    ok = dev < 0.02 and axis_zero < 1e-6 and antisym < 1e-6
    report(10, "two-slit fringe spacing at z = 3 m", dev, 0.02, ok)


def test_criterion_11_truncation_monotonicity():
    amplitudes = []
    for w_sigmas in (None, 1.9, 1.5):
        wh = None if w_sigmas is None else w_sigmas * 0.3 * MM
        scene = OpticalScene((SlitSpec(0.3 * MM, 2.35 * MM, wh),
                              SlitSpec(0.3 * MM, -2.35 * MM, wh)), LAMBDA,
                             GridSpec(-10 * MM, 10 * MM, 1601), (0.5, 5.0))
        ev = FresnelEvaluator(scene, source_dx=4e-6)
        x = np.linspace(-2 * MM, 2 * MM, 2001)
        psi, px, pz = ev.evaluate(x, 5.0)
        em = assemble_em_fields(psi, px, pz, scene)
        Sx, Sz = poynting(em)
        kx = Sx / np.hypot(Sx, Sz)
        amplitudes.append(float(np.ptp(kx)))
    untrunc, w19, w15 = amplitudes
    ok = untrunc < w19 < w15
    print(f"[criterion 11]   kx/k peak-to-peak: untruncated {untrunc:.4f} "
          f"< 1.9-sigma {w19:.4f} < 1.5-sigma {w15:.4f}")
    report(11, "truncation increases kx/k oscillations", w15 - untrunc,
           0.0, ok)


def test_criterion_12_photon_path_flux_bookkeeping(symmetric_two_slit):
    scene, pf = symmetric_two_slit
    x0s = _launch_positions(scene, 40)
    paths = photon_path_bundle(x0s, 0.5, pf, ds=0.05)
    reach = all((not p.stagnated) and p.z[-1] >= 8.0 for p in paths)
    no_cross, _ = _path_non_crossing(paths, 0.5, 8.0)
    # central bright fringe bounded by the energy-density minima
    xg = scene.transverse_grid.x
    U8 = pf.U[-1]
    minima = xg[argrelmin(U8)[0]]
    lo = max(v for v in minima if v < 0)
    hi = min(v for v in minima if v > 0)
    ends = np.array([np.interp(8.0, p.z, p.x) for p in paths])
    frac = float(np.mean((ends > lo) & (ends < hi)))
    weight = float(np.trapezoid(U8[(xg > lo) & (xg < hi)],
                                dx=scene.transverse_grid.dx)
                   / np.trapezoid(U8, dx=scene.transverse_grid.dx))
    dev = abs(frac - weight)
    print(f"[criterion 12]   central-fringe path fraction {frac:.3f} vs "
          f"energy weight {weight:.4f}")
    ok = reach and no_cross and dev < 0.02
    report(12, "photon-path non-crossing and flux bookkeeping", dev, 0.02,
           ok)


def test_criterion_13_reductions_and_determinism(tmp_path, capsys):
    # frictionless dissipative steppers reduce to the standard one
    grid = GridSpec(-8.0, 8.0, 512)
    pot = PotentialSpec("harmonic", omega0=OMEGA0)
    psi = gaussian_packet(grid, C, SIGMA_COH, x0=1.0)
    dev = 0.0
    std_cfg = PropagatorConfig(potential=pot, dt=1e-3)
    ck_cfg = PropagatorConfig(model="caldirola_kanai", potential=pot,
                              dt=1e-3)
    ks_cfg = PropagatorConfig(model="kostin", potential=pot, dt=1e-3)
    std = ck = ks = psi
    for _ in range(5):
        std = step(std, std_cfg)
        ck = step(ck, ck_cfg)
        ks = step(ks, ks_cfg)
        dev = max(dev, float(np.max(np.abs(std.values - ck.values))),
                  float(np.max(np.abs(std.values - ks.values))))
    # repeated runs are byte-identical, and the bundle equals the
    # per-trajectory march
    text = """\
scenario.name = determinism
scenario.kind = matter_wave
model.type = standard
potential.kind = free
grid.x_min = -12
grid.x_max = 12
grid.n_points = 512
time.dt = 0.002
time.t_final = 1.0
time.snapshot_every = 5
packet1.sigma0 = 1.0
ensemble.n_trajectories = 12
ensemble.dt_traj = 0.01
"""
    cfg_path = tmp_path / "determinism.cfg"
    cfg_path.write_text(text)
    outs = {}
    for sub in ("first", "second"):
        out_dir = tmp_path / sub
        code = cli.main(["run", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 0
        outs[sub] = out_dir
    identical = all(
        (outs["first"] / name).read_bytes()
        == (outs["second"] / name).read_bytes()
        for name in ("bundle.txt", "series.txt"))
    capsys.readouterr()  # drop the CLI check lines from this test's output
    config = parse_scenario(text)
    run = propagate(initial_state(config), propagator_config(config),
                    config.t_final, snapshot_every=config.snapshot_every)
    sampler = VelocitySampler(run)
    rho0 = np.abs(run.snapshots[0].values) ** 2
    ens = sample_initial_positions(rho0, config.grid, 12)
    t_span = (sampler.times[0], sampler.times[-1])
    oracle = np.vstack([integrate_trajectory(x0, sampler, t_span, 0.01).x
                        for x0 in ens.positions])
    written = np.loadtxt(outs["first"] / "bundle.txt")[:, 1:].T
    ok = dev < 1e-12 and identical and np.array_equal(written, oracle)
    report(13, "frictionless reductions and determinism", dev, 1e-12, ok)
