"""One split-step stepper for the three dynamical models.

standard           i hbar dPsi/dt = -(hbar^2/2m) Psi'' + V Psi
caldirola_kanai    kinetic term scaled by exp(-gamma t), potential by
                   exp(+gamma t); both coefficients evaluated at the
                   temporal midpoint of each step
kostin             nonlinear friction potential gamma (S - <S>) built from
                   the unwrapped phase of the evolving state (V_R = 0 case),
                   taken at the step midpoint as the Adams-Bashforth
                   extrapolation 1.5 W(t_n) - 0.5 W(t_n-1): one friction
                   potential and one split step per step, after a
                   predictor-corrector first step

The models differ only in the kinetic scale, the potential scale and the
extra potential handed to one symmetric split step (half potential, full
kinetic in spectral space, half potential).  Each phase factor is built
once per run whenever its coefficient is constant: the kinetic factor for
the standard and Kostin models and the half-potential factor for the
standard model; at gamma = 0 both dissipative models take the standard
path, so they reproduce it bit for bit and Kostin builds no friction
potential.  Caldirola-Kanai with gamma > 0 rebuilds both factors every
step, because both scales change.  Every factor is written as cos + i sin
in real arithmetic, and the kinetic one only on the n//2 + 1 distinct
values of k^2 (k^2 is mirror-symmetric in FFT order), mirrored onto the
rest.  The transforms are numpy.fft.

Closed-form Gaussian solutions for free and harmonic potentials serve as
the numerical ground truth; the classical Caldirola-Kanai path, with its
E0 exp(-gamma t) energy law, is the closed-form damped oscillator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields as qf
from .errors import PhaseUndefined, StabilityViolation, UnsupportedPotential
from .fields import ComplexField, GridSpec, PhysicalConstants

STABILITY_SAFETY = 0.5
# (t_final - t0) / dt may differ from its whole step count n by at most
# STEP_TOLERANCE * max(1, n): room for the rounding of the division, none
# for a t_final between two steps
STEP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PotentialSpec:
    """Potential selector: free, or harmonic(omega0, center)."""

    kind: str = "free"
    omega0: float = 0.0
    center: float = 0.0

    def __post_init__(self):
        if self.kind not in ("free", "harmonic"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "harmonic" and self.omega0 <= 0:
            raise ValueError("harmonic potential requires omega0 > 0")

    def evaluate(self, grid: GridSpec, constants: PhysicalConstants) -> np.ndarray:
        x = grid.x
        if self.kind == "free":
            return np.zeros_like(x)
        return 0.5 * constants.mass * self.omega0 ** 2 * (x - self.center) ** 2


@dataclass(frozen=True)
class PropagatorConfig:
    model: str = "standard"
    constants: PhysicalConstants = dc_field(default_factory=PhysicalConstants)
    potential: PotentialSpec = dc_field(default_factory=PotentialSpec)
    gamma: float = 0.0
    dt: float = 1e-3
    t_final: float = None

    def __post_init__(self):
        if self.model not in ("standard", "caldirola_kanai", "kostin"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if (self.model == "caldirola_kanai" and self.gamma > 0
                and self.t_final is None):
            # the exp(gamma t) potential coefficient grows without bound,
            # so dissipative CK runs must declare their horizon up front
            raise ValueError("caldirola_kanai with gamma > 0 requires t_final")


@dataclass(frozen=True)
class ClassicalCKState:
    x: float
    p: float
    t: float


def check_stability(psi: ComplexField, config: PropagatorConfig) -> None:
    """Accuracy bound dt <= safety * hbar / E_char.

    The split-step scheme is unitary, hence unconditionally stable; what
    degrades with large dt is the splitting accuracy, governed by the
    phase advanced per step.  E_char is the state's energy scale
    <T> + (<V> - min V).
    """
    c = config.constants
    T = qf.kinetic_energy(psi, c)
    n = qf.norm(psi)
    if n <= 0:
        return
    V = config.potential.evaluate(psi.grid, c)
    rho = np.abs(psi.values) ** 2
    Vmean = np.trapezoid(V * rho, dx=psi.grid.dx) / n
    E = T / n + Vmean - V.min()
    if E > 0 and config.dt > STABILITY_SAFETY * c.hbar / E:
        raise StabilityViolation(
            f"dt = {config.dt:g} exceeds bound "
            f"{STABILITY_SAFETY * c.hbar / E:g} (E_char = {E:g})")


def rate_factor(config: PropagatorConfig, t: float) -> float:
    """The Caldirola-Kanai rate factor exp(-gamma t), which scales both the
    kinetic term and the guidance velocity; 1 for the other models."""
    if config.model == "caldirola_kanai":
        return math.exp(-config.gamma * t)
    return 1.0


def whole_steps(t0: float, t_final: float, dt: float) -> int:
    """The number of steps of dt from t0 to t_final.  ValueError when
    (t_final - t0) / dt is not a whole number within STEP_TOLERANCE: a run
    must end at t_final, and a t_final > t0 that rounds to 0 steps would
    leave no dynamics."""
    steps = (t_final - t0) / dt
    n_steps = round(steps)
    if abs(steps - n_steps) > STEP_TOLERANCE * max(1, n_steps):
        raise ValueError(f"(t_final - t0) / dt = {steps!r} "
                         "is not a whole number of steps")
    return n_steps


def state_time(t0: float, dt: float, i: int) -> float:
    """The time t0 + i dt of the state i steps after t0, as a Python float:
    every state of a run is timed by this rule, so its times never drift
    with the number of steps taken."""
    return float(t0 + i * dt)


def _phase_factor(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) of a real array, as cos(phase) + i sin(phase) written
    into the two halves of one fresh complex array."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _mirrored_phase_factor(half_phase: np.ndarray, n: int) -> np.ndarray:
    """exp(i phase) on the n FFT frequencies of a phase that is even in k,
    from its values on the first n//2 + 1: entry n - j repeats entry j."""
    out = np.empty(n, dtype=complex)
    h = len(half_phase)
    out[:h] = _phase_factor(half_phase)
    out[h:] = out[1:n - h + 1][::-1]
    return out


def _split_step(values: np.ndarray, half_V: np.ndarray,
                kinetic: np.ndarray) -> np.ndarray:
    """Symmetric split step with the phase factors half_V = exp(-i V dt/2
    hbar) and kinetic = exp(-i hbar k^2 dt/2m): half potential, full
    kinetic, half potential.  Both transforms run in place on the fresh
    product half_V * values, never on `values`, which stored snapshots
    share."""
    buf = half_V * values
    np.fft.fft(buf, out=buf)
    buf *= kinetic
    np.fft.ifft(buf, out=buf)
    buf *= half_V
    return buf


def _friction_potential(values: np.ndarray, grid: GridSpec,
                        config: PropagatorConfig) -> np.ndarray:
    """gamma (S - int rho S dx) with rho normalized to unit mass.

    Below the node threshold the phase is numerical noise; there S is
    continued from the valid region (linearly inside, constant beyond)
    so the friction potential stays smooth where the density vanishes.
    """
    rho, S, valid = qf.polar_parts(values, config.constants)
    if not valid.all():
        # np.interp returns S itself at the valid points, so only the
        # others need it
        x = grid.x
        S[~valid] = np.interp(x[~valid], x[valid], S[valid])
    rho = rho / np.trapezoid(rho, dx=grid.dx)
    S_mean = np.trapezoid(rho * S, dx=grid.dx)
    return config.gamma * (S - S_mean)


def _stepper(grid: GridSpec, config: PropagatorConfig):
    """The configured model's time step as a function (values, t) -> the
    values one step of config.dt later.  V and every phase factor with a
    constant coefficient are built once, here.  Kostin's step at gamma > 0
    is two-step: a call on the values the previous call returned reuses
    that call's friction potential."""
    c, dt, gamma = config.constants, config.dt, config.gamma
    V = config.potential.evaluate(grid, c)
    n = grid.n_points
    k2_half = grid.wavenumbers()[:n // 2 + 1] ** 2

    def kinetic(scale):
        return _mirrored_phase_factor(
            (-0.5 * c.hbar * scale * dt / c.mass) * k2_half, n)

    def half_potential(V_eff):
        return _phase_factor((-0.5 * dt / c.hbar) * V_eff)

    if config.model == "caldirola_kanai" and gamma > 0:
        def advance(values: np.ndarray, t: float) -> np.ndarray:
            t_mid, t_next = t + 0.5 * dt, t + dt
            if t_next > config.t_final + 0.5 * dt:
                raise StabilityViolation("stepping past the declared t_final")
            return _split_step(values,
                               half_potential(math.exp(gamma * t_mid) * V),
                               kinetic(math.exp(-gamma * t_mid)))
        return advance

    kin = kinetic(1.0)
    if config.model == "kostin" and gamma > 0:
        # the friction potential of the state the last call started from,
        # and the values that call returned
        W_last = out_last = None

        def advance(values: np.ndarray, t: float) -> np.ndarray:
            nonlocal W_last, out_last
            # W at the step midpoint: from a cold start (the first call, or
            # values other than the last call's result) the predictor-
            # corrector average of W at the step start and after a trial
            # step; otherwise the Adams-Bashforth 1.5 W(t_n) - 0.5 W(t_n-1)
            try:
                W = _friction_potential(values, grid, config)
                if values is out_last:
                    W_mid = 1.5 * W - 0.5 * W_last
                else:
                    trial = _split_step(values, half_potential(V + W), kin)
                    W_mid = 0.5 * (W + _friction_potential(trial, grid,
                                                           config))
            except qf.AllBelowThreshold as exc:
                raise PhaseUndefined(str(exc)) from exc
            out = _split_step(values, half_potential(V + W_mid), kin)
            W_last, out_last = W, out
            return out
        return advance

    half_V = half_potential(V)

    def advance(values: np.ndarray, t: float) -> np.ndarray:
        return _split_step(values, half_V, kin)
    return advance


def step(psi: ComplexField, config: PropagatorConfig) -> ComplexField:
    """Advance psi by one time step config.dt of the configured model, from
    a cold start: for Kostin at gamma > 0 the predictor-corrector step that
    begins a run, so repeated calls are that one-step scheme throughout."""
    values = _stepper(psi.grid, config)(psi.values, psi.time)
    return ComplexField(psi.grid, values, state_time(psi.time, config.dt, 1))


def physical_energy(psi: ComplexField, config: PropagatorConfig) -> float:
    """<p^2/2m + V> in the physical variables.

    For Caldirola-Kanai the operator -i hbar d/dx is the canonical
    momentum, so the physical kinetic term carries exp(-2 gamma t)."""
    c = config.constants
    T = qf.kinetic_energy(psi, c)
    if config.model == "caldirola_kanai":
        T *= math.exp(-2.0 * config.gamma * psi.time)
    V = config.potential.evaluate(psi.grid, c)
    rho = np.abs(psi.values) ** 2
    n = np.trapezoid(rho, dx=psi.grid.dx)
    return float(T / n + np.trapezoid(V * rho, dx=psi.grid.dx) / n)


@dataclass
class PropagationRun:
    """Stored states plus the per-step norm / centroid / width / energy
    series, and the number of time steps taken."""

    config: PropagatorConfig
    snapshots: list
    times: np.ndarray
    norms: np.ndarray
    x_means: np.ndarray
    sigmas: np.ndarray
    energies: np.ndarray
    steps: int = 0

    def write_series(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# t norm x_mean sigma energy\n")
            qf.write_rows(fh, self.times, self.norms, self.x_means,
                          self.sigmas, self.energies)


def propagate(psi0: ComplexField, config: PropagatorConfig, t_final: float,
              snapshot_every: int = 1, series_every: int = None,
              consumers=None) -> PropagationRun:
    """Run the configured model from psi0.time to t_final, which must lie
    a whole number of steps of config.dt away (see whole_steps).  The state
    i steps on lies at state_time(psi0.time, config.dt, i).

    A state is stored every `snapshot_every` steps (always including the
    initial and final states); the diagnostic series is sampled every
    `series_every` steps (defaults to snapshot_every).  With `consumers`
    None, run.snapshots holds every stored state.  Otherwise each stored
    state is handed, in time order, to every callable in `consumers`, and
    run.snapshots holds only the initial and final states, so that memory
    does not grow with the number of stored states.
    """
    if t_final < psi0.time:
        raise ValueError("t_final must be >= the initial time")
    n_steps = whole_steps(psi0.time, t_final, config.dt)
    if t_final > psi0.time:
        check_stability(psi0, config)
    advance = _stepper(psi0.grid, config)
    if series_every is None:
        series_every = snapshot_every
    snapshots = []
    hand_out = (snapshots.append,) if consumers is None else tuple(consumers)
    # one row for psi0, every series_every-th step and the last step
    series = np.empty((5, -(-n_steps // series_every) + 1))
    rows = 0

    def record(psi):
        nonlocal rows
        series[:, rows] = (psi.time, qf.norm(psi),
                           qf.expectation_position(psi),
                           qf.position_spread(psi),
                           physical_energy(psi, config))
        rows += 1

    record(psi0)
    for consume in hand_out:
        consume(psi0)
    grid = psi0.grid
    values, t, psi = psi0.values, psi0.time, psi0
    for i in range(1, n_steps + 1):
        values = advance(values, t)
        t = state_time(psi0.time, config.dt, i)
        qf.require_finite(values)
        recorded = i % series_every == 0 or i == n_steps
        stored = i % snapshot_every == 0 or i == n_steps
        if recorded or stored:
            psi = ComplexField(grid, values, t)
        if recorded:
            record(psi)
        if stored:
            for consume in hand_out:
                consume(psi)
    if consumers is not None:
        snapshots = [psi0] if psi is psi0 else [psi0, psi]
    return PropagationRun(config, snapshots, *series, steps=n_steps)


def analytic_gaussian_oracle(params: dict, config: PropagatorConfig,
                             t: float) -> ComplexField:
    """Closed-form evolved Gaussian for free or harmonic potentials.

    The state is written with a complex width factor s(t) solving the
    classical equation of motion (s'' = 0 free, s'' = -omega^2 s harmonic)
    with s(0) = 1, s'(0) = i hbar / (2 m sigma0^2):

        psi = (2 pi sigma0^2)^{-1/4} s^{-1/2}
              exp[ (i m / 2 hbar)(s'/s)(x - xc)^2
                   + (i/hbar) pc (x - xc) + (i/hbar) phi ]

    with (xc, pc) the classical trajectory and phi the classical action
    integral of the Lagrangian along it.
    """
    sigma0 = params["sigma0"]
    x0 = params.get("x0", 0.0)
    p0 = params.get("p0", 0.0)
    grid = params["grid"]
    hbar, m = config.constants.hbar, config.constants.mass
    x = grid.x
    eps = hbar / (2.0 * m * sigma0 ** 2)

    if config.potential.kind == "free":
        s = 1.0 + 1j * eps * t
        s_dot = 1j * eps
        xc = x0 + p0 * t / m
        pc = p0
        phi = p0 ** 2 * t / (2.0 * m)
        theta = np.angle(s)  # no winding: Re s = 1
    else:
        w = config.potential.omega0
        xc_rel = ((x0 - config.potential.center) * math.cos(w * t)
                  + (p0 / (m * w)) * math.sin(w * t))
        pc = (p0 * math.cos(w * t)
              - m * w * (x0 - config.potential.center) * math.sin(w * t))
        xc = config.potential.center + xc_rel
        x0r = x0 - config.potential.center
        phi = ((p0 ** 2 - (m * w * x0r) ** 2) * math.sin(2 * w * t) / (2 * w)
               + m * x0r * p0 * (math.cos(2 * w * t) - 1.0)) / (2.0 * m)
        s = math.cos(w * t) + 1j * (eps / w) * math.sin(w * t)
        s_dot = -w * math.sin(w * t) + 1j * eps * math.cos(w * t)
        # s winds around the origin once per period, staying within a
        # quadrant of exp(i w t); unwrap the sqrt branch accordingly
        theta = w * t + np.angle(s * np.exp(-1j * w * t))

    inv_sqrt_s = np.exp(-0.5 * (np.log(abs(s)) + 1j * theta))
    quad = (0.5j * m / hbar) * (s_dot / s) * (x - xc) ** 2
    values = ((2.0 * np.pi * sigma0 ** 2) ** -0.25 * inv_sqrt_s
              * np.exp(quad + 1j * (pc * (x - xc) + phi) / hbar))
    return ComplexField(grid, values, t)


def free_gaussian_width(sigma0: float, t, constants: PhysicalConstants):
    """sigma(t) = sigma0 sqrt(1 + (hbar t / 2 m sigma0^2)^2)."""
    eps = constants.hbar / (2.0 * constants.mass * sigma0 ** 2)
    return sigma0 * np.sqrt(1.0 + (eps * np.asarray(t)) ** 2)


def damped_oscillator(x0, v0, omega0: float, gamma: float, t):
    """(x, v) at times t of x'' + gamma x' + omega0^2 x = 0 from (x0, v0),
    which may be complex.  With Omega = sqrt(omega0^2 - gamma^2/4) complex,
    x = x0 C + (v0 + gamma x0/2) S and v = v0 C - (omega0^2 x0 + gamma v0/2) S
    for C = e^{-gamma t/2} cos(Omega t), S = e^{-gamma t/2} sin(Omega t)/Omega.
    With lam = -i Omega both factor as e^{(lam - gamma/2) t} times expm1
    terms, so S = t e^{-gamma t/2} is exact at Omega = 0 and an overdamped
    e^{-gamma t/2} cosh never becomes inf * 0."""
    t = np.asarray(t, dtype=float)
    lam = -1j * np.sqrt(complex(omega0 ** 2 - 0.25 * gamma ** 2))
    lead = np.exp((lam - 0.5 * gamma) * t)
    rest = np.expm1(-2.0 * lam * t)
    C = (lead * (1.0 + 0.5 * rest)).real
    S = t * lead.real if lam == 0 else (-lead * rest / (2.0 * lam)).real
    return (x0 * C + (v0 + 0.5 * gamma * x0) * S,
            v0 * C - (omega0 ** 2 * x0 + 0.5 * gamma * v0) * S)


def classical_ck_trajectory(state0: ClassicalCKState, config: PropagatorConfig,
                            t_final: float = None, n_samples: int = 400):
    """Physical (x, p) along x'' + gamma x' + omega0^2 (x - center) = 0, to
    which Hamilton's equations in (X, P = p e^{gamma t}) reduce; the
    physical energy then decays as E0 exp(-gamma t)."""
    if config.potential.kind != "harmonic":
        raise UnsupportedPotential("classical CK needs a harmonic V")
    t_final = config.t_final if t_final is None else t_final
    if t_final is None:
        raise ValueError("t_final required (argument or config.t_final)")
    m, pot = config.constants.mass, config.potential
    t = np.linspace(state0.t, t_final, n_samples)
    x, v = damped_oscillator(state0.x - pot.center, state0.p / m, pot.omega0,
                             config.gamma, t - state0.t)
    return [ClassicalCKState(float(xi + pot.center), float(m * vi), float(ti))
            for xi, vi, ti in zip(x, v, t)]


def classical_ck_energy(states, config: PropagatorConfig) -> np.ndarray:
    """Physical energy p^2/2m + V(x) along a classical CK trajectory."""
    m, pot = config.constants.mass, config.potential
    x, p = np.array([(s.x, s.p) for s in states]).T
    return p ** 2 / (2.0 * m) + 0.5 * m * pot.omega0 ** 2 * (x - pot.center) ** 2
