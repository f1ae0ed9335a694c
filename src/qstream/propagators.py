"""One split-step stepper for the three dynamical models.

standard           i hbar dPsi/dt = -(hbar^2/2m) Psi'' + V Psi
caldirola_kanai    kinetic term scaled by exp(-gamma t), potential by
                   exp(+gamma t); both coefficients evaluated at the
                   temporal midpoint of each step
kostin             nonlinear friction potential gamma (S - <S>) built from
                   the unwrapped phase of the evolving state (V_R = 0 case),
                   added in one predictor-corrector pass per step

The models differ only in the kinetic scale, the potential scale and the
extra potential handed to one symmetric split step (half potential, full
kinetic in spectral space, half potential), so the gamma = 0 dissipative
models reproduce the standard model bit for bit.

Closed-form Gaussian solutions for free and harmonic potentials serve as
the numerical ground truth, and the classical Caldirola-Kanai equations
are integrated in canonical variables for the E0 exp(-gamma t) energy law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp

from . import fields as qf
from .errors import PhaseUndefined, StabilityViolation, UnsupportedPotential
from .fields import ComplexField, GridSpec, PhysicalConstants

STABILITY_SAFETY = 0.5


@dataclass(frozen=True)
class PotentialSpec:
    """Potential selector: free, harmonic(omega0, center), polynomial
    (degree <= 2 coefficients), or tabulated values on the grid."""

    kind: str = "free"
    omega0: float = 0.0
    center: float = 0.0
    coefficients: tuple = (0.0, 0.0, 0.0)
    values: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("free", "harmonic", "polynomial", "tabulated"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "harmonic" and self.omega0 <= 0:
            raise ValueError("harmonic potential requires omega0 > 0")
        if self.kind == "tabulated" and self.values is None:
            raise ValueError("tabulated potential requires values")

    def evaluate(self, grid: GridSpec, constants: PhysicalConstants) -> np.ndarray:
        x = grid.x
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            return 0.5 * constants.mass * self.omega0 ** 2 * (x - self.center) ** 2
        if self.kind == "polynomial":
            c = self.coefficients
            return c[0] + c[1] * x + (c[2] if len(c) > 2 else 0.0) * x ** 2
        values = np.asarray(self.values, dtype=float)
        if values.shape != (grid.n_points,):
            raise ValueError("tabulated potential length must match grid")
        return values

    def gradient(self, x, constants: PhysicalConstants):
        """dV/dx at scalar or array x (not available for tabulated)."""
        if self.kind == "free":
            return np.zeros_like(np.asarray(x, dtype=float))
        if self.kind == "harmonic":
            return constants.mass * self.omega0 ** 2 * (np.asarray(x) - self.center)
        if self.kind == "polynomial":
            c = self.coefficients
            return c[1] + 2.0 * (c[2] if len(c) > 2 else 0.0) * np.asarray(x)
        raise UnsupportedPotential("gradient of a tabulated potential")


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


def _split_step(values: np.ndarray, V_eff: np.ndarray, kin_phase: np.ndarray,
                dt: float, constants: PhysicalConstants,
                kinetic_scale: float = 1.0) -> np.ndarray:
    """Symmetric split step: half potential, full kinetic, half potential."""
    half_V = np.exp(-0.5j * V_eff * dt / constants.hbar)
    kin = np.exp(kin_phase * kinetic_scale * dt / constants.mass)
    out = half_V * values
    out = np.fft.ifft(kin * np.fft.fft(out))
    return half_V * out


def _friction_potential(psi: ComplexField, config: PropagatorConfig) -> np.ndarray:
    """gamma (S - int rho S dx) with rho normalized to unit mass.

    Below the node threshold the phase is numerical noise; there S is
    continued from the valid region (linearly inside, constant beyond)
    so the friction potential stays smooth where the density vanishes.
    """
    polar = qf.polar_decompose(psi, config.constants)
    S = polar.S
    if not polar.valid.all():
        x = psi.grid.x
        S = np.interp(x, x[polar.valid], S[polar.valid])
    rho = polar.rho / np.trapezoid(polar.rho, dx=psi.grid.dx)
    S_mean = np.trapezoid(rho * S, dx=psi.grid.dx)
    return config.gamma * (S - S_mean)


def _stepper(grid: GridSpec, config: PropagatorConfig):
    """The configured model's time step as a psi -> psi function; V and
    the kinetic phase -0.5j hbar k^2 are built once, here."""
    c, dt, gamma = config.constants, config.dt, config.gamma
    V = config.potential.evaluate(grid, c)
    kin_phase = -0.5j * c.hbar * grid.wavenumbers() ** 2

    def advance(psi: ComplexField) -> ComplexField:
        t_mid, t_next = psi.time + 0.5 * dt, psi.time + dt
        V_eff = V
        if config.model == "caldirola_kanai":
            if gamma > 0 and t_next > config.t_final + 0.5 * dt:
                raise StabilityViolation("stepping past the declared t_final")
            V_eff = math.exp(gamma * t_mid) * V
        elif config.model == "kostin":
            # predictor-corrector: the friction potential at the step start,
            # then averaged with its value after a trial step
            try:
                W0 = _friction_potential(psi, config)
            except qf.AllBelowThreshold as exc:
                raise PhaseUndefined(str(exc)) from exc
            trial = _split_step(psi.values, V + W0, kin_phase, dt, c)
            W1 = _friction_potential(ComplexField(grid, trial, t_next), config)
            V_eff = V + 0.5 * (W0 + W1)
        values = _split_step(psi.values, V_eff, kin_phase, dt, c,
                             rate_factor(config, t_mid))
        return ComplexField(grid, values, t_next)

    return advance


def step(psi: ComplexField, config: PropagatorConfig) -> ComplexField:
    """Advance psi by one time step config.dt of the configured model."""
    return _stepper(psi.grid, config)(psi)


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
    """Snapshots plus the per-step norm / centroid / width / energy series."""

    config: PropagatorConfig
    snapshots: list
    times: np.ndarray
    norms: np.ndarray
    x_means: np.ndarray
    sigmas: np.ndarray
    energies: np.ndarray

    def write_series(self, path) -> None:
        lines = ["# t norm x_mean sigma energy"]
        for row in zip(self.times, self.norms, self.x_means, self.sigmas,
                       self.energies):
            lines.append("  ".join(repr(float(c)) for c in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def propagate(psi0: ComplexField, config: PropagatorConfig, t_final: float,
              snapshot_every: int = 1,
              series_every: int = None) -> PropagationRun:
    """Run the configured model from psi0.time to t_final.

    Snapshots are stored every `snapshot_every` steps (always including the
    initial and final states); the diagnostic series is sampled every
    `series_every` steps (defaults to snapshot_every).
    """
    if t_final < psi0.time:
        raise ValueError("t_final must be >= the initial time")
    if t_final > psi0.time:
        check_stability(psi0, config)
    advance = _stepper(psi0.grid, config)
    n_steps = int(round((t_final - psi0.time) / config.dt))
    if series_every is None:
        series_every = snapshot_every
    snapshots = [psi0]
    series = []

    def record(psi):
        series.append((psi.time, qf.norm(psi), qf.expectation_position(psi),
                       qf.position_spread(psi), physical_energy(psi, config)))

    record(psi0)
    psi = psi0
    for i in range(1, n_steps + 1):
        psi = advance(psi)
        if i % series_every == 0 or i == n_steps:
            record(psi)
        if i % snapshot_every == 0 or i == n_steps:
            snapshots.append(psi)
    cols = list(zip(*series))
    return PropagationRun(config, snapshots, *(np.asarray(c) for c in cols))


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
    if config.potential.kind not in ("free", "harmonic"):
        raise UnsupportedPotential(config.potential.kind)
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


def classical_ck_trajectory(state0: ClassicalCKState, config: PropagatorConfig,
                            t_final: float = None, n_samples: int = 400,
                            rtol: float = 1e-12, atol: float = 1e-12):
    """Hamilton's equations in canonical variables (X, P = p e^{gamma t}),
    mapped back to physical (x, p).  The physical energy then decays as
    E0 exp(-gamma t) for the harmonic case."""
    if config.potential.kind not in ("harmonic", "polynomial"):
        raise UnsupportedPotential("classical CK needs harmonic or polynomial V")
    if t_final is None:
        t_final = config.t_final
    if t_final is None:
        raise ValueError("t_final required (argument or config.t_final)")
    c = config.constants
    g = config.gamma

    def rhs(t, y):
        X, P = y
        return [P * math.exp(-g * t) / c.mass,
                -math.exp(g * t) * config.potential.gradient(X, c)]

    t_eval = np.linspace(state0.t, t_final, n_samples)
    y0 = [state0.x, state0.p * math.exp(g * state0.t)]
    sol = solve_ivp(rhs, (state0.t, t_final), y0, method="DOP853",
                    t_eval=t_eval, rtol=rtol, atol=atol)
    states = []
    for t, X, P in zip(sol.t, sol.y[0], sol.y[1]):
        states.append(ClassicalCKState(float(X), float(P * math.exp(-g * t)),
                                       float(t)))
    return states


def classical_ck_energy(states, config: PropagatorConfig) -> np.ndarray:
    """Physical energy p^2/2m + V(x) along a classical CK trajectory."""
    c = config.constants
    out = []
    for s in states:
        if config.potential.kind == "harmonic":
            pot = 0.5 * c.mass * config.potential.omega0 ** 2 \
                * (s.x - config.potential.center) ** 2
        else:
            co = config.potential.coefficients
            pot = co[0] + co[1] * s.x + (co[2] if len(co) > 2 else 0.0) * s.x ** 2
        out.append(s.p ** 2 / (2.0 * c.mass) + pot)
    return np.asarray(out)
