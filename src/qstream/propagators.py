"""One split-step stepper for the three dynamical models, in units
hbar = m = 1.

standard           i dPsi/dt = -(1/2) Psi'' + V Psi,  V = omega0^2 x^2 / 2
                   (harmonic) or 0 (free)
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
step, because both scales change, and Kostin its half-potential factor.
A factor rebuilt every step is built in real arithmetic from one tangent
(_phase_factor); one built once per run is cos + i sin (_cis), whose
smaller rounding error is applied at every step.  The kinetic factor is
built only on the n//2 + 1 distinct values of k^2 (k^2 is mirror-symmetric
in FFT order) and mirrored onto the rest.

A run scans only the states it hands out for non-finite values.  A
standard or Caldirola-Kanai step from a finite state is finite exactly
when its phases are, which one scalar per factor decides (_phases_finite),
so such a step with a non-finite phase stops the run where a scan of its
state would; Kostin scans every state, whose friction potential would
otherwise fail on the next step with another error.

The transforms are numpy.fft, run in place.  From BLOCKED_MIN_N points on,
when n factors as n1 * n2 (see fft_shape), each one is a four-step FFT on
the buffer's (n1, n2) view (Bailey, J. Supercomputing 4, 23 (1990)):
batched transforms along both axes with a twiddle multiply between them.
It leaves the spectrum in transposed order, so the kinetic factor is built
in that order too, and nothing is ever transposed.  Every other n takes one
plain transform, which is also the blocked path's test oracle.

Kostin's friction potential takes S from one cumsum of the phase
increments angle(psi[j+1] conj psi[j]), spread linearly across
sub-threshold gaps and constant beyond the valid region; the mass and <S>
are dot products (_friction_potential).  A run's diagnostic series is one
SeriesRecord, whose grid tables are built once per run, so that a row
costs one |psi|^2, one matrix-vector product, one forward FFT and three
dot products.

Closed-form Gaussian solutions for free and harmonic potentials serve as
the numerical ground truth; the classical Caldirola-Kanai path, with its
E0 exp(-gamma t) energy law, is the closed-form damped oscillator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields as qf
from .errors import AllBelowThreshold, StabilityViolation
from .fields import ComplexField, GridSpec

STABILITY_SAFETY = 0.5
# Blocked transforms, for n >= BLOCKED_MIN_N: n2 is the smallest divisor of
# n that is >= MIN_COLUMNS and leaves n1 = n / n2 >= MIN_ROWS.  Short
# transforms stay in cache where one long one does not.  Split-step time,
# blocked over plain (median of 31 paired rounds, 2-core x86-64 VM, numpy
# 2.4.6), n2 = 64: 1.05 at n = 4096, 0.92 at 6144, 0.87 at 8192, 0.54 at
# 12288, 0.49 at 16384, 0.46 at 32768, 0.48 at 49152; n2 = 32, 128 or 256
# was no faster at any n from 8192 on.  At n1 = 8 (8248 = 8 * 1031) the
# ratio was 0.30.  Smaller n1 gains too (0.44 at 8212 = 4 * 2053), but only
# for n with a prime factor above n / 8, which no catalog grid has;
# MIN_ROWS keeps those on the plain path.
BLOCKED_MIN_N = 8192
MIN_COLUMNS = 64
MIN_ROWS = 8
# (t_final - t0) / dt may differ from its whole step count n by at most
# STEP_TOLERANCE * max(1, n): room for the rounding of the division, none
# for a t_final between two steps
STEP_TOLERANCE = 1e-9

# the models PropagatorConfig accepts
MODELS = ("standard", "caldirola_kanai", "kostin")


@dataclass(frozen=True)
class PotentialSpec:
    """Potential selector: free, or harmonic(omega0) about x = 0."""

    kind: str = "free"
    omega0: float = 0.0

    def __post_init__(self):
        if self.kind not in ("free", "harmonic"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "harmonic" and self.omega0 <= 0:
            raise ValueError("harmonic potential requires omega0 > 0")

    def evaluate(self, grid: GridSpec) -> np.ndarray:
        x = grid.x
        if self.kind == "free":
            return np.zeros_like(x)
        return 0.5 * self.omega0 ** 2 * x ** 2


@dataclass(frozen=True)
class PropagatorConfig:
    model: str = "standard"
    potential: PotentialSpec = dc_field(default_factory=PotentialSpec)
    gamma: float = 0.0
    dt: float = 1e-3

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")


def check_stability(psi: ComplexField, config: PropagatorConfig) -> None:
    """Accuracy bound dt <= safety / E_char.

    The split-step scheme is unitary, hence unconditionally stable; what
    degrades with large dt is the splitting accuracy, governed by the
    phase advanced per step.  E_char is the state's energy scale
    <T> + (<V> - min V).
    """
    T = qf.kinetic_energy(psi)
    n = qf.norm(psi)
    if n <= 0:
        return
    V = config.potential.evaluate(psi.grid)
    rho = np.abs(psi.values) ** 2
    Vmean = np.trapezoid(V * rho, dx=psi.grid.dx) / n
    E = T / n + Vmean - V.min()
    if E > 0 and config.dt > STABILITY_SAFETY / E:
        raise StabilityViolation(
            f"dt = {config.dt:g} exceeds bound "
            f"{STABILITY_SAFETY / E:g} (E_char = {E:g})")


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


def state_count(n_steps: int, every: int) -> int:
    """The number of states a run of n_steps hands out: the first, every
    `every`-th and the last."""
    return -(-n_steps // every) + 1


def state_time(t0: float, dt: float, i: int) -> float:
    """The time t0 + i dt of the state i steps after t0, as a Python float:
    every state of a run is timed by this rule, so its times never drift
    with the number of steps taken."""
    return float(t0 + i * dt)


def _phase_factor(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) of a real array from one tangent t = tan(phase / 2):
    cos(phase) = (1 - t^2) / (1 + t^2) and sin(phase) = 2t / (1 + t^2),
    written into the two halves of one fresh complex array.  One np.tan
    costs a fifth to a third of np.cos plus np.sin, for about twice their
    rounding error (cos = e - 1, sin = t e with e = 2 / (1 + t^2) doubles
    it again: e - 1 loses a bit when e is near 2).  At odd multiples of pi
    the float t is large but finite, and the factor is -1; a nan or inf
    phase gives nan."""
    out = np.empty(phase.shape, dtype=complex)
    t = 0.5 * phase
    np.tan(t, out=t)
    t2 = t * t
    d = 1.0 + t2
    np.subtract(1.0, t2, out=t2)
    np.divide(t2, d, out=out.real)
    t *= 2.0
    np.divide(t, d, out=out.imag)
    return out


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) of a real array as cos + i sin, each within an ulp: for
    the factors a run builds once and applies at every step, where a
    rounding error of the factor would add up step after step."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _mirrored_phase_factor(half_phase: np.ndarray, n: int,
                           factor) -> np.ndarray:
    """exp(i phase) on the n FFT frequencies of a phase that is even in k,
    from its values on the first n//2 + 1, built by `factor`: entry n - j
    repeats entry j."""
    out = np.empty(n, dtype=complex)
    h = len(half_phase)
    out[:h] = factor(half_phase)
    out[h:] = out[1:n - h + 1][::-1]
    return out


def fft_shape(n: int) -> tuple:
    """The (n1, n2) view an n-point split-step transform runs on: for
    n >= BLOCKED_MIN_N, n2 is the smallest divisor of n >= MIN_COLUMNS with
    n1 = n / n2 >= MIN_ROWS; (1, n), one plain transform, when there is
    none or n is smaller."""
    if n >= BLOCKED_MIN_N:
        for n2 in range(MIN_COLUMNS, n // MIN_ROWS + 1):
            if n % n2 == 0:
                return n // n2, n2
    return 1, n


def largest_prime_factor(n: int) -> int:
    """The largest prime factor of n >= 2, by trial division."""
    p, largest = 2, 1
    while p * p <= n:
        while n % p == 0:
            n //= p
            largest = p
        p += 1
    return max(largest, n)


class _Transform:
    """The in-place n-point DFT pair of the split step.  On the blocked
    path (fft_shape(n) = (n1, n2) with n1 > 1) the forward transform leaves
    entry k1 + n1 k2 of the spectrum at position k1 n2 + k2, and the
    inverse takes it from there; `spectral` puts an array given in FFT
    order into that order."""

    def __init__(self, n: int):
        self.shape = n1, n2 = fft_shape(n)
        self.blocked = n1 > 1
        if self.blocked:
            # w^(k1 b), w = exp(-2 pi i / n): k1 b < n needs no reduction
            self.twiddle = np.exp((-2j * np.pi / n)
                                  * np.outer(np.arange(n1), np.arange(n2)))
            self.untwiddle = self.twiddle.conj()

    def spectral(self, a: np.ndarray) -> np.ndarray:
        # a transposing copy: faster than a gather through an index array,
        # or a factor built from k^2 stored in this order
        if not self.blocked:
            return a
        n1, n2 = self.shape
        return a.reshape(n2, n1).T.ravel()

    def forward(self, buf: np.ndarray) -> None:
        if not self.blocked:
            np.fft.fft(buf, out=buf)
            return
        v = buf.reshape(self.shape)
        np.fft.fft(v, axis=0, out=v)
        v *= self.twiddle
        np.fft.fft(v, axis=1, out=v)

    def inverse(self, buf: np.ndarray) -> None:
        if not self.blocked:
            np.fft.ifft(buf, out=buf)
            return
        v = buf.reshape(self.shape)
        np.fft.ifft(v, axis=1, out=v)
        v *= self.untwiddle
        np.fft.ifft(v, axis=0, out=v)


def _split_step(values: np.ndarray, half_V: np.ndarray, kinetic: np.ndarray,
                transform: _Transform) -> np.ndarray:
    """Symmetric split step with the phase factors half_V = exp(-i V dt/2)
    and kinetic = exp(-i k^2 dt/2): half potential, full kinetic, half
    potential.  kinetic is in the order `transform` leaves the spectrum.
    Both transforms run in place on the fresh product half_V * values,
    never on `values`, which stored snapshots share."""
    buf = half_V * values
    transform.forward(buf)
    buf *= kinetic
    transform.inverse(buf)
    buf *= half_V
    return buf


def _density(values: np.ndarray) -> np.ndarray:
    """|values|^2 as Re^2 + Im^2: faster than np.abs(values) ** 2, which
    goes through hypot, and equal to it within an ulp or two."""
    rho = np.square(values.real)
    rho += np.square(values.imag)
    return rho


def _friction_potential(values: np.ndarray,
                        config: PropagatorConfig) -> np.ndarray:
    """gamma (S - int rho S dx) with rho normalized to unit mass.

    Below the node threshold the phase is numerical noise; there S is
    continued from the valid region (linearly inside, constant beyond)
    so the friction potential stays smooth where the density vanishes.

    S is one cumsum of phase increments from the first valid point on,
    where it is 0 (W does not depend on where S is anchored).  Between
    two valid neighbours the increment is angle(psi[j+1] conj psi[j]), the
    wrapped step of the raw phase; across an interior sub-threshold gap
    from valid point a to valid point b, the raw-phase jump
    angle(psi[b]) - angle(psi[a]) spread evenly over its b - a joins, the
    straight line np.interp draws on the uniform grid; beyond the first
    and the last valid point, none.  The mass and <S> are trapezoid sums,
    each a dot product with its end terms.
    """
    rho = _density(values)
    valid = qf.node_mask(rho)
    # edge j lies between points j and j + 1 where validity changes; the
    # first edge ends a leading sub-threshold run, the last may begin a
    # trailing one, and the edges between them pair up around the gaps
    edges = np.flatnonzero(valid[1:] != valid[:-1])
    lead, trail = int(not valid[0]), int(not valid[-1])
    if lead and not edges.size:
        raise AllBelowThreshold("density below node threshold everywhere")
    first = int(edges[0]) + 1 if lead else 0
    last = int(edges[-1]) if trail else len(values) - 1
    edges = edges[lead:len(edges) - trail] - first
    psi = values[first:last + 1]
    p = np.conj(psi[:-1])
    p *= psi[1:]
    # np.angle(p), a sixth faster with the imaginary parts contiguous
    inc = np.arctan2(np.ascontiguousarray(p.imag), p.real)
    del p  # the largest temporary: not alive with S (peak RSS)
    if edges.size:
        # gap k runs from valid point a[k] to valid point b[k]
        a, b = edges[0::2], edges[1::2] + 1
        inner = valid[first:last + 1]
        gaps = ~(inner[1:] & inner[:-1])
        inc[gaps] = np.repeat((np.angle(psi[b]) - np.angle(psi[a])) / (b - a),
                              b - a)
    S = np.empty(len(values))
    S[:first + 1] = 0.0
    np.cumsum(inc, out=S[first + 1:last + 1])
    S[last + 1:] = S[last]
    mass = rho.sum() - 0.5 * (rho[0] + rho[-1])
    mean = (rho @ S - 0.5 * (rho[0] * S[0] + rho[-1] * S[-1])) / mass
    S -= mean
    S *= config.gamma
    return S


def _phases_finite(potential_peak: float, kinetic_peak: float) -> bool:
    """Whether a split step's phases are all finite, from the largest
    magnitude of each: the coefficient times max |V|, or times max k^2.
    Rounding is monotone, so no phase of the step is larger.  A step with a
    non-finite phase would leave a state that is nan throughout."""
    return math.isfinite(potential_peak) and math.isfinite(kinetic_peak)


def _stepper(grid: GridSpec, config: PropagatorConfig):
    """The configured model's time step as a function (values, t) -> the
    values one step of config.dt later.  V and every phase factor with a
    constant coefficient are built once, here.  Kostin's step at gamma > 0
    is two-step: a call on the values the previous call returned reuses
    that call's friction potential.

    A step that would leave a non-finite state raises ValueError with
    fields.require_finite's message: the standard and Caldirola-Kanai steps
    before they start, when a phase is not finite (_phases_finite), and the
    Kostin step after it, by a scan of its result."""
    dt, gamma = config.dt, config.gamma
    V = config.potential.evaluate(grid)
    n = grid.n_points
    k2_half = grid.wavenumbers()[:n // 2 + 1] ** 2
    transform = _Transform(n)
    V_peak, k2_peak = float(np.abs(V).max()), float(k2_half.max())
    potential_c = -0.5 * dt

    def kinetic_c(scale):
        return -0.5 * scale * dt

    def kinetic(scale, factor=_phase_factor):
        return transform.spectral(_mirrored_phase_factor(
            kinetic_c(scale) * k2_half, n, factor))

    def half_potential(V_eff, factor=_phase_factor):
        return factor(potential_c * V_eff)

    if config.model == "caldirola_kanai" and gamma > 0:
        def advance(values: np.ndarray, t: float) -> np.ndarray:
            t_mid = t + 0.5 * dt
            grow, shrink = math.exp(gamma * t_mid), math.exp(-gamma * t_mid)
            if not _phases_finite(potential_c * (grow * V_peak),
                                  kinetic_c(shrink) * k2_peak):
                raise ValueError(qf.NON_FINITE)
            return _split_step(values, half_potential(grow * V),
                               kinetic(shrink), transform)
        return advance

    kin = kinetic(1.0, _cis)
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
            W = _friction_potential(values, config)
            if values is out_last:
                W_mid = 1.5 * W - 0.5 * W_last
            else:
                trial = _split_step(values, half_potential(V + W), kin,
                                    transform)
                W_mid = 0.5 * (W + _friction_potential(trial, config))
            out = _split_step(values, half_potential(V + W_mid), kin,
                              transform)
            qf.require_finite(out)
            W_last, out_last = W, out
            return out
        return advance

    half_V = half_potential(V, _cis)
    finite = _phases_finite(potential_c * V_peak, kinetic_c(1.0) * k2_peak)

    def advance(values: np.ndarray, t: float) -> np.ndarray:
        if not finite:
            raise ValueError(qf.NON_FINITE)
        return _split_step(values, half_V, kin, transform)
    return advance


def step(psi: ComplexField, config: PropagatorConfig) -> ComplexField:
    """Advance psi by one time step config.dt of the configured model, from
    a cold start: for Kostin at gamma > 0 the predictor-corrector step that
    begins a run, so repeated calls are that one-step scheme throughout."""
    values = _stepper(psi.grid, config)(psi.values, psi.time)
    return ComplexField(psi.grid, values, state_time(psi.time, config.dt, 1))


def physical_energy(psi: ComplexField, config: PropagatorConfig) -> float:
    """<p^2/2 + V> in the physical variables.

    For Caldirola-Kanai the operator -i d/dx is the canonical
    momentum, so the physical kinetic term carries exp(-2 gamma t)."""
    T = qf.kinetic_energy(psi)
    if config.model == "caldirola_kanai":
        T *= math.exp(-2.0 * config.gamma * psi.time)
    V = config.potential.evaluate(psi.grid)
    rho = np.abs(psi.values) ** 2
    n = np.trapezoid(rho, dx=psi.grid.dx)
    return float(T / n + np.trapezoid(V * rho, dx=psi.grid.dx) / n)


class SeriesRecord:
    """The diagnostic series of a run: time, norm, <x>, sigma and
    physical_energy of each recorded state, in five columns preallocated
    for `rows` rows.  fields.norm, expectation_position, position_spread
    and physical_energy compute the same values one at a time, and are its
    test oracles.

    The grid tables are built once: the trapezoid weights times 1, x, x^2
    and V as one (4, n) matrix, with x taken from the grid's midpoint x_c
    so that <x^2> - <x>^2 does not cancel on a grid placed away from 0;
    T_k = k^2 / 2; and row n - 1 of the inverse DFT times T.  By
    Parseval, sum_j conj(psi_j) ifft(T psi^)_j = sum_k T_k |psi^_k|^2 / n,
    so the kinetic trapezoid needs one forward FFT, and its end terms only
    the first and the last entry of ifft(T psi^)."""

    def __init__(self, grid: GridSpec, config: PropagatorConfig, rows: int):
        n, dx = grid.n_points, grid.dx
        self.config, self.dx = config, dx
        self.x_c = 0.5 * (grid.x_min + grid.x_max)
        w = np.full(n, dx)
        w[0] = w[-1] = 0.5 * dx
        x = grid.x - self.x_c
        self.weights = np.stack((w, w * x, w * x * x,
                                 w * config.potential.evaluate(grid)))
        k = grid.wavenumbers()
        self.kinetic = 0.5 * k * k
        # entry n - 1 of ifft(a) is sum_k a_k exp(2 pi i k (n - 1) / n) / n
        self.last_row = self.kinetic * (np.exp((-2j * np.pi / n)
                                               * np.arange(n)) / n)
        self.columns = np.empty((5, rows))
        self.rows = 0

    def row(self, psi: ComplexField) -> tuple:
        """(time, norm, <x>, sigma, energy) of psi."""
        values, n = psi.values, psi.grid.n_points
        mass, m1, m2, m_V = self.weights @ _density(values)
        mean = m1 / mass
        spectrum = np.fft.fft(values)
        parts = spectrum.view(float).reshape(n, 2)
        # sum_k T_k |psi^_k|^2 / n, and the first and last entries of
        # ifft(T psi^) for the trapezoid's end terms
        body = (self.kinetic @ np.square(parts)).sum() / n
        first = complex(*(self.kinetic @ parts)) / n
        last = self.last_row @ spectrum
        ends = (values[0].conjugate() * first
                + values[-1].conjugate() * last).real
        T = self.dx * (body - 0.5 * ends)
        if self.config.model == "caldirola_kanai":
            T *= math.exp(-2.0 * self.config.gamma * psi.time)
        return (psi.time, mass, self.x_c + mean,
                np.sqrt(max(m2 / mass - mean * mean, 0.0)), (T + m_V) / mass)

    def __call__(self, psi: ComplexField) -> None:
        self.columns[:, self.rows] = self.row(psi)
        self.rows += 1


@dataclass
class PropagationRun:
    """Kept states plus the norm / centroid / width / energy series of
    every handed-out state, and the number of time steps taken."""

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
              snapshot_every: int = 1, consumers=None) -> PropagationRun:
    """Run the configured model from psi0.time to t_final, which must lie
    a whole number of steps of config.dt away (see whole_steps).  The state
    i steps on lies at state_time(psi0.time, config.dt, i).

    The initial state, every `snapshot_every`-th state and the final state
    are handed out, in time order: first to the run's SeriesRecord, then to
    every callable in `consumers`.  With `consumers` None, run.snapshots
    holds every handed-out state; otherwise it holds only the initial and
    final states, so that memory does not grow with the number of states
    handed out, and `consumers=()` records the series alone.
    """
    if t_final < psi0.time:
        raise ValueError("t_final must be >= the initial time")
    n_steps = whole_steps(psi0.time, t_final, config.dt)
    if t_final > psi0.time:
        check_stability(psi0, config)
    advance = _stepper(psi0.grid, config)
    snapshots = []
    record = SeriesRecord(psi0.grid, config,
                          state_count(n_steps, snapshot_every))
    hand_out = (record, *((snapshots.append,) if consumers is None
                          else consumers))
    for consume in hand_out:
        consume(psi0)
    grid = psi0.grid
    values, t, psi = psi0.values, psi0.time, psi0
    for i in range(1, n_steps + 1):
        values = advance(values, t)
        t = state_time(psi0.time, config.dt, i)
        if i % snapshot_every == 0 or i == n_steps:
            psi = ComplexField(grid, values, t)
            for consume in hand_out:
                consume(psi)
    if consumers is not None:
        snapshots = [psi0] if psi is psi0 else [psi0, psi]
    return PropagationRun(config, snapshots, *record.columns, steps=n_steps)


def analytic_gaussian_oracle(params: dict, config: PropagatorConfig,
                             t: float) -> ComplexField:
    """Closed-form evolved Gaussian for free or harmonic potentials.

    The state is written with a complex width factor s(t) solving the
    classical equation of motion (s'' = 0 free, s'' = -omega^2 s harmonic)
    with s(0) = 1, s'(0) = i / (2 sigma0^2):

        psi = (2 pi sigma0^2)^{-1/4} s^{-1/2}
              exp[ (i / 2)(s'/s)(x - xc)^2 + i pc (x - xc) + i phi ]

    with (xc, pc) the classical trajectory and phi the classical action
    integral of the Lagrangian along it.
    """
    sigma0 = params["sigma0"]
    x0 = params.get("x0", 0.0)
    p0 = params.get("p0", 0.0)
    grid = params["grid"]
    x = grid.x
    eps = 1.0 / (2.0 * sigma0 ** 2)

    if config.potential.kind == "free":
        s = 1.0 + 1j * eps * t
        s_dot = 1j * eps
        xc = x0 + p0 * t
        pc = p0
        phi = p0 ** 2 * t / 2.0
        theta = np.angle(s)  # no winding: Re s = 1
    else:
        w = config.potential.omega0
        xc = x0 * math.cos(w * t) + (p0 / w) * math.sin(w * t)
        pc = p0 * math.cos(w * t) - w * x0 * math.sin(w * t)
        phi = ((p0 ** 2 - (w * x0) ** 2) * math.sin(2 * w * t) / (2 * w)
               + x0 * p0 * (math.cos(2 * w * t) - 1.0)) / 2.0
        s = math.cos(w * t) + 1j * (eps / w) * math.sin(w * t)
        s_dot = -w * math.sin(w * t) + 1j * eps * math.cos(w * t)
        # s winds around the origin once per period, staying within a
        # quadrant of exp(i w t); unwrap the sqrt branch accordingly
        theta = w * t + np.angle(s * np.exp(-1j * w * t))

    inv_sqrt_s = np.exp(-0.5 * (np.log(abs(s)) + 1j * theta))
    quad = 0.5j * (s_dot / s) * (x - xc) ** 2
    values = ((2.0 * np.pi * sigma0 ** 2) ** -0.25 * inv_sqrt_s
              * np.exp(quad + 1j * (pc * (x - xc) + phi)))
    return ComplexField(grid, values, t)


def free_gaussian_width(sigma0: float, t):
    """sigma(t) = sigma0 sqrt(1 + (t / 2 sigma0^2)^2)."""
    eps = 1.0 / (2.0 * sigma0 ** 2)
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
