"""Bohmian trajectory ensembles.

Initial positions are drawn deterministically from the quantiles of the
initial density, then advanced with classic RK4 through the velocity
field v = J/rho reconstructed from stored propagation snapshots (cubic in
space, linear in time).  For Caldirola-Kanai runs the guidance law picks
up the rate factor exp(-gamma t); Kostin trajectories use the plain
velocity of the evolving nonlinear state.

A BundleStream marches an ensemble while the states are produced, keeping
only the few frames that the next mesh step needs; integrate_bundle
replays a run's stored snapshots through it.  A VelocitySampler over every
snapshot is the random-access path, and `_march` steps any rows, one
trajectory included, through it.

Diagnostics: strict ordering at every mesh time (the non-crossing
property) and conservation of the probability enclosed between any two
trajectories (probability tubes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields as qf
from .errors import LeftDomain, NodeEncounter, ZeroDensity
from .fields import GridSpec
from .propagators import PropagationRun, rate_factor, whole_steps


@dataclass(frozen=True)
class InitialEnsemble:
    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 1 or not np.all(np.diff(pos) > 0):
            raise ValueError("positions must be strictly increasing")
        object.__setattr__(self, "positions", pos)


@dataclass(frozen=True)
class TrajectoryBundle:
    times: np.ndarray
    xs: np.ndarray  # shape (n_trajectories, n_times)
    errors: tuple = ()
    fallback_rows: int = 0  # row-steps that took the scalar halving fallback
    halvings: int = 0       # step halvings made by those that succeeded
    tubes: np.ndarray = None  # tube probabilities, when marched by a stream


def _cdf(rho: np.ndarray, grid: GridSpec) -> np.ndarray:
    inc = 0.5 * (rho[1:] + rho[:-1]) * grid.dx
    return np.concatenate(([0.0], np.cumsum(inc)))


# the schemes sample_initial_positions accepts
SCHEMES = ("quantile", "equal_spacing")


def sample_initial_positions(rho: np.ndarray, grid: GridSpec, n: int,
                             scheme: str = "quantile") -> InitialEnsemble:
    """Deterministic ensemble from a density: quantile midpoints
    (i - 1/2)/n, or equal spacing over the above-threshold support."""
    rho = np.asarray(rho, dtype=float)
    if n < 2:
        raise ValueError("n must be >= 2")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown sampling scheme {scheme!r}")
    cdf = _cdf(rho, grid)
    total = cdf[-1]
    if total <= 0:
        raise ZeroDensity("density integrates to zero")
    if scheme == "quantile":
        targets = (np.arange(n) + 0.5) / n * total
        positions = np.interp(targets, cdf, grid.x)
        return InitialEnsemble(positions)
    valid = qf.node_mask(rho)  # equal_spacing
    idx = np.flatnonzero(valid)
    lo, hi = grid.x[idx[0]], grid.x[idx[-1]]
    return InitialEnsemble(np.linspace(lo, hi, n))


def _velocity_frame(psi, constants, method: str = "fd4"):
    """The guidance velocity of one state, 0 at invalid points, and its
    validity flags."""
    vf = qf.velocity_field(psi, constants, method=method)
    return np.where(vf.valid, vf.v, 0.0), vf.valid


class VelocitySampler:
    """v(x, t) from a snapshot sequence: cubic in x on valid points
    (shrinking to linear beside invalid nodes), linear in t."""

    def __init__(self, grid: GridSpec, config, times, v, ok):
        """A sampler over frames: their times, and their velocities (0
        where invalid) and validity flags as (n_frames, n_points) arrays."""
        self.grid, self.config = grid, config
        self.times, self.v, self.ok = times, v, ok

    @classmethod
    def from_run(cls, run: PropagationRun,
                 method: str = "fd4") -> VelocitySampler:
        """A sampler over every stored snapshot of a run."""
        frames = [_velocity_frame(s, run.config.constants, method)
                  for s in run.snapshots]
        return cls(run.snapshots[0].grid, run.config,
                   np.array([s.time for s in run.snapshots]),
                   np.asarray([v for v, _ in frames]),
                   np.asarray([ok for _, ok in frames]))

    def _space(self, i: int, xq: np.ndarray):
        """v and its ok flag at xq on snapshots i and i + 1, as (2, m)
        arrays: 4-point Lagrange in x where all four nodes are valid and
        inside the grid, else linear between the two nodes around xq.  Both
        rows share one stencil (indices and weights)."""
        g = self.grid
        last = g.n_points - 1
        rows = np.array([[i], [i + 1]])
        s = (xq - g.x_min) / g.dx
        j = np.minimum(np.maximum(np.floor(s).astype(int), 0), last - 1)
        f = s - j
        jm, j1, j2 = np.maximum(j - 1, 0), j + 1, np.minimum(j + 2, last)
        v, ok = self.v, self.ok
        linear_ok = ok[rows, j] & ok[rows, j1]
        cubic_ok = (ok[rows, jm] & linear_ok & ok[rows, j2]
                    & ((j - 1 >= 0) & (j + 2 <= last)))
        w = qf.cubic_weights(f)
        v_j, v_j1 = v[rows, j], v[rows, j1]
        cubic = (w[0] * v[rows, jm] + w[1] * v_j + w[2] * v_j1
                 + w[3] * v[rows, j2])
        linear = (1 - f) * v_j + f * v_j1
        return np.where(cubic_ok, cubic, linear), cubic_ok | linear_ok

    def sample(self, xq: np.ndarray, t: float):
        """Returns (velocity, ok) arrays; rate factor included."""
        xq = np.asarray(xq, dtype=float)
        times = self.times
        i = np.searchsorted(times, t) - 1
        i = min(max(i, 0), len(times) - 2)
        w = (t - times[i]) / (times[i + 1] - times[i])
        w = min(max(w, 0.0), 1.0)
        v, ok = self._space(i, xq)
        rate = rate_factor(self.config, t)
        return rate * ((1 - w) * v[0] + w * v[1]), ok[0] & ok[1]


def _rk4_step(sampler: VelocitySampler, x: np.ndarray, t: float, dt: float):
    k1, o1 = sampler.sample(x, t)
    k2, o2 = sampler.sample(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3, o3 = sampler.sample(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4, o4 = sampler.sample(x + dt * k3, t + dt)
    return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), o1 & o2 & o3 & o4


def _step_with_halving(sampler, x: float, t: float, dt: float,
                       max_halvings: int = 8):
    """Scalar fallback near quasi-nodes: halve the step up to 8 times.
    Returns the new position and the number of halvings made."""
    xa = np.array([x])
    out, ok = _rk4_step(sampler, xa, t, dt)
    if ok[0]:
        return float(out[0]), 0
    if max_halvings == 0:
        raise NodeEncounter(f"invalid velocity region near x = {x:g}, t = {t:g}")
    h = 0.5 * dt
    x, n1 = _step_with_halving(sampler, x, t, h, max_halvings - 1)
    x, n2 = _step_with_halving(sampler, x, t + h, h, max_halvings - 1)
    return x, 1 + n1 + n2


class _March:
    """All rows marched over a time mesh, one RK4 call per mesh step over
    the live rows; rows with an invalid velocity take the scalar halving
    fallback.  A row that meets a node or leaves the grid is dropped and NaN
    at every mesh time.  Each step(sampler) advances one mesh step, so the
    sampler may change between steps."""

    def __init__(self, x0: np.ndarray, times: np.ndarray):
        self.times = times
        self.xs = np.full((len(x0), len(times)), np.nan)
        self.xs[:, 0] = x0
        self.x = np.asarray(x0, dtype=float)
        self.live = np.arange(len(x0))
        self.errors = []
        self.fallback_rows = self.halvings = 0
        self.k = 0  # mesh steps taken

    def step(self, sampler) -> None:
        k, times, x, live = self.k, self.times, self.x, self.live
        g = sampler.grid
        t, dt = times[k], times[k + 1] - times[k]
        x_new, ok = _rk4_step(sampler, x, t, dt)
        failed = {}
        for r in np.flatnonzero(~ok):
            self.fallback_rows += 1
            try:
                x_new[r], n = _step_with_halving(sampler, x[r], t, dt)
                self.halvings += n
            except NodeEncounter as exc:
                failed[r] = exc
        for r in np.flatnonzero((x_new < g.x_min) | (x_new > g.x_max)):
            failed.setdefault(r, LeftDomain(
                f"trajectory {live[r]} left the grid at t = {times[k + 1]:g}"))
        if failed:
            self.errors += [(int(live[r]), exc) for r, exc in failed.items()]
            keep = np.ones(len(live), dtype=bool)
            keep[list(failed)] = False
            live, x_new = live[keep], x_new[keep]
        self.x, self.live = x_new, live
        self.xs[live, k + 1] = x_new
        self.k = k + 1

    def result(self):
        """The positions, the sorted [(row, exception), ...] of dropped
        rows, the number of row-steps sent to the fallback and the halvings
        it made."""
        self.errors.sort(key=lambda e: e[0])
        self.xs[[row for row, _ in self.errors]] = np.nan
        return self.xs, self.errors, self.fallback_rows, self.halvings


def _march(sampler: VelocitySampler, x0: np.ndarray, times: np.ndarray):
    """The _March over the whole mesh with one sampler; returns
    _March.result()."""
    march = _March(x0, times)
    for _ in range(len(times) - 1):
        march.step(sampler)
    return march.result()


def time_mesh(t_span, dt_traj: float) -> np.ndarray:
    """Whole steps of dt_traj from t_span[0] to t_span[1] (at least one);
    ValueError when dt_traj does not divide the span (see whole_steps)."""
    t_start, t_end = t_span
    n = max(1, whole_steps(t_start, t_end, dt_traj))
    return t_start + (t_end - t_start) * np.arange(n + 1) / n


def check_frame_gap(gap: float, dt_traj: float) -> None:
    """ValueError when two successive stored states lie more than
    10 dt_traj apart, with 1e-9 slack for rounding: the velocity is linear
    in time between them."""
    if gap > 10.0 * dt_traj * (1 + 1e-9):
        raise ValueError(f"snapshot spacing {gap!r} exceeds 10 * dt_traj; "
                         "store more snapshots or increase dt_traj")


def _enclosed(xk: np.ndarray, t: float, snap_times, rhos,
              grid: GridSpec) -> np.ndarray:
    """Probability between neighbouring positions xk at time t, with rho
    linear in time between the densities rhos at snap_times."""
    a = min(max(np.searchsorted(snap_times, t) - 1, 0), len(snap_times) - 2)
    w = min(max((t - snap_times[a]) / (snap_times[a + 1] - snap_times[a]),
                0.0), 1.0)
    rho = (1 - w) * rhos[a] + w * rhos[a + 1]
    return np.diff(np.interp(xk, grid.x, _cdf(rho, grid)))


class BundleStream:
    """A trajectory bundle marched through the states of a run as they are
    produced: call it on each stored state in time order, then finish().

    It keeps a sliding window of frames (time, v, ok, rho): only those that
    the next RK4 mesh step and the next tube time need, that is from the
    last frame before the step's start (at least the last two frames) to
    one frame past the first frame at or after its end, which covers the
    rounding of t + dt.  Within that window the sampler picks the same two
    frames as a VelocitySampler over every frame, so the march and the
    tube values equal those over every stored snapshot bit for bit.

    A step's halving fallback may sample any time inside the step, so the
    window keeps every frame of it: about dt_traj / (frame spacing) + 3
    frames, which grows with the number of frames per mesh step but not
    with the number of mesh steps.
    """

    def __init__(self, ensemble: InitialEnsemble, grid: GridSpec, config,
                 dt_traj: float, t_span):
        self.grid, self.config = grid, config
        self.dt_traj = dt_traj
        self.times = time_mesh(t_span, dt_traj)
        n = len(ensemble.positions)
        self.tubes = np.empty((n - 1, len(self.times))) if n >= 2 else None
        self._march = _March(ensemble.positions, self.times)
        self._frames = []      # the window: (time, v, ok, rho), in time order
        self._sampler = None   # the window's sampler, built on first use
        self._k = 0            # next mesh time to reach
        self._last_time = None  # of the latest frame
        self._finished = False

    def __call__(self, psi) -> None:
        """Take the next stored state."""
        v, ok = _velocity_frame(psi, self.config.constants)
        self.push(psi.time, v, ok, np.abs(psi.values) ** 2)

    def push(self, time: float, v: np.ndarray, ok: np.ndarray,
             rho: np.ndarray) -> None:
        """Take the next frame: its time, velocity (0 where invalid),
        validity flags and density.  ValueError when it lies too far after
        the previous frame (see check_frame_gap)."""
        if self._last_time is not None:
            check_frame_gap(time - self._last_time, self.dt_traj)
        self._last_time = time
        if self._k < len(self.times):  # else the mesh is done
            self._frames.append((time, v, ok, rho))
            self._sampler = None
            self._advance()

    def finish(self) -> TrajectoryBundle:
        """The bundle after the last state; bundle.tubes holds the tube
        probabilities, NaN beside a failed row."""
        self._finished = True
        self._advance()
        xs, errors, fallback_rows, halvings = self._march.result()
        if self.tubes is not None:
            for row, _ in errors:
                self.tubes[max(row - 1, 0):row + 1] = np.nan
        return TrajectoryBundle(self.times, xs, tuple(
            (row, type(exc).__name__, str(exc)) for row, exc in errors),
            fallback_rows, halvings, self.tubes)

    def _ready(self, t: float) -> bool:
        frames = self._frames
        return self._finished or (len(frames) >= 2 and frames[-2][0] >= t)

    def _window(self) -> VelocitySampler:
        """A sampler over the window, rebuilt only when its frames change."""
        if self._sampler is None:
            frames = self._frames
            self._sampler = VelocitySampler(
                self.grid, self.config, np.array([f[0] for f in frames]),
                np.asarray([f[1] for f in frames]),
                np.asarray([f[2] for f in frames]))
        return self._sampler

    def _advance(self) -> None:
        """Reach every mesh time the window covers: its tube values, and
        the mesh step that leaves it."""
        last = len(self.times) - 1
        frames = self._frames
        while self._k <= last:
            t = self.times[self._k]
            # on every push, not only when a mesh step is ready, so that the
            # window never holds more than one mesh step of frames
            while len(frames) > 2 and frames[1][0] < t:
                frames.pop(0)
                self._sampler = None
            if not self._ready(self.times[min(self._k + 1, last)]):
                break
            sampler = self._window()
            if self.tubes is not None:
                self.tubes[:, self._k] = _enclosed(
                    self._march.xs[:, self._k], t, sampler.times,
                    [f[3] for f in frames], self.grid)
            if self._k < last:
                self._march.step(sampler)
            self._k += 1


def integrate_bundle(ensemble: InitialEnsemble, run: PropagationRun,
                     dt_traj: float, t_span=None,
                     sampler: VelocitySampler = None) -> TrajectoryBundle:
    """One trajectory per initial position, all on a shared time mesh: the
    stored snapshots (velocities from `sampler`, by default a
    VelocitySampler.from_run of the run) replayed through a BundleStream.

    Per-trajectory failures are recorded in bundle.errors as
    (index, error type, message), sorted by index, and the failing
    trajectory is NaN at every mesh time; the other trajectories run on.
    """
    if sampler is None:
        sampler = VelocitySampler.from_run(run)
    if t_span is None:
        t_span = (sampler.times[0], sampler.times[-1])
    stream = BundleStream(ensemble, sampler.grid, run.config, dt_traj, t_span)
    for i, snap in enumerate(run.snapshots):
        stream.push(sampler.times[i], sampler.v[i], sampler.ok[i],
                    np.abs(snap.values) ** 2)
    return stream.finish()


@dataclass(frozen=True)
class NonCrossingReport:
    ok: bool
    min_gap: float = None
    first_violation: tuple = None


def check_non_crossing(bundle: TrajectoryBundle) -> NonCrossingReport:
    """Verify x_i(t) < x_{i+1}(t) at every mesh time."""
    xs = bundle.xs
    if xs.shape[0] < 2:
        return NonCrossingReport(ok=True)
    gaps = np.diff(xs, axis=0)
    min_gap = float(np.nanmin(gaps))
    if min_gap > 0:
        return NonCrossingReport(True, min_gap)
    bad = np.argwhere(~(gaps > 0))
    i, k = bad[np.argmin(bad[:, 1])] if bad.size else (0, 0)
    return NonCrossingReport(False, min_gap, (float(bundle.times[k]), int(i)))


def tube_probability(bundle: TrajectoryBundle,
                     run: PropagationRun) -> np.ndarray:
    """Probability enclosed between each pair of neighbouring trajectories
    at each mesh time, shape (n_trajectories - 1, n_times); rho is
    interpolated linearly between snapshots."""
    if bundle.xs.shape[0] < 2:
        raise ValueError("need at least two trajectories")
    grid = run.snapshots[0].grid
    snap_times = np.array([s.time for s in run.snapshots])
    rhos = np.array([np.abs(s.values) ** 2 for s in run.snapshots])
    out = np.empty((bundle.xs.shape[0] - 1, len(bundle.times)))
    for k, t in enumerate(bundle.times):
        out[:, k] = _enclosed(bundle.xs[:, k], t, snap_times, rhos, grid)
    return out


def write_bundle(path, bundle: TrajectoryBundle, metadata: dict = None) -> None:
    """Text table: one row per mesh time, columns t x_1 ... x_n, with a
    metadata header."""
    with open(path, "w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key} = {value}\n")
        fh.write("# t " + " ".join(f"x_{i + 1}"
                                   for i in range(bundle.xs.shape[0])) + "\n")
        qf.write_rows(fh, bundle.times, bundle.xs.T)
