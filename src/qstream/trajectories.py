"""Bohmian trajectory ensembles.

Initial positions are drawn deterministically from the quantiles of the
initial density, then advanced with classic RK4 through the velocity
field v = J/rho reconstructed from stored propagation snapshots: cubic in
space, and cubic in time over the four snapshots around each interval
between stored states.  The march goes from stored state to stored state,
each interval in the fewest equal RK4 steps no longer than dt_traj.  For
Caldirola-Kanai runs the guidance law picks up the rate factor
exp(-gamma t); Kostin trajectories use the plain velocity of the evolving
nonlinear state.

A BundleStream marches an ensemble while the states are produced, holding
only the four frames that an interval reads, and marches each interval as
soon as the last state of its time stencil (_stencil) arrives;
integrate_bundle replays a run's stored snapshots through it.  Each
interval is marched through a VelocitySampler over its stencil's frames,
which builds their x-stencil validity once and the time weights once per
stage time; per query point there remain one gather, the cubic weights and
the two Lagrange sums.  The sequential oracle `_march` steps any rows, one
trajectory included, through every interval of a run's velocity_frames.

Diagnostics, at every stored state: strict ordering (the non-crossing
property) and conservation of the probability enclosed between any two
trajectories (probability tubes), from that state's own density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields as qf
from .errors import LeftDomain, NodeEncounter, ZeroDensity
from .fields import GridSpec
from .propagators import STEP_TOLERANCE, PropagationRun, rate_factor


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
    tubes: np.ndarray = None  # tube probabilities, for two or more rows


def _cdf(rho: np.ndarray, grid: GridSpec) -> np.ndarray:
    inc = 0.5 * (rho[1:] + rho[:-1]) * grid.dx
    return np.concatenate(([0.0], np.cumsum(inc)))


# the schemes sample_initial_positions accepts
SCHEMES = ("quantile", "equal_spacing")


def sample_initial_positions(rho: np.ndarray, grid: GridSpec, n: int,
                             scheme: str = "quantile") -> InitialEnsemble:
    """Deterministic ensemble from a density: quantile midpoints
    (i - 1/2)/n, or equal spacing between the first and last of them (the
    edges of the support, where v is undefined, are never used)."""
    rho = np.asarray(rho, dtype=float)
    if n < 2:
        raise ValueError("n must be >= 2")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown sampling scheme {scheme!r}")
    cdf = _cdf(rho, grid)
    total = cdf[-1]
    if total <= 0:
        raise ZeroDensity("density integrates to zero")
    positions = np.interp((np.arange(n) + 0.5) / n * total, cdf, grid.x)
    if scheme == "equal_spacing":
        positions = np.linspace(positions[0], positions[-1], n)
    return InitialEnsemble(positions)


def _velocity_frame(psi):
    """The guidance velocity of one state, 0 at invalid points, and its
    validity flags."""
    vf = qf.velocity_field(psi)
    return np.where(vf.valid, vf.v, 0.0), vf.valid


def velocity_frames(run: PropagationRun) -> tuple:
    """(times, v, ok) of every stored snapshot of a run: the velocities (0
    where invalid) and validity flags as (n_states, n_points) arrays."""
    v, ok = zip(*(_velocity_frame(s) for s in run.snapshots))
    return np.array([s.time for s in run.snapshots]), np.array(v), np.array(ok)


def rk4_steps(gap: float, dt_traj: float) -> int:
    """The fewest equal RK4 steps no longer than dt_traj across a gap
    between stored states, with whole_steps' relative slack STEP_TOLERANCE
    for the rounding of the division: at least one."""
    return max(1, math.ceil(gap / dt_traj * (1 - STEP_TOLERANCE)))


def _stencil(i: int, n: int) -> slice:
    """The states of interval i's time stencil among n states: i - 1 ..
    i + 2, shifted inside the sequence at its two ends (all of them when
    there are fewer than four)."""
    m = min(4, n)
    s = min(max(i - 1, 0), n - m)
    return slice(s, s + m)


# the x stencil of left node j: nodes j - 1 .. j + 2, as a column
_OFFSETS = np.arange(-1, 3)[:, None]


class VelocitySampler:
    """v(x, t) on one interval: cubic in x on valid points (shrinking to
    linear beside invalid nodes), and in t the Lagrange polynomial through
    the frames of the interval's _stencil.

    The work that does not depend on the query points is done once: the
    stencil validity when the sampler is built, and the time weights and
    rate factor of the last time sampled, which the next call reuses at the
    same time (the k2 and k3 stages of an RK4 step share theirs).  So the
    frames must not change while the sampler is in use."""

    def __init__(self, grid: GridSpec, config, times, v, ok):
        """A sampler over the frames of one interval's stencil: their times,
        and their velocities (0 where invalid) and validity flags as
        (n_frames, n_points) arrays.  For each left node j of a query point
        it flags whether its 4-point (cubic) and its 2-point (linear) x
        stencil is valid on every frame."""
        self.grid, self.config = grid, config
        self.times, self.v, self.ok = times, v, ok
        valid = ok.all(axis=0)
        self._linear = valid[:-1] & valid[1:]
        # nodes j - 1 .. j + 2, all inside the grid
        self._cubic = np.zeros_like(self._linear)
        self._cubic[1:-1] = self._linear[:-2] & self._linear[2:]
        self._time = None  # (t, its Lagrange weights, the rate factor)

    def _space(self, j: np.ndarray, f: np.ndarray):
        """v on every frame at the query points with left node j and offset
        f from it in grid steps, as an (n_frames, len(j)) array: 4-point
        Lagrange in x where all four nodes are valid and inside the grid,
        else linear between nodes j and j + 1.  All frames share one
        stencil (indices and weights) and one gather; the linear values are
        computed only when some point lacks the cubic stencil on some
        frame."""
        last = self.grid.n_points - 1
        nodes = np.minimum(np.maximum(j + _OFFSETS, 0), last)
        v = self.v[:, nodes]  # (frames, 4, points)
        cubic = (qf.cubic_weights(f) * v).sum(axis=1)
        if self._cubic[j].all():
            return cubic
        ok = self.ok[:, nodes]
        cubic_ok = ok.all(axis=1) & ((j - 1 >= 0) & (j + 2 <= last))
        return np.where(cubic_ok, cubic, (1 - f) * v[:, 1] + f * v[:, 2])

    def sample(self, xq: np.ndarray, t: float):
        """(velocity, ok) arrays at xq and time t; rate factor included.  A
        point is ok when the two nodes around it are valid on every
        frame."""
        g = self.grid
        s = (np.asarray(xq, dtype=float) - g.x_min) / g.dx
        j = np.minimum(np.maximum(np.floor(s).astype(int), 0), g.n_points - 2)
        v = self._space(j, s - j)
        if self._time is None or self._time[0] != t:
            self._time = (t, qf.lagrange_weights(t, self.times),
                          rate_factor(self.config, t))
        _, w, rate = self._time
        return rate * (w[:, None] * v).sum(axis=0), self._linear[j]


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
    """All rows marched from stored state to stored state, one RK4 call per
    step over the live rows; rows with an invalid velocity take the scalar
    halving fallback.  A row that meets a node or leaves the grid is dropped
    and NaN at every state.  Each interval(sampler, i, dt_traj) crosses
    from the sampler's frame i to frame i + 1, through a sampler over that
    interval's stencil.  The positions at all n_states states are allocated
    up front."""

    def __init__(self, x0: np.ndarray, n_states: int):
        self.x = np.array(x0, dtype=float)
        self.live = np.arange(len(self.x))
        self.xs = np.empty((len(self.x), n_states))
        self.xs[:, 0] = self.x
        self.k = 1  # states reached
        self.errors = []
        self.fallback_rows = self.halvings = 0

    def interval(self, sampler, i: int, dt_traj: float) -> None:
        t0, t1 = sampler.times[i], sampler.times[i + 1]
        n_steps = rk4_steps(t1 - t0, dt_traj)
        dt = (t1 - t0) / n_steps
        for k in range(n_steps):
            self._step(sampler, t0 + k * dt, dt)
        self.xs[:, self.k] = np.nan
        self.xs[self.live, self.k] = self.x
        self.k += 1

    def _step(self, sampler, t: float, dt: float) -> None:
        x, live = self.x, self.live
        g = sampler.grid
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
                f"trajectory {live[r]} left the grid at t = {t + dt:g}"))
        if failed:
            self.errors += [(int(live[r]), exc) for r, exc in failed.items()]
            keep = np.ones(len(live), dtype=bool)
            keep[list(failed)] = False
            live, x_new = live[keep], x_new[keep]
        self.x, self.live = x_new, live

    def result(self):
        """The positions at each state reached, the sorted
        [(row, exception), ...] of dropped rows, the number of row-steps
        sent to the fallback and the halvings it made."""
        self.errors.sort(key=lambda e: e[0])
        self.xs[[row for row, _ in self.errors]] = np.nan
        return self.xs, self.errors, self.fallback_rows, self.halvings


def _march(grid: GridSpec, config, frames: tuple, x0: np.ndarray,
           dt_traj: float):
    """The sequential oracle: the _March over every interval of a run's
    velocity_frames, each through a sampler over its _stencil sliced from
    them; returns _March.result()."""
    times, v, ok = frames
    n = len(times)
    march = _March(x0, n)
    for i in range(n - 1):
        rows = _stencil(i, n)
        sampler = VelocitySampler(grid, config, times[rows], v[rows], ok[rows])
        march.interval(sampler, i - rows.start, dt_traj)
    return march.result()


def _enclosed(xk: np.ndarray, rho: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Probability between neighbouring positions xk under the density
    rho."""
    return np.diff(np.interp(xk, grid.x, _cdf(rho, grid)))


class BundleStream:
    """A trajectory bundle marched through the n_states stored states of a
    run as they are produced: call it on each in time order, then finish().

    It holds the frames (v, ok, rho) of the last four states in
    (4, n_points) arrays, which its samplers view, and marches each
    interval once the last state of its _stencil arrives: the frames held
    are then that stencil, the one `_march` slices from every state, so the
    march and the tube values equal those over every stored snapshot bit
    for bit.  The positions and tube values are allocated up front; the
    frames grow with neither the number nor the density of the states.
    """

    def __init__(self, ensemble: InitialEnsemble, grid: GridSpec, config,
                 dt_traj: float, n_states: int):
        self.grid, self.config, self.dt_traj = grid, config, dt_traj
        n = grid.n_points
        self._v, self._rho = np.empty((4, n)), np.empty((4, n))
        self._ok = np.empty((4, n), dtype=bool)
        self._times = np.empty(n_states)
        self._taken = 0
        n_tubes = len(ensemble.positions) - 1
        self._tubes = np.empty((n_tubes, n_states)) if n_tubes else None
        self._march = _March(ensemble.positions, n_states)

    def __call__(self, psi) -> None:
        """Take the next stored state."""
        v, ok = _velocity_frame(psi)
        self.push(psi.time, v, ok, np.abs(psi.values) ** 2)

    def push(self, time: float, v: np.ndarray, ok: np.ndarray,
             rho: np.ndarray) -> None:
        """Take the next frame: its time, velocity (0 where invalid),
        validity flags and density."""
        k, n = self._taken, len(self._times)
        self._times[k] = time  # IndexError past the n_states-th state
        frames = (self._v, self._ok, self._rho)
        if k >= 4:
            for a in frames:
                a[:3] = a[1:]
        for a, row in zip(frames, (v, ok, rho)):
            a[min(k, 3)] = row
        self._taken = k + 1
        if k == 0:
            self._tube(0)
        # the m frames held, states first .. k, are the stencil of every
        # interval i whose stencil ends at state k
        m = min(k + 1, 4)
        first = k + 1 - m
        i = self._march.k - 1
        while i < n - 1 and _stencil(i, n).stop == k + 1:
            sampler = VelocitySampler(self.grid, self.config,
                                      self._times[first:k + 1],
                                      self._v[:m], self._ok[:m])
            self._march.interval(sampler, i - first, self.dt_traj)
            self._tube(i + 1 - first)
            i += 1

    def finish(self) -> TrajectoryBundle:
        """The bundle after the last state; bundle.tubes holds the tube
        probabilities, NaN beside a failed row.  ValueError unless the
        stream took n_states states."""
        if self._taken != len(self._times):
            raise ValueError(f"the stream took {self._taken} states, "
                             f"not {len(self._times)}")
        xs, errors, fallback_rows, halvings = self._march.result()
        tubes = self._tubes
        if tubes is not None:
            for row, _ in errors:
                tubes[max(row - 1, 0):row + 1] = np.nan
        return TrajectoryBundle(self._times, xs, tuple(
            (row, type(exc).__name__, str(exc)) for row, exc in errors),
            fallback_rows, halvings, tubes)

    def _tube(self, row: int) -> None:
        """The tube values at the state that frame row `row` holds, the
        latest the march reached."""
        if self._tubes is not None:
            k = self._march.k - 1
            self._tubes[:, k] = _enclosed(self._march.xs[:, k],
                                          self._rho[row], self.grid)


def integrate_bundle(ensemble: InitialEnsemble, run: PropagationRun,
                     dt_traj: float) -> TrajectoryBundle:
    """One trajectory per initial position, each reported at every stored
    state: the run's stored snapshots replayed through a BundleStream.

    Per-trajectory failures are recorded in bundle.errors as
    (index, error type, message), sorted by index, and the failing
    trajectory is NaN at every state; the other trajectories run on.
    """
    stream = BundleStream(ensemble, run.snapshots[0].grid, run.config,
                          dt_traj, len(run.snapshots))
    for snap in run.snapshots:
        stream(snap)
    return stream.finish()


@dataclass(frozen=True)
class NonCrossingReport:
    ok: bool
    min_gap: float = None
    first_violation: tuple = None


def check_non_crossing(bundle: TrajectoryBundle) -> NonCrossingReport:
    """Verify x_i(t) < x_{i+1}(t) at every stored time.  A single row
    passes, with no min_gap.  Two or more rows are not ok, with a NaN
    min_gap, when no gap between neighbours is left to compare, as when
    every row failed."""
    xs = bundle.xs
    if xs.shape[0] < 2:
        return NonCrossingReport(ok=True)
    gaps = np.diff(xs, axis=0)
    if np.isnan(gaps).all():
        return NonCrossingReport(False, math.nan)
    min_gap = float(np.nanmin(gaps))
    if min_gap > 0:
        return NonCrossingReport(True, min_gap)
    # NaN gaps beside a failed row are no violation
    bad = np.argwhere(gaps <= 0)
    i, k = bad[np.argmin(bad[:, 1])]
    return NonCrossingReport(False, min_gap, (float(bundle.times[k]), int(i)))


def tube_probability(bundle: TrajectoryBundle,
                     run: PropagationRun) -> np.ndarray:
    """Probability enclosed between each pair of neighbouring trajectories
    at each stored state of the run, under that state's density, shape
    (n_trajectories - 1, n_states)."""
    if bundle.xs.shape[0] < 2:
        raise ValueError("need at least two trajectories")
    if len(bundle.times) != len(run.snapshots):
        raise ValueError("the bundle must hold one time per stored state")
    grid = run.snapshots[0].grid
    out = np.empty((bundle.xs.shape[0] - 1, len(bundle.times)))
    for k, snap in enumerate(run.snapshots):
        out[:, k] = _enclosed(bundle.xs[:, k], np.abs(snap.values) ** 2, grid)
    return out


def write_bundle(path, bundle: TrajectoryBundle, metadata: dict) -> None:
    """Text table: one row per stored state, columns t x_1 ... x_n, with a
    metadata header."""
    with open(path, "w") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key} = {value}\n")
        fh.write("# t " + " ".join(f"x_{i + 1}"
                                   for i in range(bundle.xs.shape[0])) + "\n")
        qf.write_rows(fh, bundle.times, bundle.xs.T)
