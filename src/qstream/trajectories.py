"""Bohmian trajectory ensembles.

Initial positions are drawn deterministically from the quantiles of the
initial density, then advanced with classic RK4 through the velocity
field v = J/rho reconstructed from stored propagation snapshots (cubic in
space, linear in time).  For Caldirola-Kanai runs the guidance law picks
up the rate factor exp(-gamma t); Kostin trajectories use the plain
velocity of the evolving nonlinear state.

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
from .propagators import PropagationRun, rate_factor


@dataclass(frozen=True)
class InitialEnsemble:
    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 1 or not np.all(np.diff(pos) > 0):
            raise ValueError("positions must be strictly increasing")
        object.__setattr__(self, "positions", pos)


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class TrajectoryBundle:
    times: np.ndarray
    xs: np.ndarray  # shape (n_trajectories, n_times)
    config: object = None
    errors: tuple = ()
    fallback_rows: int = 0  # row-steps that took the scalar halving fallback
    halvings: int = 0       # step halvings made by those that succeeded


def _cdf(rho: np.ndarray, grid: GridSpec) -> np.ndarray:
    inc = 0.5 * (rho[1:] + rho[:-1]) * grid.dx
    return np.concatenate(([0.0], np.cumsum(inc)))


def sample_initial_positions(rho: np.ndarray, grid: GridSpec, n: int,
                             scheme: str = "quantile") -> InitialEnsemble:
    """Deterministic ensemble from a density: quantile midpoints
    (i - 1/2)/n, or equal spacing over the above-threshold support."""
    rho = np.asarray(rho, dtype=float)
    if n < 2:
        raise ValueError("n must be >= 2")
    cdf = _cdf(rho, grid)
    total = cdf[-1]
    if total <= 0:
        raise ZeroDensity("density integrates to zero")
    if scheme == "quantile":
        targets = (np.arange(n) + 0.5) / n * total
        positions = np.interp(targets, cdf, grid.x)
        return InitialEnsemble(positions)
    if scheme == "equal_spacing":
        valid = qf.node_mask(rho)
        idx = np.flatnonzero(valid)
        lo, hi = grid.x[idx[0]], grid.x[idx[-1]]
        return InitialEnsemble(np.linspace(lo, hi, n))
    raise ValueError(f"unknown sampling scheme {scheme!r}")


class VelocitySampler:
    """v(x, t) from a snapshot sequence: cubic in x on valid points
    (shrinking to linear beside invalid nodes), linear in t."""

    def __init__(self, run: PropagationRun, method: str = "fd4"):
        self.grid = run.snapshots[0].grid
        self.config = run.config
        self.times = np.array([s.time for s in run.snapshots])
        vs, oks = [], []
        for snap in run.snapshots:
            vf = qf.velocity_field(snap, run.config.constants, method=method)
            vs.append(np.where(vf.valid, vf.v, 0.0))
            oks.append(vf.valid)
        self.v = np.asarray(vs)
        self.ok = np.asarray(oks)

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


def _march(sampler: VelocitySampler, x0: np.ndarray, times: np.ndarray):
    """One RK4 call per mesh step over all live rows; rows with an invalid
    velocity take the scalar halving fallback.  A row that meets a node or
    leaves the grid is dropped and NaN at every mesh time.  Returns the
    positions, the sorted [(row, exception), ...] of dropped rows, the
    number of row-steps sent to the fallback and the halvings it made."""
    g = sampler.grid
    xs = np.full((len(x0), len(times)), np.nan)
    xs[:, 0] = x0
    x = np.asarray(x0, dtype=float)
    live = np.arange(len(x0))
    errors = []
    fallback_rows = halvings = 0
    for k in range(len(times) - 1):
        t, dt = times[k], times[k + 1] - times[k]
        x_new, ok = _rk4_step(sampler, x, t, dt)
        failed = {}
        for r in np.flatnonzero(~ok):
            fallback_rows += 1
            try:
                x_new[r], n = _step_with_halving(sampler, x[r], t, dt)
                halvings += n
            except NodeEncounter as exc:
                failed[r] = exc
        for r in np.flatnonzero((x_new < g.x_min) | (x_new > g.x_max)):
            failed.setdefault(r, LeftDomain(
                f"trajectory {live[r]} left the grid at t = {times[k + 1]:g}"))
        if failed:
            errors += [(int(live[r]), exc) for r, exc in failed.items()]
            keep = np.ones(len(live), dtype=bool)
            keep[list(failed)] = False
            live, x_new = live[keep], x_new[keep]
        x = x_new
        xs[live, k + 1] = x
    errors.sort(key=lambda e: e[0])
    xs[[row for row, _ in errors]] = np.nan
    return xs, errors, fallback_rows, halvings


def time_mesh(t_span, dt_traj: float) -> np.ndarray:
    t_start, t_end = t_span
    n = max(1, int(round((t_end - t_start) / dt_traj)))
    return t_start + (t_end - t_start) * np.arange(n + 1) / n


def integrate_trajectory(x0: float, sampler: VelocitySampler, t_span,
                         dt_traj: float) -> Trajectory:
    """RK4 on dx/dt = rate(t) v(x, t) for a single starting point."""
    g = sampler.grid
    if not g.x_min <= x0 <= g.x_max:
        raise LeftDomain(f"x0 = {x0:g} outside the grid")
    times = time_mesh(t_span, dt_traj)
    xs, errors, _, _ = _march(sampler, np.array([float(x0)]), times)
    if errors:
        raise errors[0][1]
    return Trajectory(times, xs[0])


def integrate_bundle(ensemble: InitialEnsemble, run: PropagationRun,
                     dt_traj: float, t_span=None,
                     sampler: VelocitySampler = None) -> TrajectoryBundle:
    """One trajectory per initial position, all on a shared time mesh.

    Per-trajectory failures are recorded in bundle.errors as
    (index, error type, message), sorted by index, and the failing
    trajectory is NaN at every mesh time; the other trajectories run on.
    """
    if sampler is None:
        sampler = VelocitySampler(run)
    if t_span is None:
        t_span = (sampler.times[0], sampler.times[-1])
    gap = np.max(np.diff(sampler.times)) if len(sampler.times) > 1 else 0.0
    if gap > 10.0 * dt_traj * (1 + 1e-9):
        raise ValueError("snapshot spacing exceeds 10 * dt_traj; store more "
                         "snapshots or increase dt_traj")
    times = time_mesh(t_span, dt_traj)
    xs, errors, fallback_rows, halvings = _march(sampler, ensemble.positions,
                                                 times)
    return TrajectoryBundle(times, xs, run.config, tuple(
        (row, type(exc).__name__, str(exc)) for row, exc in errors),
        fallback_rows, halvings)


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
    x = grid.x
    snap_times = np.array([s.time for s in run.snapshots])
    rhos = np.array([np.abs(s.values) ** 2 for s in run.snapshots])
    out = np.empty((bundle.xs.shape[0] - 1, len(bundle.times)))
    for k, t in enumerate(bundle.times):
        a = min(max(np.searchsorted(snap_times, t) - 1, 0), len(snap_times) - 2)
        w = min(max((t - snap_times[a]) / (snap_times[a + 1] - snap_times[a]),
                    0.0), 1.0)
        rho = (1 - w) * rhos[a] + w * rhos[a + 1]
        out[:, k] = np.diff(np.interp(bundle.xs[:, k], x, _cdf(rho, grid)))
    return out


def write_bundle(path, bundle: TrajectoryBundle, metadata: dict = None) -> None:
    """Text table: one row per mesh time, columns t x_1 ... x_n, with a
    metadata header."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append("# t " + " ".join(f"x_{i + 1}" for i in range(bundle.xs.shape[0])))
    lines += qf.format_rows(bundle.times, bundle.xs.T)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
