"""Grid primitives, Madelung decomposition, and local hydrodynamic fields.

A wavefunction snapshot lives on a uniform 1D grid.  The polar (Madelung)
split Psi = rho^{1/2} exp(iS) turns it into a density rho and a
continuous, unwrapped action field S, from which the probability current,
the hydrodynamic velocity v = J/rho and the quantum potential
Q = -(1/2) (sqrt(rho))'' / sqrt(rho) are derived.  Units are hbar = m = 1:
any other hbar and m give the same dynamics once x and t are rescaled.

Points where rho <= NODE_THRESHOLD * max(rho) are "nodes": v, S and Q are
singular or undefined there and get flagged invalid instead of evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AllBelowThreshold

NODE_THRESHOLD = 1e-12
# what require_finite raises with
NON_FINITE = "wavefunction contains non-finite values"
# text tables are formatted and written about CHUNK_VALUES values at a time
# (whole rows, at least one), so no writer holds a whole table as text
CHUNK_VALUES = 4096


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1D spatial grid with n_points samples on [x_min, x_max]."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if self.n_points < 8:
            raise ValueError("n_points must be >= 8")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """The grid points, built on first use; read-only, as every
        access returns the same array."""
        x = np.linspace(self.x_min, self.x_max, self.n_points)
        x.flags.writeable = False
        return x

    def wavenumbers(self) -> np.ndarray:
        """FFT wavenumbers matching the grid (treats the box as periodic)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


# the nodes j - 1 .. j + 2 at f = -1 .. 2: weight a is
# ((f - b1)(f - b2))(f - b3) / d with (b1, b2, b3) the other three nodes
# (column a) and d the product of a's differences from them
_CUBIC_NODES = np.array([[0.0, -1.0, -1.0, -1.0],
                         [1.0, 1.0, 0.0, 0.0],
                         [2.0, 2.0, 2.0, 1.0]])
_CUBIC_DENOMINATORS = np.array([-6.0, 2.0, -2.0, 6.0])


def cubic_weights(f: np.ndarray) -> np.ndarray:
    """4-point Lagrange weights of nodes j-1 .. j+2 at f = (x - x_j) / dx,
    as one (4, *f.shape) array."""
    f = np.asarray(f)
    shape = (4,) + (1,) * f.ndim
    b1, b2, b3 = (b.reshape(shape) for b in _CUBIC_NODES)
    w = f - b1
    w *= f - b2
    w *= f - b3
    w /= _CUBIC_DENOMINATORS.reshape(shape)
    return w


def lagrange_weights(z, nodes: np.ndarray) -> np.ndarray:
    """Lagrange weights w_m = prod_{l != m} (z - z_l) / (z_m - z_l) at z of
    the possibly uneven nodes (..., n), one row of n per point of z (...)."""
    n = nodes.shape[-1]
    off = ~np.eye(n, dtype=bool)
    z = np.asarray(z)
    return np.prod(np.where(off, z[..., None, None] - nodes[..., None, :], 1.0)
                   / np.where(off, nodes[..., :, None] - nodes[..., None, :],
                              1.0), axis=-1)


@dataclass(frozen=True)
class ComplexField:
    """Complex wavefunction samples on a grid at a fixed time."""

    grid: GridSpec
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_points,):
            raise ValueError("values length must equal grid.n_points")
        require_finite(values)
        object.__setattr__(self, "values", values)


def require_finite(values: np.ndarray) -> None:
    """ValueError unless every wavefunction value is finite.  A contiguous
    complex array is scanned as its float view: a complex value is finite
    when both its parts are, and the real scan takes half the time."""
    if values.dtype.kind == "c" and values.flags.c_contiguous:
        values = values.view(values.real.dtype)
    if not np.isfinite(values).all():
        raise ValueError(NON_FINITE)


@dataclass(frozen=True)
class PolarFields:
    """Madelung pair (rho, S) with S unwrapped along the grid; valid=False
    at nodes."""

    grid: GridSpec
    rho: np.ndarray
    S: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True)
class VelocityField:
    """Hydrodynamic velocity v = J/rho; NaN and valid=False at nodes."""

    grid: GridSpec
    v: np.ndarray
    valid: np.ndarray


def node_mask(rho: np.ndarray) -> np.ndarray:
    """True where rho is above the node threshold NODE_THRESHOLD * max(rho)."""
    rho = np.asarray(rho, dtype=float)
    peak = rho.max(initial=0.0)
    return (rho > NODE_THRESHOLD * peak if peak > 0
            else np.zeros_like(rho, dtype=bool))


def derivative(values: np.ndarray, dx: float, order: int = 1) -> np.ndarray:
    """4th-order central finite difference, one-sided 2nd order at the edges."""
    y = np.asarray(values)
    out = np.empty_like(y)
    if order == 1:
        out[2:-2] = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * dx)
        out[0] = (-3 * y[0] + 4 * y[1] - y[2]) / (2 * dx)
        out[1] = (y[2] - y[0]) / (2 * dx)
        out[-2] = (y[-1] - y[-3]) / (2 * dx)
        out[-1] = (3 * y[-1] - 4 * y[-2] + y[-3]) / (2 * dx)
    elif order == 2:
        out[2:-2] = (-y[4:] + 16 * y[3:-1] - 30 * y[2:-2]
                     + 16 * y[1:-3] - y[:-4]) / (12 * dx ** 2)
        out[1] = (y[2] - 2 * y[1] + y[0]) / dx ** 2
        out[-2] = (y[-1] - 2 * y[-2] + y[-3]) / dx ** 2
        out[0] = (2 * y[0] - 5 * y[1] + 4 * y[2] - y[3]) / dx ** 2
        out[-1] = (2 * y[-1] - 5 * y[-2] + 4 * y[-3] - y[-4]) / dx ** 2
    else:
        raise ValueError("order must be 1 or 2")
    return out


def norm(psi: ComplexField) -> float:
    """Trapezoid integral of |Psi|^2 over the grid."""
    return float(np.trapezoid(np.abs(psi.values) ** 2, dx=psi.grid.dx))


def _unwrap_phase(raw: np.ndarray, valid: np.ndarray, i0: int) -> np.ndarray:
    """Sequentially unwrap raw phases outward from index i0.

    Each step d between neighbours wraps m = rint(d / 2 pi) times, in real
    arithmetic; the counts of steps joining two valid points are summed
    in one cumsum C (C[i] counts the wraps before point i, exact in
    float), and point i is shifted by -2 pi (C[i] - C[i0]).  Across
    sub-threshold gaps the count is zero, so the offset is carried
    through unchanged.
    """
    wraps = np.rint(np.diff(raw) / (2.0 * np.pi))
    wraps[~(valid[:-1] & valid[1:])] = 0.0
    count = np.empty_like(raw)
    count[0] = 0.0
    np.cumsum(wraps, out=count[1:])
    count -= count[i0]
    count *= -2.0 * np.pi
    count += raw
    return count


def polar_decompose(psi: ComplexField) -> PolarFields:
    """Madelung split Psi = rho^{1/2} exp(iS) with unwrapped S.

    S is referenced so its value at the maximum-density point lies in
    (-pi, pi].
    """
    rho = np.abs(psi.values) ** 2
    valid = node_mask(rho)
    if not valid.any():
        raise AllBelowThreshold("density below node threshold everywhere")
    i0 = int(np.argmax(rho))
    phase = _unwrap_phase(np.angle(psi.values), valid, i0)
    return PolarFields(psi.grid, rho, phase, valid)


def probability_current(psi: ComplexField) -> np.ndarray:
    """J = Im(Psi* dPsi/dx), dPsi/dx by `derivative`."""
    dpsi = derivative(psi.values, psi.grid.dx)
    return np.imag(np.conj(psi.values) * dpsi)


def velocity_field(psi: ComplexField) -> VelocityField:
    """v = J/rho above the node threshold; NaN elsewhere."""
    rho = np.abs(psi.values) ** 2
    valid = node_mask(rho)
    J = probability_current(psi)
    v = np.full(psi.grid.n_points, np.nan)
    v[valid] = J[valid] / rho[valid]
    return VelocityField(psi.grid, v, valid)


def quantum_potential(psi: ComplexField) -> np.ndarray:
    """Q = -(1/2) (sqrt(rho))'' / sqrt(rho); NaN at nodes."""
    rho = np.abs(psi.values) ** 2
    valid = node_mask(rho)
    amp = np.sqrt(rho)
    d2 = derivative(amp, psi.grid.dx, order=2)
    Q = np.full(psi.grid.n_points, np.nan)
    Q[valid] = -0.5 * d2[valid] / amp[valid]
    return Q


def kinetic_energy(psi: ComplexField) -> float:
    """<T> = <-(1/2) Psi''> via the spectral Laplacian."""
    k = psi.grid.wavenumbers()
    lap = np.fft.ifft(-(k ** 2) * np.fft.fft(psi.values))
    integrand = np.conj(psi.values) * -0.5 * lap
    return float(np.real(np.trapezoid(integrand, dx=psi.grid.dx)))


def expectation_position(psi: ComplexField) -> float:
    rho = np.abs(psi.values) ** 2
    n = np.trapezoid(rho, dx=psi.grid.dx)
    return float(np.trapezoid(psi.grid.x * rho, dx=psi.grid.dx) / n)


def position_spread(psi: ComplexField) -> float:
    """Standard deviation of position, sigma(t)."""
    rho = np.abs(psi.values) ** 2
    n = np.trapezoid(rho, dx=psi.grid.dx)
    x = psi.grid.x
    mean = np.trapezoid(x * rho, dx=psi.grid.dx) / n
    var = np.trapezoid((x - mean) ** 2 * rho, dx=psi.grid.dx) / n
    return float(np.sqrt(var))


def gaussian_packet(grid: GridSpec, sigma0: float, x0: float = 0.0,
                    p0: float = 0.0, time: float = 0.0) -> ComplexField:
    """Normalized Gaussian (2 pi sigma0^2)^{-1/4} e^{-(x-x0)^2/4 sigma0^2 + i p0 (x-x0)}."""
    x = grid.x
    values = (2.0 * np.pi * sigma0 ** 2) ** -0.25 * np.exp(
        -((x - x0) ** 2) / (4.0 * sigma0 ** 2) + 1j * p0 * (x - x0))
    return ComplexField(grid, values, time)


def format_rows(*cols) -> list:
    """Text table rows of the given columns (1D arrays, or 2D arrays of
    several columns), each value as the repr of its float, two spaces apart.
    write_rows must match it byte for byte."""
    return _repr_rows(np.column_stack(cols))


def _repr_rows(table: np.ndarray) -> list:
    """format_rows of one 2D table."""
    return ["  ".join(map(repr, row)) for row in table.tolist()]


# a chunk of fewer values is formatted by repr: floattext.format_table
# costs about 0.48 ms per call plus 0.28 us per value against repr's
# 1.5 us per value, so it is faster from about 400 values on (3- and
# 5-column tables, 2-core x86-64 VM, Python 3.11, numpy 2.4)
REPR_BELOW = 512


def write_rows(fh, *cols) -> None:
    """Write the format_rows table of the float64 columns (1D arrays, or 2D
    arrays of several columns) to the open text file fh, each row ending in
    a newline, about CHUNK_VALUES values (at least one row) at a time.  A
    chunk is formatted by floattext.format_table, the same bytes as
    format_rows, or by repr when it holds fewer than REPR_BELOW values."""
    step = max(1, CHUNK_VALUES // sum([c.shape[1] if c.ndim == 2 else 1
                                       for c in cols]))
    for lo in range(0, len(cols[0]), step):
        table = np.column_stack([c[lo:lo + step] for c in cols])
        if table.size < REPR_BELOW:
            fh.write("\n".join(_repr_rows(table)) + "\n")
        else:
            # imported on first use: where bytecode is not cached,
            # compiling it adds about 2.5 ms to every process's start-up
            from .floattext import format_table
            fh.write(format_table(table))


def write_snapshot(path, psi: ComplexField, model: str = "standard") -> None:
    """Columnar text snapshot: header key = value lines, then one row per
    grid point `x Re(psi) Im(psi) rho S v Q` (invalid entries as nan)."""
    try:
        polar = polar_decompose(psi)
        S = np.where(polar.valid, polar.S, np.nan)
    except AllBelowThreshold:
        S = np.full(psi.grid.n_points, np.nan)
    vel = velocity_field(psi)
    Q = quantum_potential(psi)
    g = psi.grid
    with open(path, "w") as fh:
        fh.write(f"x_min = {g.x_min!r}\n"
                 f"x_max = {g.x_max!r}\n"
                 f"n_points = {g.n_points}\n"
                 f"time = {psi.time!r}\n"
                 f"model = {model}\n"
                 "# x re_psi im_psi rho S v Q\n")
        write_rows(fh, g.x, psi.values.real, psi.values.imag,
                   np.abs(psi.values) ** 2, S, vel.v, Q)
