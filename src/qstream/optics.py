"""Scalar two-slit optics: Fresnel propagation, EM field assembly, energy
density / Poynting vector, and electromagnetic energy streamlines.

The aperture is a sum of (optionally window-truncated) Gaussian slits.
The field behind the plate is the paraxial Fresnel integral

    psi(x, z) = sqrt(k / (2 pi i z)) * Integral psi(x', 0)
                exp(i k (x - x')^2 / (2 z)) dx'

evaluated as a midpoint quadrature over the aperture support.  On a
uniform transverse grid the kernel factors into chirps, so each plane is
one chirp-z transform (Bluestein convolution) of the source samples; at
paired (x, z) points the quadrature is summed directly.  The x and z
derivatives are the same sums with analytically differentiated kernels,
so no finite differencing enters the Poynting vector.

Fields carry the propagation factor exp(ikz) implicitly: psi here is the
envelope, and the carrier is reinstated analytically where it matters
(the z derivative).  E-polarization only: E = psi e_y,
H = (i/omega mu0)(dpsi/dz e_x - dpsi/dx e_z).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.constants import c as C_LIGHT, epsilon_0 as EPS0, mu_0 as MU0
from scipy.fft import fft, ifft, next_fast_len
from scipy.interpolate import RegularGridInterpolator

from .errors import (EmptyScene, LeftDomain, ResolutionViolation,
                     StagnationPoint, UnsupportedPolarization)
from .fields import GridSpec


@dataclass(frozen=True)
class SlitSpec:
    """Gaussian slit of width sigma at `center`, optionally truncated by a
    hard window of halfwidth w (transmission 1 on [-w, w], 0 outside)."""

    sigma: float
    center: float = 0.0
    window_halfwidth: float = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.window_halfwidth is not None and self.window_halfwidth <= 0:
            raise ValueError("window_halfwidth must be > 0")

    def amplitude(self, x: np.ndarray) -> np.ndarray:
        u = np.asarray(x) - self.center
        a = (2.0 * np.pi * self.sigma ** 2) ** -0.25 \
            * np.exp(-u ** 2 / (4.0 * self.sigma ** 2))
        if self.window_halfwidth is not None:
            a = np.where(np.abs(u) <= self.window_halfwidth, a, 0.0)
        return a

    def support(self, n_sigmas: float = 6.0):
        half = n_sigmas * self.sigma
        if self.window_halfwidth is not None:
            half = min(half, self.window_halfwidth)
        return self.center - half, self.center + half


@dataclass(frozen=True)
class OpticalScene:
    slits: tuple
    wavelength: float
    transverse_grid: GridSpec
    z_planes: tuple
    polarization: str = "E"

    def __post_init__(self):
        object.__setattr__(self, "slits", tuple(self.slits))
        object.__setattr__(self, "z_planes", tuple(float(z) for z in self.z_planes))
        if self.wavelength <= 0:
            raise ValueError("wavelength must be > 0")
        z = self.z_planes
        if any(zi <= 0 for zi in z) or any(b <= a for a, b in zip(z, z[1:])):
            raise ValueError("z_planes must be strictly increasing and > 0")

    @property
    def k(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def omega(self) -> float:
        return C_LIGHT * self.k

    def aperture_amplitude(self, x: np.ndarray) -> np.ndarray:
        if not self.slits:
            raise EmptyScene("scene has no slits")
        return sum(s.amplitude(x) for s in self.slits)


def initial_two_slit_field(scene: OpticalScene) -> np.ndarray:
    """Aperture field on the transverse grid, renormalized to unit norm
    after any window truncation."""
    x = scene.transverse_grid.x
    psi = scene.aperture_amplitude(x).astype(complex)
    n = np.trapezoid(np.abs(psi) ** 2, dx=scene.transverse_grid.dx)
    if n <= 0:
        raise EmptyScene("aperture transmits no amplitude")
    return psi / np.sqrt(n)


class FresnelEvaluator:
    """Midpoint quadrature of the Fresnel kernel over the aperture support.

    `plane` evaluates a whole uniform grid at one z by a chirp-z transform;
    `evaluate` sums the quadrature directly at paired (x, z) points and is
    the oracle that `plane` is tested against.

    By default the aperture is sampled analytically from the scene's slits
    on a fine source grid (default spacing min(sigma)/150); an explicit
    initial field sampled on the transverse grid may be supplied instead,
    in which case it is cubic-interpolated onto the source grid.
    """

    def __init__(self, scene: OpticalScene, source_dx: float = None,
                 initial: np.ndarray = None):
        if not scene.slits:
            raise EmptyScene("scene has no slits")
        if scene.polarization != "E":
            raise UnsupportedPolarization(scene.polarization)
        self.scene = scene
        if source_dx is None:
            source_dx = min(s.sigma for s in scene.slits) / 150.0
        if not source_dx > 0:
            raise ValueError("source_dx must be > 0")
        self.source_dx = source_dx
        los, his = zip(*(s.support() for s in scene.slits))
        lo, hi = min(los), max(his)
        n_src = int(np.ceil((hi - lo) / source_dx))
        dxs = (hi - lo) / n_src
        self.x_src = lo + (np.arange(n_src) + 0.5) * dxs
        if initial is None:
            amp = scene.aperture_amplitude(self.x_src).astype(complex)
        else:
            from scipy.interpolate import CubicSpline
            amp = CubicSpline(scene.transverse_grid.x,
                              np.asarray(initial, dtype=complex))(self.x_src)
        norm = np.sqrt(np.sum(np.abs(amp) ** 2) * dxs)
        self.weights = amp * dxs / norm
        self.aperture_span = hi - lo
        self._src_dx = dxs
        self._centre = 0.5 * (lo + hi)
        self._check_resolution()

    def _check_resolution(self):
        g = self.scene.transverse_grid
        z_min = min(self.scene.z_planes)
        bound = self.scene.wavelength * z_min / (4.0 * self.aperture_span)
        if g.dx >= bound:
            raise ResolutionViolation(
                f"grid dx = {g.dx:g} must be < lambda z_min / (4 span) = {bound:g}")

    def evaluate(self, x: np.ndarray, z) -> tuple:
        """Envelope psi and its (envelope) gradients at paired (x, z) points;
        z may be a scalar plane or an array matching x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = np.broadcast_to(np.asarray(z, dtype=float), x.shape)
        k = self.scene.k
        delta = x[:, None] - self.x_src[None, :]
        zc = z[:, None]
        kernel = np.sqrt(k / (2.0 * np.pi * zc)) * np.exp(
            1j * (k * delta ** 2 / (2.0 * zc) - np.pi / 4.0))
        kw = kernel * self.weights[None, :]
        psi = kw.sum(axis=1)
        psi_x = (kw * (1j * k * delta / zc)).sum(axis=1)
        psi_z = (kw * (-0.5 / zc - 1j * k * delta ** 2 / (2.0 * zc ** 2))).sum(axis=1)
        return psi, psi_x, psi_z

    def plane(self, grid: GridSpec, z: float) -> tuple:
        """`evaluate(grid.x, z)` for one plane z, by a chirp-z transform.

        With y = x - c and u = x_src - c centred on the aperture midpoint c,
        (y - u)^2 = y^2 - 2 y u + u^2, so every sum is a phase in y times
        S_p(y) = sum_j b_j u_j^p exp(-i k y u_j / z), b = w exp(i k u^2 / 2z).
        On the uniform grids the cross term y_m u_j contains m j dx dxs,
        which Bluestein's m j = (m^2 + j^2 - (m - j)^2) / 2 turns into one
        convolution, done for p = 0, 1, 2 by a single batched FFT.  The gradients follow from
        sum w K (y - u) = y S0 - S1 and sum w K (y - u)^2 = y^2 S0 - 2 y S1 + S2.
        """
        k, z = self.scene.k, float(z)
        n_x, n_src = grid.n_points, self.x_src.size
        m, j = np.arange(n_x), np.arange(n_src)
        y = grid.x_min - self._centre + m * grid.dx
        u = self.x_src - self._centre
        alpha = k * grid.dx * self._src_dx / z
        n_fft = next_fast_len(n_x + n_src - 1)
        chirp = np.zeros(n_fft, dtype=complex)
        chirp[:n_x] = np.exp(0.5j * alpha * m ** 2)
        chirp[n_fft - n_src + 1:] = np.exp(0.5j * alpha * j[:0:-1] ** 2)
        b = self.weights * np.exp(1j * (
            k * (u ** 2 - 2.0 * y[0] * j * self._src_dx) / (2.0 * z)
            - 0.5 * alpha * j ** 2))
        sums = ifft(fft(np.stack([b, b * u, b * u ** 2]), n_fft)
                    * fft(chirp))[:, :n_x]
        s0, s1, s2 = sums * (np.sqrt(k / (2.0 * np.pi * z)) * np.exp(1j * (
            k * y * (y - 2.0 * u[0]) / (2.0 * z) - 0.5 * alpha * m ** 2
            - np.pi / 4.0)))
        psi_x = (1j * k / z) * (y * s0 - s1)
        psi_z = -0.5 / z * s0 - (1j * k / (2.0 * z ** 2)) * (
            y ** 2 * s0 - 2.0 * y * s1 + s2)
        return s0, psi_x, psi_z


@dataclass(frozen=True)
class EMFields:
    """Spatial parts of the E-polarized field components (envelope gauge)."""

    E_y: np.ndarray
    H_x: np.ndarray
    H_z: np.ndarray


def assemble_em_fields(psi: np.ndarray, psi_x: np.ndarray, psi_z: np.ndarray,
                       scene: OpticalScene) -> EMFields:
    """E = psi e_y, H = (i/omega mu0)(dpsi/dz e_x - dpsi/dx e_z), with the
    carrier exp(ikz) reinstated in the z derivative."""
    if scene.polarization != "E":
        raise UnsupportedPolarization(scene.polarization)
    pref = 1j / (scene.omega * MU0)
    return EMFields(E_y=np.asarray(psi),
                    H_x=pref * (psi_z + 1j * scene.k * psi),
                    H_z=-pref * psi_x)


def energy_density(em: EMFields) -> np.ndarray:
    """U = (1/4)(eps0 E.E* + mu0 H.H*)."""
    return 0.25 * (EPS0 * np.abs(em.E_y) ** 2
                   + MU0 * (np.abs(em.H_x) ** 2 + np.abs(em.H_z) ** 2))


def poynting(em: EMFields) -> tuple:
    """Time-averaged S = (1/2) Re(E x H*); returns (Sx, Sz)."""
    Sx = 0.5 * np.real(em.E_y * np.conj(em.H_z))
    Sz = -0.5 * np.real(em.E_y * np.conj(em.H_x))
    return Sx, Sz


def transverse_momentum(Sx: np.ndarray, Sz: np.ndarray, U: np.ndarray,
                        eps: float = 1e-12) -> np.ndarray:
    """k_x/k = S_x/|S|, NaN where the energy density is negligible."""
    mag = np.hypot(Sx, Sz)
    out = np.full_like(mag, np.nan)
    ok = U > eps * U.max()
    out[ok] = Sx[ok] / mag[ok]
    return out


@dataclass
class OpticalField2D:
    """Envelope field and gradients on the z_planes x transverse lattice."""

    scene: OpticalScene
    psi: np.ndarray    # (n_z, n_x)
    psi_x: np.ndarray
    psi_z: np.ndarray


def fresnel_propagate(scene: OpticalScene, initial: np.ndarray = None,
                      source_dx: float = None) -> OpticalField2D:
    """Fresnel quadrature of the aperture field onto every scene plane."""
    ev = FresnelEvaluator(scene, source_dx=source_dx, initial=initial)
    rows = [ev.plane(scene.transverse_grid, z) for z in scene.z_planes]
    psi, psi_x, psi_z = (np.array([r[i] for r in rows]) for i in range(3))
    return OpticalField2D(scene, psi, psi_x, psi_z)


class PoyntingField:
    """U, Sx, Sz on the lattice, with bicubic sampling for path tracing."""

    def __init__(self, field: OpticalField2D):
        self.scene = field.scene
        em = assemble_em_fields(field.psi, field.psi_x, field.psi_z, field.scene)
        self.U = energy_density(em)
        self.Sx, self.Sz = poynting(em)
        z = np.asarray(field.scene.z_planes)
        x = field.scene.transverse_grid.x
        method = "cubic" if len(z) >= 4 else "linear"
        opts = dict(bounds_error=False, fill_value=None, method=method)
        # interpolate on unit-scaled data: scipy's cubic solver loses
        # values whose absolute magnitude is far below 1
        self._scales = tuple(max(float(np.max(np.abs(a))), 1e-300)
                             for a in (self.Sx, self.Sz, self.U))
        self._interp = tuple(
            RegularGridInterpolator((z, x), a / s, **opts)
            for a, s in zip((self.Sx, self.Sz, self.U), self._scales))
        self.x_bounds = (x[0], x[-1])
        self.z_bounds = (z[0], z[-1])

    def sample(self, x, z):
        pts = np.stack(np.broadcast_arrays(np.asarray(z, float),
                                           np.asarray(x, float)), axis=-1)
        return tuple(f(pts) * s for f, s in zip(self._interp, self._scales))


class ExactPoyntingSampler:
    """Poynting/energy sampler backed by the Fresnel quadrature itself
    (no lattice interpolation error)."""

    def __init__(self, scene: OpticalScene, source_dx: float = None,
                 x_bounds: tuple = None, z_bounds: tuple = None):
        self.evaluator = FresnelEvaluator(scene, source_dx=source_dx)
        self.scene = scene
        g = scene.transverse_grid
        self.x_bounds = x_bounds or (g.x_min, g.x_max)
        self.z_bounds = z_bounds or (min(scene.z_planes), max(scene.z_planes))

    def sample(self, x, z):
        psi, psi_x, psi_z = self.evaluator.evaluate(x, z)
        em = assemble_em_fields(psi, psi_x, psi_z, self.scene)
        Sx, Sz = poynting(em)
        return Sx, Sz, energy_density(em)


@dataclass(frozen=True)
class PhotonPath:
    s: np.ndarray
    x: np.ndarray
    z: np.ndarray
    stagnated: bool = False

    @property
    def proper_time(self):
        return self.s / C_LIGHT


def _flow(sampler, x, z, stag_eps):
    """Unit-speed flow direction S/(cU); entries where the flow is
    undefined (U <= 0 or speed below threshold) are zeroed and flagged."""
    Sx, Sz, U = sampler.sample(x, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = Sx / (C_LIGHT * U)
        vz = Sz / (C_LIGHT * U)
        speed = np.hypot(vx, vz)
    bad = ~np.isfinite(speed) | (U <= 0) | (speed < stag_eps)
    vx = np.where(bad, 0.0, vx)
    vz = np.where(bad, 0.0, vz)
    return vx, vz, bad


def photon_path_bundle(x0s, z0: float, sampler, ds: float = None,
                       max_steps: int = 200000, stag_eps: float = 1e-9):
    """RK4 integration of dr/ds = S/(cU) for an ensemble of start points.

    All paths share the arc-length mesh; each path is truncated at the
    first sample outside the sampler bounds.  Paths that reach a point
    where the flow is undefined are frozen there and marked stagnated.
    Returns a list of PhotonPath.
    """
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    xlo, xhi = sampler.x_bounds
    zlo, zhi = sampler.z_bounds
    if np.any((x0s < xlo) | (x0s > xhi)) or not zlo <= z0 <= zhi:
        raise LeftDomain("path start outside the field domain")
    if ds is None:
        ds = 0.5 * max(sampler.scene.transverse_grid.dx,
                       (zhi - zlo) / max(len(sampler.scene.z_planes) - 1, 1))
    if not ds > 0:
        raise ValueError("ds must be > 0")
    x = x0s.copy()
    z = np.full_like(x, float(z0))
    alive = np.ones(len(x), dtype=bool)
    stagnated = np.zeros(len(x), dtype=bool)
    n_alive = np.full(len(x), 1)
    xs, zs = [x.copy()], [z.copy()]
    for step in range(max_steps):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        xa, za = x[idx], z[idx]
        k1x, k1z, b1 = _flow(sampler, xa, za, stag_eps)
        k2x, k2z, b2 = _flow(sampler, xa + 0.5 * ds * k1x,
                             za + 0.5 * ds * k1z, stag_eps)
        k3x, k3z, b3 = _flow(sampler, xa + 0.5 * ds * k2x,
                             za + 0.5 * ds * k2z, stag_eps)
        k4x, k4z, b4 = _flow(sampler, xa + ds * k3x, za + ds * k3z, stag_eps)
        bad = b1 | b2 | b3 | b4
        # freeze stagnated paths at their current sample
        stagnated[idx[bad]] = True
        alive[idx[bad]] = False
        ok = idx[~bad]
        move = ~bad
        x[ok] = xa[move] + ds / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)[move]
        z[ok] = za[move] + ds / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)[move]
        # keep the first sample past the boundary, then stop that path
        n_alive[ok] += 1
        out = (x[ok] < xlo) | (x[ok] > xhi) | (z[ok] < zlo) | (z[ok] > zhi)
        alive[ok[out]] = False
        xs.append(x.copy())
        zs.append(z.copy())
    xs = np.asarray(xs)
    zs = np.asarray(zs)
    paths = []
    for i in range(len(x0s)):
        n = n_alive[i]
        paths.append(PhotonPath(ds * np.arange(n), xs[:n, i], zs[:n, i],
                                bool(stagnated[i])))
    return paths


def photon_path(x0: float, z0: float, sampler, ds: float = None,
                **kwargs) -> PhotonPath:
    """Single energy streamline from (x0, z0)."""
    path = photon_path_bundle([x0], z0, sampler, ds=ds, **kwargs)[0]
    if path.stagnated:
        raise StagnationPoint(
            f"flow undefined at (x, z) = ({path.x[-1]:g}, {path.z[-1]:g})")
    return path


def write_plane_profile(path, scene: OpticalScene, z: float, psi, U, Sx, Sz,
                        kx_over_k) -> None:
    """Per-plane table: x |psi|^2 U Sx Sz kx/k."""
    x = scene.transverse_grid.x
    lines = [f"# z = {z!r}", "# x intensity U Sx Sz kx_over_k"]
    inten = np.abs(psi) ** 2
    for row in zip(x, inten, U, Sx, Sz, kx_over_k):
        lines.append("  ".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_paths(path, paths, metadata: dict = None) -> None:
    """Path tables `s x z`, one block per path."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} = {value}")
    for i, p in enumerate(paths):
        lines.append(f"# path = {i}")
        for row in zip(p.s, p.x, p.z):
            lines.append("  ".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def gaussian_beam_intensity(slit: SlitSpec, x: np.ndarray, z: float,
                            k: float) -> np.ndarray:
    """Closed-form |psi|^2 of a single untruncated Gaussian slit after
    Fresnel propagation: width sigma(z) = sigma0 sqrt(1 + (z/zR)^2) with
    zR = 2 k sigma0^2 (unit-norm input)."""
    zR = 2.0 * k * slit.sigma ** 2
    sig = slit.sigma * np.sqrt(1.0 + (z / zR) ** 2)
    u = np.asarray(x) - slit.center
    return (2.0 * np.pi * sig ** 2) ** -0.5 * np.exp(-u ** 2 / (2.0 * sig ** 2))
