"""Scalar two-slit optics: Fresnel propagation, the Poynting vector and
energy density of the field (`poynting_field`), and electromagnetic energy
streamlines.

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
(the z derivative).  The field is E-polarized: E = psi e_y,
H = (i/omega mu0)(dpsi/dz e_x - dpsi/dx e_z).

The scene is built one plane at a time.  `fresnel_propagate` hands each
plane's psi and gradients to its consumers and keeps none of them, and
`PoyntingField.add_plane` turns them, by `poynting_field`, into that
plane's row of the (Sx, Sz, U) lattice, 24 B per lattice point, the only
whole-scene array a run holds.  A plane's transform and field arrays live
only while it is built, so memory grows with the lattice and not with
three complex fields over the whole scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LeftDomain, ResolutionViolation
from .fields import GridSpec, cubic_weights, lagrange_weights, write_rows

# CODATA 2022, SI units: speed of light, vacuum permittivity, permeability
C_LIGHT, EPS0, MU0 = 299792458.0, 8.8541878188e-12, 1.25663706127e-06
# a photon path stops where its flow speed |S|/(cU) falls below
# STAGNATION_SPEED, and after MAX_PATH_STEPS steps at most
STAGNATION_SPEED, MAX_PATH_STEPS = 1e-9, 200000


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

    def support(self):
        half = 6.0 * self.sigma
        if self.window_halfwidth is not None:
            half = min(half, self.window_halfwidth)
        return self.center - half, self.center + half


@dataclass(frozen=True)
class OpticalScene:
    slits: tuple
    wavelength: float
    transverse_grid: GridSpec
    z_planes: tuple

    def __post_init__(self):
        object.__setattr__(self, "slits", tuple(self.slits))
        object.__setattr__(self, "z_planes", tuple(float(z) for z in self.z_planes))
        if not self.slits:
            raise ValueError("scene has no slits")
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
        return sum(s.amplitude(x) for s in self.slits)


def source_points(scene: OpticalScene, source_dx: float = None) -> tuple:
    """(lo, hi, n_src): the aperture support [lo, hi] and the number of
    source points at spacing source_dx (default min(sigma)/150)."""
    if source_dx is None:
        source_dx = min(s.sigma for s in scene.slits) / 150.0
    if not source_dx > 0:
        raise ValueError("source_dx must be > 0")
    los, his = zip(*(s.support() for s in scene.slits))
    lo, hi = min(los), max(his)
    return lo, hi, int(np.ceil((hi - lo) / source_dx))


def check_resolution(scene: OpticalScene, span: float) -> None:
    """ResolutionViolation unless the transverse grid step resolves the
    finest fringe at the nearest plane: dx < lambda z_min / (4 span), span
    being the width of the aperture support."""
    dx = scene.transverse_grid.dx
    bound = scene.wavelength * min(scene.z_planes) / (4.0 * span)
    if dx >= bound:
        raise ResolutionViolation(
            f"grid dx = {dx:g} must be < lambda z_min / (4 span) = {bound:g}")


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n, pocketfft's fast length for
    a complex transform (the length SciPy's next_fast_len returns)."""
    bound = 1 << (n - 1).bit_length()
    odd = [1]
    for p in (3, 5, 7, 11):
        for f in odd[:]:
            while (f := f * p) < bound:
                odd.append(f)
    return min(f << ((n - 1) // f).bit_length() for f in odd)


class FresnelEvaluator:
    """Midpoint quadrature of the Fresnel kernel over the aperture support.

    `plane` evaluates a whole uniform grid at one z by a chirp-z transform;
    `evaluate` sums the quadrature directly at paired (x, z) points and is
    the oracle that `plane` is tested against.

    The aperture is sampled analytically from the scene's slits on a fine
    source grid (default spacing min(sigma)/150).
    """

    def __init__(self, scene: OpticalScene, source_dx: float = None):
        self.scene = scene
        lo, hi, n_src = source_points(scene, source_dx)
        dxs = (hi - lo) / n_src
        self.x_src = lo + (np.arange(n_src) + 0.5) * dxs
        amp = scene.aperture_amplitude(self.x_src).astype(complex)
        norm = np.sqrt(np.sum(np.abs(amp) ** 2) * dxs)
        self.weights = amp * dxs / norm
        self._src_dx = dxs
        self._centre = 0.5 * (lo + hi)
        check_resolution(scene, hi - lo)

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
        n_fft = _fast_len(n_x + n_src - 1)
        chirp = np.zeros(n_fft, dtype=complex)
        chirp[:n_x] = np.exp(0.5j * alpha * m ** 2)
        chirp[n_fft - n_src + 1:] = np.exp(0.5j * alpha * j[:0:-1] ** 2)
        b = self.weights * np.exp(1j * (
            k * (u ** 2 - 2.0 * y[0] * j * self._src_dx) / (2.0 * z)
            - 0.5 * alpha * j ** 2))
        spectra = np.fft.fft(np.stack([b, b * u, b * u ** 2]), n_fft)
        sums = np.fft.ifft(spectra * np.fft.fft(chirp))[:, :n_x]
        s0, s1, s2 = sums * (np.sqrt(k / (2.0 * np.pi * z)) * np.exp(1j * (
            k * y * (y - 2.0 * u[0]) / (2.0 * z) - 0.5 * alpha * m ** 2
            - np.pi / 4.0)))
        psi_x = (1j * k / z) * (y * s0 - s1)
        psi_z = -0.5 / z * s0 - (1j * k / (2.0 * z ** 2)) * (
            y ** 2 * s0 - 2.0 * y * s1 + s2)
        return s0, psi_x, psi_z


def poynting_field(psi: np.ndarray, psi_x: np.ndarray, psi_z: np.ndarray,
                   scene: OpticalScene) -> tuple:
    """(Sx, Sz, U) from the envelope field and its gradients: the fields
    E = psi e_y and H = (i/omega mu0)(dpsi/dz e_x - dpsi/dx e_z), with the
    carrier exp(ikz) reinstated in the z derivative, give the time-averaged
    S = (1/2) Re(E x H*) and U = (1/4)(eps0 E.E* + mu0 H.H*)."""
    pref = 1j / (scene.omega * MU0)
    E_y = np.asarray(psi)
    H_x = pref * (psi_z + 1j * scene.k * psi)
    H_z = -pref * psi_x
    Sx = 0.5 * np.real(E_y * np.conj(H_z))
    Sz = -0.5 * np.real(E_y * np.conj(H_x))
    U = 0.25 * (EPS0 * np.abs(E_y) ** 2
                + MU0 * (np.abs(H_x) ** 2 + np.abs(H_z) ** 2))
    return Sx, Sz, U


def transverse_momentum(Sx: np.ndarray, Sz: np.ndarray,
                        U: np.ndarray) -> np.ndarray:
    """k_x/k = S_x/|S|, NaN where U <= 1e-12 max(U)."""
    mag = np.hypot(Sx, Sz)
    out = np.full_like(mag, np.nan)
    ok = U > 1e-12 * U.max()
    out[ok] = Sx[ok] / mag[ok]
    return out


def fresnel_propagate(scene: OpticalScene, source_dx: float = None, *,
                      consumers) -> None:
    """Fresnel quadrature of the aperture field onto every scene plane.

    Each plane is handed, in z order, as (i, z, psi, psi_x, psi_z) to every
    callable in `consumers`, and nothing is stored.
    """
    ev = FresnelEvaluator(scene, source_dx=source_dx)
    for i, z in enumerate(scene.z_planes):
        psi, psi_x, psi_z = ev.plane(scene.transverse_grid, z)
        for consume in consumers:
            consume(i, z, psi, psi_x, psi_z)


def _lattice_sample(values: np.ndarray, scene: OpticalScene, x, z):
    """values[..., i_z, i_x] on the scene's lattice at the points (x, z), by
    Lagrange interpolation over 4 points along the uniform x (the kernel of
    `VelocitySampler`) and min(6, n_planes) along the possibly uneven z.
    Stencils are clamped inside the lattice: past an edge they extrapolate."""
    grid, planes = scene.transverse_grid, np.asarray(scene.z_planes)
    x, z = np.broadcast_arrays(np.asarray(x, float), np.asarray(z, float))
    s = (x - grid.x_min) / grid.dx
    j = np.clip(np.floor(s).astype(int), 1, grid.n_points - 3)
    n = min(6, planes.size)
    iz = np.clip(np.searchsorted(planes, z, side="right") - 1 - (n - 1) // 2,
                 0, planes.size - n)[..., None] + np.arange(n)
    wz = lagrange_weights(z, planes[iz])
    near = values[..., iz[..., :, None], j[..., None, None] + np.arange(-1, 3)]
    return np.einsum("...ab,...a,...b->...", near, wz,
                     np.stack(cubic_weights(s - j), axis=-1))


class PoyntingField:
    """Sx, Sz, U on the lattice, stacked so that `sample` interpolates all
    three at once by `_lattice_sample` for path tracing.

    The lattice starts unfilled; `add_plane`, a `fresnel_propagate`
    consumer, fills it one plane at a time.
    """

    def __init__(self, scene: OpticalScene):
        self.scene = scene
        g, z = scene.transverse_grid, scene.z_planes
        self._lattice = np.empty((3, len(z), g.n_points))
        self.Sx, self.Sz, self.U = self._lattice
        self.x_bounds, self.z_bounds = (g.x_min, g.x_max), (z[0], z[-1])

    @property
    def nbytes(self) -> int:
        """Bytes of the lattice."""
        return self._lattice.nbytes

    def add_plane(self, i, z, psi, psi_x, psi_z) -> None:
        """Fill lattice plane i from the envelope field and its gradients
        on that plane."""
        self.Sx[i], self.Sz[i], self.U[i] = poynting_field(
            psi, psi_x, psi_z, self.scene)

    def sample(self, x, z):
        return tuple(_lattice_sample(self._lattice, self.scene, x, z))


class ExactPoyntingSampler:
    """Poynting/energy sampler backed by the Fresnel quadrature itself
    (no lattice interpolation error)."""

    def __init__(self, scene: OpticalScene, source_dx: float = None):
        self.evaluator = FresnelEvaluator(scene, source_dx=source_dx)
        self.scene = scene
        g, z = scene.transverse_grid, scene.z_planes
        self.x_bounds, self.z_bounds = (g.x_min, g.x_max), (z[0], z[-1])

    def sample(self, x, z):
        return poynting_field(*self.evaluator.evaluate(x, z), self.scene)


@dataclass(frozen=True)
class PhotonPath:
    s: np.ndarray
    x: np.ndarray
    z: np.ndarray
    stagnated: bool = False


def _flow(sampler, x, z):
    """Unit-speed flow direction S/(cU); entries where the flow is
    undefined (U <= 0 or speed below STAGNATION_SPEED) are zeroed and
    flagged."""
    Sx, Sz, U = sampler.sample(x, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = Sx / (C_LIGHT * U)
        vz = Sz / (C_LIGHT * U)
        speed = np.hypot(vx, vz)
    bad = ~np.isfinite(speed) | (U <= 0) | (speed < STAGNATION_SPEED)
    vx = np.where(bad, 0.0, vx)
    vz = np.where(bad, 0.0, vz)
    return vx, vz, bad


def default_ds(scene: OpticalScene) -> float:
    """Default photon-path step: half the larger of the transverse grid
    step and the mean gap between the scene's planes."""
    z = scene.z_planes
    return 0.5 * max(scene.transverse_grid.dx,
                     (z[-1] - z[0]) / max(len(z) - 1, 1))


def photon_path_bundle(x0s, z0: float, sampler, ds: float):
    """RK4 integration of dr/ds = S/(cU) in steps of ds for an ensemble of
    start points; `photon_path_bundle([x0], z0, sampler, ds)[0]` traces
    one path.

    All paths share the arc-length mesh; each path is truncated at the
    first sample outside the sampler bounds, or after MAX_PATH_STEPS steps.
    Paths that reach a point where the flow is undefined are frozen there
    and marked stagnated.  Returns a list of PhotonPath.
    """
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    xlo, xhi = sampler.x_bounds
    zlo, zhi = sampler.z_bounds
    if np.any((x0s < xlo) | (x0s > xhi)) or not zlo <= z0 <= zhi:
        raise LeftDomain("path start outside the field domain")
    if not ds > 0:
        raise ValueError("ds must be > 0")
    x = x0s.copy()
    z = np.full_like(x, float(z0))
    alive = np.ones(len(x), dtype=bool)
    stagnated = np.zeros(len(x), dtype=bool)
    n_alive = np.full(len(x), 1)
    xs, zs = [x.copy()], [z.copy()]
    for _ in range(MAX_PATH_STEPS):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        xa, za = x[idx], z[idx]
        k1x, k1z, b1 = _flow(sampler, xa, za)
        k2x, k2z, b2 = _flow(sampler, xa + 0.5 * ds * k1x, za + 0.5 * ds * k1z)
        k3x, k3z, b3 = _flow(sampler, xa + 0.5 * ds * k2x, za + 0.5 * ds * k2z)
        k4x, k4z, b4 = _flow(sampler, xa + ds * k3x, za + ds * k3z)
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


def write_plane_profile(path, scene: OpticalScene, z: float, psi, U, Sx, Sz,
                        kx_over_k) -> None:
    """Per-plane table: x |psi|^2 U Sx Sz kx/k."""
    x = scene.transverse_grid.x
    with open(path, "w") as fh:
        fh.write(f"# z = {z!r}\n# x intensity U Sx Sz kx_over_k\n")
        write_rows(fh, x, np.abs(psi) ** 2, U, Sx, Sz, kx_over_k)


def write_paths(path, paths, metadata: dict) -> None:
    """Path tables `s x z`, one block per path, with a metadata header."""
    with open(path, "w") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key} = {value}\n")
        for i, p in enumerate(paths):
            fh.write(f"# path = {i}\n")
            write_rows(fh, p.s, p.x, p.z)


def gaussian_beam_intensity(slit: SlitSpec, x: np.ndarray, z: float,
                            k: float) -> np.ndarray:
    """Closed-form |psi|^2 of a single untruncated Gaussian slit after
    Fresnel propagation: width sigma(z) = sigma0 sqrt(1 + (z/zR)^2) with
    zR = 2 k sigma0^2 (unit-norm input)."""
    zR = 2.0 * k * slit.sigma ** 2
    sig = slit.sigma * np.sqrt(1.0 + (z / zR) ** 2)
    u = np.asarray(x) - slit.center
    return (2.0 * np.pi * sig ** 2) ** -0.5 * np.exp(-u ** 2 / (2.0 * sig ** 2))
