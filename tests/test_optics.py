"""Fresnel two-slit propagation, the Poynting vector and energy density,
and energy-streamline tracing."""

import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT, epsilon_0 as EPS0, mu_0 as MU0

import qstream
from qstream import (GridSpec, OpticalScene, SlitSpec, fresnel_propagate,
                     photon_path_bundle, transverse_momentum)
from qstream.errors import EmptyScene, LeftDomain, ResolutionViolation
from qstream.fields import CHUNK_VALUES, format_rows
from qstream.optics import (ExactPoyntingSampler, FresnelEvaluator,
                            PhotonPath, _fast_len, _lattice_sample,
                            gaussian_beam_intensity, poynting_field,
                            source_points, write_plane_profile, write_paths)
from qstream.scenarios import _launch_positions, builtin_scenario

from conftest import fresnel_planes, max_abs, poynting_lattice

LAMBDA = 943e-9
MM = 1e-3


def symmetric_scene(n_points=1601, planes=(0.5, 1.0, 2.0, 3.0), **kw):
    slits = (SlitSpec(0.3 * MM, 2.35 * MM, kw.get("window")),
             SlitSpec(0.3 * MM, -2.35 * MM, kw.get("window")))
    grid = GridSpec(-10 * MM, 10 * MM, n_points)
    return OpticalScene(slits, LAMBDA, grid, planes)


def single_slit_scene(n_points=1601, planes=(0.5, 3.0, 8.0)):
    grid = GridSpec(-12 * MM, 12 * MM, n_points)
    return OpticalScene((SlitSpec(0.3 * MM),), LAMBDA, grid, planes)


def catalog_plane(name, which):
    """(evaluator, scene, z) for a catalog optics scene's first, middle or
    last plane."""
    cfg = builtin_scenario(name)
    planes = cfg.scene.z_planes
    z = {"first": planes[0], "middle": planes[len(planes) // 2],
         "last": planes[-1]}[which]
    return FresnelEvaluator(cfg.scene, source_dx=cfg.source_dx), cfg.scene, z


def incommensurate_plane():
    """Grid spacing 12.5 um against source spacing ~4.7 um."""
    scene = symmetric_scene(planes=(0.5, 1.0))
    ev = FresnelEvaluator(scene, source_dx=4.7e-6)
    ratio = scene.transverse_grid.dx / (ev.x_src[1] - ev.x_src[0])
    assert abs(ratio - round(ratio)) > 0.1
    return ev, scene, 1.0


PLANE_CASES = {
    **{f"{name}-{which}": functools.partial(catalog_plane, name, which)
       for name in ("fig4-symmetric", "fig4-asymmetric", "fig4-trunc-1.5",
                    "oracle-gaussian-beam")
       for which in ("first", "middle", "last")},
    "dx-not-multiple-of-source-dx": incommensurate_plane,
}


class ConstantFlowSampler:
    """Stub sampler: uniform z-directed flow (plane-wave transport)."""

    def __init__(self, sz=1.0, u=1.0 / C_LIGHT):
        self.sz = sz
        self.u = u
        self.x_bounds = (-1.0, 1.0)
        self.z_bounds = (0.0, 10.0)

    def sample(self, x, z):
        shape = np.broadcast(np.asarray(x), np.asarray(z)).shape
        return (np.zeros(shape), np.full(shape, self.sz),
                np.full(shape, self.u))


# scene validation ----------------------------------------------------------

class TestSceneTypes:
    def test_slit_sigma_positive(self):
        with pytest.raises(ValueError):
            SlitSpec(-0.1)

    def test_window_positive(self):
        with pytest.raises(ValueError):
            SlitSpec(0.3 * MM, window_halfwidth=0.0)

    def test_window_truncates_exactly(self):
        s = SlitSpec(0.3 * MM, center=1.0 * MM,
                     window_halfwidth=1.5 * 0.3 * MM)
        x = np.linspace(-3 * MM, 5 * MM, 2001)
        a = s.amplitude(x)
        inside = np.abs(x - 1.0 * MM) <= 1.5 * 0.3 * MM
        assert np.all(a[~inside] == 0.0)
        assert np.all(a[inside] > 0.0)

    def test_wavelength_positive(self):
        with pytest.raises(ValueError):
            OpticalScene((SlitSpec(0.3 * MM),), -1.0,
                         GridSpec(-1, 1, 64), (1.0,))

    def test_planes_strictly_increasing(self):
        with pytest.raises(ValueError):
            OpticalScene((SlitSpec(0.3 * MM),), LAMBDA,
                         GridSpec(-1, 1, 64), (2.0, 1.0))


class TestInitialField:
    """The aperture field as a run samples it: the scene's aperture
    amplitude, normalized by the Fresnel source weights."""

    @staticmethod
    def unit_norm(ev):
        dxs = ev.x_src[1] - ev.x_src[0]
        return np.sum(np.abs(ev.weights) ** 2) / dxs

    def test_single_untruncated_slit_is_normalized_gaussian(self):
        scene = single_slit_scene()
        x = scene.transverse_grid.x
        ref = (2 * np.pi * (0.3 * MM) ** 2) ** -0.25 \
            * np.exp(-x ** 2 / (4 * (0.3 * MM) ** 2))
        assert max_abs(scene.aperture_amplitude(x) - ref) < 1e-12 * ref.max()
        ev = FresnelEvaluator(scene, source_dx=4e-6)
        assert self.unit_norm(ev) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_scene_field_even(self):
        scene = symmetric_scene()
        a = scene.aperture_amplitude(scene.transverse_grid.x)
        assert max_abs(a - a[::-1]) < 1e-12 * np.abs(a).max()

    def test_truncated_field_zero_outside_windows(self):
        scene = symmetric_scene(window=1.5 * 0.3 * MM)

        def outside(x):
            return (np.abs(x - 2.35 * MM) > 1.5 * 0.3 * MM) \
                & (np.abs(x + 2.35 * MM) > 1.5 * 0.3 * MM)

        x = scene.transverse_grid.x
        assert np.all(scene.aperture_amplitude(x)[outside(x)] == 0.0)
        ev = FresnelEvaluator(scene, source_dx=4e-6)
        assert np.any(outside(ev.x_src))
        assert np.all(ev.weights[outside(ev.x_src)] == 0.0)
        assert self.unit_norm(ev) == pytest.approx(1.0, abs=1e-9)

    def test_empty_scene_rejected(self):
        scene = OpticalScene((), LAMBDA, GridSpec(-1, 1, 64), (1.0,))
        with pytest.raises(EmptyScene):
            source_points(scene)
        with pytest.raises(EmptyScene):
            scene.aperture_amplitude(scene.transverse_grid.x)


# propagation ---------------------------------------------------------------

class TestFresnelPropagation:
    def test_resolution_guard(self):
        scene = symmetric_scene(n_points=65)
        with pytest.raises(ResolutionViolation):
            fresnel_propagate(scene, consumers=())

    def test_gaussian_beam_oracle_one_plane(self):
        scene = single_slit_scene(planes=(1.0,))
        [(_, _, psi, _, _)] = fresnel_planes(scene, source_dx=4e-6)
        inten = np.abs(psi) ** 2
        ref = gaussian_beam_intensity(scene.slits[0],
                                      scene.transverse_grid.x, 1.0, scene.k)
        assert max_abs(inten - ref) / ref.max() < 1e-4

    def test_symmetric_input_symmetric_output(self):
        for _, _, row, _, _ in fresnel_planes(symmetric_scene(),
                                              source_dx=8e-6):
            assert max_abs(row - row[::-1]) < 1e-10 * np.abs(row).max()

    @pytest.mark.parametrize("case", list(PLANE_CASES))
    def test_plane_matches_dense_oracle(self, case):
        ev, scene, z = PLANE_CASES[case]()
        grid = scene.transverse_grid
        for fast, dense in zip(ev.plane(grid, z), ev.evaluate(grid.x, z)):
            assert max_abs(fast - dense) <= 1e-9 * max_abs(dense)

    def test_propagation_does_not_import_scipy_signal(self, tmp_path):
        # the runtime needs numpy only: each of these scipy subpackages
        # costs a large share of start-up, and no stage uses it; a whole
        # run through the command line imports no scipy at all; nor does
        # importing the command line load logging, which only the slow-FFT
        # warning needs
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            qstream.__file__)))
        code = (
            "import sys\n"
            "import qstream.cli\n"
            "assert 'logging' not in sys.modules\n"
            "from qstream import (GridSpec, OpticalScene, PotentialSpec, "
            "PropagatorConfig, SlitSpec, damped_oscillator, "
            "fresnel_propagate, gaussian_packet, photon_path_bundle, "
            "propagate)\n"
            "from qstream.fields import kinetic_energy, spectral_derivative\n"
            "from qstream.optics import PoyntingField\n"
            "scene = OpticalScene((SlitSpec(3e-4),), 943e-9, "
            "GridSpec(-5e-3, 5e-3, 401), (0.5, 1.0))\n"
            "pf = PoyntingField(scene)\n"
            "fresnel_propagate(scene, 2e-5, consumers=(pf.add_plane,))\n"
            "photon_path_bundle([-1e-4, 1e-4], 0.5, pf, ds=0.1)\n"
            "cfg = PropagatorConfig(potential=PotentialSpec('harmonic', "
            "omega0=1.0), gamma=0.3)\n"
            "damped_oscillator(1.0, 0.0, 1.0, 0.3, [0.0, 2.5, 5.0])\n"
            "psi = gaussian_packet(GridSpec(-8.0, 8.0, 256), cfg.constants, "
            "1.0)\n"
            "run = propagate(psi, PropagatorConfig('caldirola_kanai', "
            "potential=cfg.potential, gamma=0.3, dt=0.01), "
            "0.05)\n"
            "kinetic_energy(run.snapshots[-1], cfg.constants)\n"
            "spectral_derivative(psi.values, psi.grid)\n"
            "for name in ('signal', 'interpolate', 'integrate', "
            "'constants', 'fft'):\n"
            "    assert 'scipy.' + name not in sys.modules, name\n"
            "assert qstream.cli.main(['run', 'oracle-free-gaussian', "
            f"'--out-dir', {str(tmp_path)!r}]) == 0\n"
            "assert 'scipy' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_transverse_norm_conserved_per_plane(self):
        scene = single_slit_scene()
        dx = scene.transverse_grid.dx
        for _, _, row, _, _ in fresnel_planes(scene, source_dx=4e-6):
            n = np.trapezoid(np.abs(row) ** 2, dx=dx)
            assert n == pytest.approx(1.0, abs=1e-3)


def test_fast_len_equals_scipy_next_fast_len():
    # the chirp-z length decides every plane's bytes; SciPy is the reference
    from scipy.fft import next_fast_len
    from qstream.scenarios import MAX_OPTICS_WORK
    top = int(MAX_OPTICS_WORK)
    for n in [*range(1, 20_001), *range(top - 50, top + 51), 2 * top + 1]:
        assert _fast_len(n) == next_fast_len(n), n


# Poynting vector, energy density and derived fields -----------------------

class TestEMFields:
    def test_constants_equal_scipy(self):
        assert qstream.optics.C_LIGHT == C_LIGHT
        assert qstream.optics.EPS0 == EPS0
        assert qstream.optics.MU0 == MU0

    @staticmethod
    def plane_wave(scene, n=64):
        """(Sx, Sz, U) of the unit plane wave along z: E = 1, no gradient
        of the envelope."""
        zeros = np.zeros(n, dtype=complex)
        return poynting_field(np.ones(n, dtype=complex), zeros, zeros, scene)

    def test_plane_wave_impedance(self):
        # |H| = |E| / Z0 with Z0 = sqrt(mu0 / eps0): Sz = |E|^2 / (2 Z0)
        Sx, Sz, _ = self.plane_wave(single_slit_scene())
        z0 = math.sqrt(MU0 / EPS0)
        assert max_abs(Sz - 0.5 / z0) < 1e-8 * Sz.max()
        assert max_abs(Sx) == 0.0

    def test_standing_wave_no_transverse_flow(self):
        scene = single_slit_scene()
        kx = 1e4
        x = np.linspace(-1 * MM, 1 * MM, 501)
        psi = np.cos(kx * x).astype(complex)
        psi_x = -kx * np.sin(kx * x).astype(complex)
        Sx, _, _ = poynting_field(psi, psi_x, np.zeros_like(psi), scene)
        assert max_abs(Sx) < 1e-30

    def test_plane_wave_energy_density_halves(self):
        # U = eps0/2 for |E| = 1, half of it electric and half magnetic
        _, _, U = self.plane_wave(single_slit_scene())
        assert np.allclose(U, 0.5 * EPS0, rtol=1e-9, atol=0.0)
        electric = 0.25 * EPS0
        magnetic = U - electric
        assert np.allclose(magnetic, electric, rtol=1e-9, atol=0.0)

    def test_null_field_zero_energy(self):
        scene = single_slit_scene()
        _, _, U = poynting_field(np.zeros(8), np.zeros(8), np.zeros(8), scene)
        assert np.all(U == 0.0)

    def test_plane_wave_poynting_transport(self):
        Sx, Sz, U = self.plane_wave(single_slit_scene())
        assert max_abs(Sx) == 0.0
        assert np.allclose(Sz, C_LIGHT * U, rtol=1e-8, atol=0.0)

    def test_tilted_plane_wave_transverse_momentum(self):
        scene = single_slit_scene()
        theta = 0.01
        k = scene.k
        x = np.linspace(-1 * MM, 1 * MM, 201)
        psi = np.exp(1j * k * math.sin(theta) * x)
        psi_x = 1j * k * math.sin(theta) * psi
        psi_z = 1j * k * (math.cos(theta) - 1.0) * psi
        kx = transverse_momentum(*poynting_field(psi, psi_x, psi_z, scene))
        assert max_abs(kx - math.sin(theta)) < 1e-6

    def test_transverse_momentum_invalid_where_dark(self):
        Sx = np.array([0.0, 1.0])
        Sz = np.array([0.0, 1.0])
        U = np.array([0.0, 1.0])
        kx = transverse_momentum(Sx, Sz, U)
        assert np.isnan(kx[0])
        assert kx[1] == pytest.approx(math.sqrt(0.5))


# streamlines ---------------------------------------------------------------

class TestPhotonPaths:
    def test_plane_wave_path_straight(self):
        sampler = ConstantFlowSampler()
        [path] = photon_path_bundle([0.3], 0.0, sampler, ds=0.5)
        assert max_abs(path.x - 0.3) == 0.0
        assert np.allclose(np.diff(path.z), 0.5)
        assert path.z[-1] >= sampler.z_bounds[1]

    def test_start_outside_domain_rejected(self):
        with pytest.raises(LeftDomain):
            photon_path_bundle([5.0], 0.0, ConstantFlowSampler(), ds=0.5)

    def test_stagnation_flagged_in_bundle(self):
        sampler = ConstantFlowSampler(sz=0.0)
        paths = photon_path_bundle([0.0, 0.5], 0.0, sampler, ds=0.5)
        assert all(p.stagnated for p in paths)

    def test_symmetric_scene_axis_path_stays_on_axis(self):
        scene = symmetric_scene(planes=(0.5, 8.0))
        sampler = ExactPoyntingSampler(scene, source_dx=5e-6)
        [path] = photon_path_bundle([0.0], 0.5, sampler, ds=0.25)
        assert max_abs(path.x) < 1e-9
        assert path.z[-1] >= 8.0

    def test_mirror_starts_give_mirror_paths(self):
        scene = symmetric_scene(planes=(0.5, 4.0))
        sampler = ExactPoyntingSampler(scene, source_dx=8e-6)
        [left] = photon_path_bundle([-2.0 * MM], 0.5, sampler, ds=0.25)
        [right] = photon_path_bundle([2.0 * MM], 0.5, sampler, ds=0.25)
        span = scene.transverse_grid.x_max - scene.transverse_grid.x_min
        assert max_abs(left.x + right.x) < 1e-8 * span


@pytest.fixture(scope="module")
def lattice():
    scene = single_slit_scene(planes=tuple(np.linspace(0.5, 4.0, 8)))
    return scene, poynting_lattice(scene, source_dx=8e-6)


class TestPoyntingFieldLattice:
    def test_energy_density_nonnegative(self, lattice):
        _, pf = lattice
        assert np.all(pf.U >= 0.0)

    def test_speed_bounded_by_light(self, lattice):
        _, pf = lattice
        mag = np.hypot(pf.Sx, pf.Sz)
        mask = pf.U > 1e-9 * pf.U.max()
        assert np.all(mag[mask] <= C_LIGHT * pf.U[mask] * (1 + 1e-9))

    def test_interpolation_matches_lattice_nodes(self, lattice):
        scene, pf = lattice
        x = scene.transverse_grid.x[::100]
        Sx, Sz, U = pf.sample(x, scene.z_planes[3])
        assert max_abs(U - pf.U[3, ::100]) < 1e-6 * pf.U.max()
        assert max_abs(Sz - pf.Sz[3, ::100]) < 1e-6 * np.abs(pf.Sz).max()

    def test_beam_axis_flow_sign_change(self, lattice):
        # diverging single beam: Sx < 0 left of axis, > 0 right of it
        _, pf = lattice
        x = np.array([-2 * MM, 2 * MM])
        Sx, _, _ = pf.sample(x, 2.0)
        assert Sx[0] < 0.0 < Sx[1]

    def test_paths_on_lattice_reach_far_plane(self, lattice):
        scene, pf = lattice
        paths = photon_path_bundle([-1 * MM, 0.0, 1 * MM], 0.5, pf, ds=0.1)
        for p in paths:
            assert not p.stagnated
            assert p.z[-1] >= 4.0


def cubic_quintic(x, z):
    """A polynomial of degree 3 in x and 5 in z."""
    return (1.0 + 2.0 * x - x ** 2 + 0.5 * x ** 3) * (
        2.0 - z + 0.3 * z ** 2 - 0.1 * z ** 3 + 0.02 * z ** 4 - 1e-3 * z ** 5)


class TestLatticeSample:
    GRID = GridSpec(-1.0, 2.0, 13)
    PLANES = np.array([0.5, 0.7, 1.3, 1.6, 2.9, 3.0, 4.4, 6.0])

    def scene(self, planes):
        return OpticalScene((), LAMBDA, self.GRID, planes)

    def points(self):
        # inside the lattice and up to one cell past each edge
        rng = np.random.default_rng(7)
        return rng.uniform(-1.2, 2.2, 200), rng.uniform(0.3, 6.5, 200)

    def test_reproduces_cubic_x_quintic_z_on_uneven_planes(self):
        g, planes = self.GRID, self.PLANES
        values = cubic_quintic(g.x[None, :], planes[:, None])
        x, z = self.points()
        got = _lattice_sample(values, self.scene(planes), x, z)
        assert max_abs(got - cubic_quintic(x, z)) < 1e-12 * max_abs(values)

    @pytest.mark.parametrize("n_planes", [2, 3])
    def test_stencil_shrinks_to_plane_count(self, n_planes):
        # n planes reproduce a polynomial of degree n - 1 in z exactly
        g, planes = self.GRID, self.PLANES[:n_planes]

        def f(x, z):
            return (1.0 - x + 0.5 * x ** 3) * (0.5 + z) ** (n_planes - 1)

        values = f(g.x[None, :], planes[:, None])
        x, z = self.points()
        got = _lattice_sample(values, self.scene(planes), x, z)
        assert max_abs(got - f(x, z)) < 1e-12 * max_abs(values)

    def test_stacked_lattice_sampled_per_layer(self):
        g, planes = self.GRID, self.PLANES
        layer = cubic_quintic(g.x[None, :], planes[:, None])
        got = _lattice_sample(np.stack((layer, -2.0 * layer)),
                              self.scene(planes), 0.25, 2.0)
        assert got.shape == (2,)
        assert got[1] == pytest.approx(-2.0 * got[0], rel=1e-15)

    def test_two_plane_scene_samples_its_nodes(self):
        scene = symmetric_scene(planes=(0.5, 3.0))
        pf = poynting_lattice(scene, source_dx=8e-6)
        x = scene.transverse_grid.x[::50]
        _, Sz, U = pf.sample(x, 3.0)
        assert max_abs(U - pf.U[1, ::50]) <= 1e-12 * pf.U.max()
        assert max_abs(Sz - pf.Sz[1, ::50]) <= 1e-12 * np.abs(pf.Sz).max()


class TestStreamedPlanes:
    """The planes a consumer is handed, against the evaluator's planes, and
    the lattice built from them one plane at a time, against the
    whole-array formulas."""

    def test_consumers_required(self):
        with pytest.raises(TypeError):
            fresnel_propagate(symmetric_scene(), source_dx=8e-6)

    def test_consumer_planes_equal_evaluator_planes(self):
        scene = symmetric_scene()
        ev = FresnelEvaluator(scene, source_dx=8e-6)
        seen = fresnel_planes(scene, source_dx=8e-6)
        assert [p[:2] for p in seen] == list(enumerate(scene.z_planes))
        for _, z, *parts in seen:
            for part, want in zip(parts, ev.plane(scene.transverse_grid, z)):
                assert np.array_equal(part, want)

    def test_lattice_equals_whole_array_formulas(self):
        scene = symmetric_scene()
        psi, psi_x, psi_z = (np.array(a) for a in zip(
            *(p[2:] for p in fresnel_planes(scene, source_dx=8e-6))))
        oracle = poynting_field(psi, psi_x, psi_z, scene)
        pf = poynting_lattice(scene, source_dx=8e-6)
        for got, want in zip((pf.Sx, pf.Sz, pf.U), oracle):
            assert np.array_equal(got, want)
        assert pf.nbytes == 3 * psi.size * 8


def test_lattice_paths_match_exact_sampler():
    # the lattice is the fast path; the Fresnel quadrature at every path
    # point is the oracle
    cfg = builtin_scenario("fig4-symmetric")
    scene = cfg.scene
    assert len(scene.z_planes) == 31
    x0s = _launch_positions(scene, 8)
    lattice = photon_path_bundle(
        x0s, 0.5, poynting_lattice(scene, source_dx=cfg.source_dx), ds=0.05)
    exact = photon_path_bundle(
        x0s, 0.5, ExactPoyntingSampler(scene, source_dx=cfg.source_dx),
        ds=0.05)
    for a, b in zip(lattice, exact):
        assert len(a.x) == len(b.x)
        assert max_abs(a.x - b.x) <= 6.3e-7


class TestSerialization:
    def test_plane_profile_columns(self, tmp_path):
        scene = single_slit_scene(n_points=64, planes=(1.0,))
        n = 64
        psi = np.ones(n, dtype=complex)
        arr = np.zeros(n)
        out = tmp_path / "plane.txt"
        write_plane_profile(out, scene, 1.0, psi, arr, arr, arr, arr)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# z = ")
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(rows) == n
        assert len(rows[0].split()) == 6

    def test_path_tables_blocked_per_path(self, tmp_path):
        paths = photon_path_bundle([0.1, 0.2], 0.0, ConstantFlowSampler(),
                                   ds=1.0)
        out = tmp_path / "paths.txt"
        write_paths(out, paths, metadata={"scenario": "demo"})
        text = out.read_text()
        assert "# scenario = demo" in text
        assert "# path = 0" in text and "# path = 1" in text

    def test_path_tables_equal_one_table_per_path(self, tmp_path):
        # each path is a table of its own; the long one spans three chunks
        rng = np.random.default_rng(4)
        lengths = [1, 2, 151, 0, 40, CHUNK_VALUES // 3 * 2 + 5, 3]
        paths = [PhotonPath(0.05 * np.arange(n), rng.normal(size=n) * 1e-3,
                            0.5 + rng.random(n)) for n in lengths]
        out = tmp_path / "paths.txt"
        write_paths(out, paths, metadata={"n_paths": len(paths)})
        want = f"# n_paths = {len(paths)}\n" + "".join(
            f"# path = {i}\n" + "".join(row + "\n" for row in
                                         format_rows(p.s, p.x, p.z))
            for i, p in enumerate(paths))
        assert out.read_text() == want


def test_gaussian_beam_intensity_normalized():
    x = np.linspace(-50 * MM, 50 * MM, 20001)
    inten = gaussian_beam_intensity(SlitSpec(0.3 * MM), x, 3.0,
                                    2 * np.pi / LAMBDA)
    assert np.trapezoid(inten, x) == pytest.approx(1.0, abs=1e-6)
