"""Fresnel two-slit propagation, EM assembly, Poynting fields, and
energy-streamline tracing."""

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
                     initial_two_slit_field, photon_path, photon_path_bundle,
                     transverse_momentum)
from qstream.errors import (EmptyScene, LeftDomain, ResolutionViolation,
                            StagnationPoint, UnsupportedPolarization)
from qstream.optics import (ExactPoyntingSampler, FresnelEvaluator,
                            PoyntingField, assemble_em_fields,
                            energy_density, gaussian_beam_intensity,
                            poynting, write_plane_profile, write_paths)
from qstream.scenarios import builtin_scenario

from conftest import max_abs

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


def spline_initial_plane():
    """Weights from a CubicSpline of an explicit field on the grid."""
    scene = symmetric_scene(planes=(0.5, 3.0))
    ev = FresnelEvaluator(scene, source_dx=8e-6,
                          initial=initial_two_slit_field(scene))
    return ev, scene, 3.0


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
    "spline-initial": spline_initial_plane,
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
    def test_single_untruncated_slit_is_normalized_gaussian(self):
        scene = single_slit_scene()
        psi = initial_two_slit_field(scene)
        x = scene.transverse_grid.x
        ref = (2 * np.pi * (0.3 * MM) ** 2) ** -0.25 \
            * np.exp(-x ** 2 / (4 * (0.3 * MM) ** 2))
        ref /= math.sqrt(np.trapezoid(ref ** 2, dx=scene.transverse_grid.dx))
        assert max_abs(psi - ref) < 1e-9 * ref.max()

    def test_symmetric_scene_field_even(self):
        psi = initial_two_slit_field(symmetric_scene())
        assert max_abs(psi - psi[::-1]) < 1e-12 * np.abs(psi).max()

    def test_truncated_field_zero_outside_windows(self):
        scene = symmetric_scene(window=1.5 * 0.3 * MM)
        psi = initial_two_slit_field(scene)
        x = scene.transverse_grid.x
        outside = (np.abs(x - 2.35 * MM) > 1.5 * 0.3 * MM) \
            & (np.abs(x + 2.35 * MM) > 1.5 * 0.3 * MM)
        assert np.all(psi[outside] == 0.0)
        n = np.trapezoid(np.abs(psi) ** 2, dx=scene.transverse_grid.dx)
        assert n == pytest.approx(1.0, abs=1e-9)

    def test_empty_scene_rejected(self):
        scene = OpticalScene((), LAMBDA, GridSpec(-1, 1, 64), (1.0,))
        with pytest.raises(EmptyScene):
            initial_two_slit_field(scene)


# propagation ---------------------------------------------------------------

class TestFresnelPropagation:
    def test_resolution_guard(self):
        scene = symmetric_scene(n_points=65)
        with pytest.raises(ResolutionViolation):
            fresnel_propagate(scene)

    def test_gaussian_beam_oracle_one_plane(self):
        scene = single_slit_scene(planes=(1.0,))
        field = fresnel_propagate(scene, source_dx=4e-6)
        inten = np.abs(field.psi[0]) ** 2
        ref = gaussian_beam_intensity(scene.slits[0],
                                      scene.transverse_grid.x, 1.0, scene.k)
        assert max_abs(inten - ref) / ref.max() < 1e-4

    def test_symmetric_input_symmetric_output(self):
        field = fresnel_propagate(symmetric_scene(), source_dx=8e-6)
        for row in field.psi:
            assert max_abs(row - row[::-1]) < 1e-10 * np.abs(row).max()

    @pytest.mark.parametrize("case", list(PLANE_CASES))
    def test_plane_matches_dense_oracle(self, case):
        ev, scene, z = PLANE_CASES[case]()
        grid = scene.transverse_grid
        for fast, dense in zip(ev.plane(grid, z), ev.evaluate(grid.x, z)):
            assert max_abs(fast - dense) <= 1e-9 * max_abs(dense)

    def test_propagation_does_not_import_scipy_signal(self):
        # scipy.signal costs about 0.4 s to import; no optics stage needs it
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            qstream.__file__)))
        code = (
            "import sys\n"
            "import qstream\n"
            "from qstream import GridSpec, OpticalScene, SlitSpec, "
            "fresnel_propagate\n"
            "scene = OpticalScene((SlitSpec(3e-4),), 943e-9, "
            "GridSpec(-5e-3, 5e-3, 401), (0.5, 1.0))\n"
            "fresnel_propagate(scene, source_dx=2e-5)\n"
            "assert 'scipy.signal' not in sys.modules, 'scipy.signal imported'\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_transverse_norm_conserved_per_plane(self):
        scene = single_slit_scene()
        field = fresnel_propagate(scene, source_dx=4e-6)
        dx = scene.transverse_grid.dx
        for row in field.psi:
            n = np.trapezoid(np.abs(row) ** 2, dx=dx)
            assert n == pytest.approx(1.0, abs=1e-3)


# EM assembly and derived fields -------------------------------------------

class TestEMFields:
    @staticmethod
    def plane_wave_em(scene, n=64):
        psi = np.ones(n, dtype=complex)
        zeros = np.zeros(n, dtype=complex)
        return assemble_em_fields(psi, zeros, zeros, scene)

    def test_plane_wave_impedance(self):
        scene = single_slit_scene()
        em = self.plane_wave_em(scene)
        ratio = np.abs(em.E_y) / np.abs(em.H_x)
        assert max_abs(ratio - math.sqrt(MU0 / EPS0)) < 1e-8 * ratio.max()
        assert max_abs(em.H_z) == 0.0

    def test_standing_wave_no_transverse_flow(self):
        scene = single_slit_scene()
        kx = 1e4
        x = np.linspace(-1 * MM, 1 * MM, 501)
        psi = np.cos(kx * x).astype(complex)
        psi_x = -kx * np.sin(kx * x).astype(complex)
        em = assemble_em_fields(psi, psi_x, np.zeros_like(psi), scene)
        Sx, _ = poynting(em)
        assert max_abs(Sx) < 1e-30

    def test_unsupported_polarization(self):
        scene = OpticalScene((SlitSpec(0.3 * MM),), LAMBDA,
                             GridSpec(-1, 1, 64), (1.0,), polarization="H")
        with pytest.raises(UnsupportedPolarization):
            assemble_em_fields(np.ones(4), np.zeros(4), np.zeros(4), scene)

    def test_plane_wave_energy_density_halves(self):
        scene = single_slit_scene()
        em = self.plane_wave_em(scene)
        U = energy_density(em)
        assert np.allclose(U, 0.5 * EPS0, rtol=1e-12)
        electric = 0.25 * EPS0 * np.abs(em.E_y) ** 2
        magnetic = U - electric
        assert np.allclose(electric, magnetic, rtol=1e-12)

    def test_null_field_zero_energy(self):
        scene = single_slit_scene()
        em = assemble_em_fields(np.zeros(8), np.zeros(8), np.zeros(8), scene)
        assert np.all(energy_density(em) == 0.0)

    def test_plane_wave_poynting_transport(self):
        scene = single_slit_scene()
        em = self.plane_wave_em(scene)
        Sx, Sz = poynting(em)
        U = energy_density(em)
        assert max_abs(Sx) == 0.0
        assert np.allclose(Sz, C_LIGHT * U, rtol=1e-8)

    def test_tilted_plane_wave_transverse_momentum(self):
        scene = single_slit_scene()
        theta = 0.01
        k = scene.k
        x = np.linspace(-1 * MM, 1 * MM, 201)
        psi = np.exp(1j * k * math.sin(theta) * x)
        psi_x = 1j * k * math.sin(theta) * psi
        psi_z = 1j * k * (math.cos(theta) - 1.0) * psi
        em = assemble_em_fields(psi, psi_x, psi_z, scene)
        Sx, Sz = poynting(em)
        kx = transverse_momentum(Sx, Sz, energy_density(em))
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
        path = photon_path(0.3, 0.0, sampler, ds=0.5)
        assert max_abs(path.x - 0.3) == 0.0
        assert np.allclose(np.diff(path.z), 0.5)
        assert path.z[-1] >= sampler.z_bounds[1]

    def test_proper_time_convention(self):
        path = photon_path(0.0, 0.0, ConstantFlowSampler(), ds=1.0)
        assert np.allclose(path.proper_time, path.s / C_LIGHT)

    def test_start_outside_domain_rejected(self):
        with pytest.raises(LeftDomain):
            photon_path(5.0, 0.0, ConstantFlowSampler(), ds=0.5)

    def test_stagnation_raises_for_single_path(self):
        sampler = ConstantFlowSampler(sz=0.0)
        with pytest.raises(StagnationPoint):
            photon_path(0.0, 0.0, sampler, ds=0.5)

    def test_stagnation_flagged_in_bundle(self):
        sampler = ConstantFlowSampler(sz=0.0)
        paths = photon_path_bundle([0.0, 0.5], 0.0, sampler, ds=0.5)
        assert all(p.stagnated for p in paths)

    def test_symmetric_scene_axis_path_stays_on_axis(self):
        scene = symmetric_scene(planes=(0.5, 8.0))
        sampler = ExactPoyntingSampler(scene, source_dx=5e-6)
        path = photon_path(0.0, 0.5, sampler, ds=0.25)
        assert max_abs(path.x) < 1e-9
        assert path.z[-1] >= 8.0

    def test_mirror_starts_give_mirror_paths(self):
        scene = symmetric_scene(planes=(0.5, 4.0))
        sampler = ExactPoyntingSampler(scene, source_dx=8e-6)
        left = photon_path(-2.0 * MM, 0.5, sampler, ds=0.25)
        right = photon_path(2.0 * MM, 0.5, sampler, ds=0.25)
        span = scene.transverse_grid.x_max - scene.transverse_grid.x_min
        assert max_abs(left.x + right.x) < 1e-8 * span


@pytest.fixture(scope="module")
def lattice():
    scene = single_slit_scene(planes=tuple(np.linspace(0.5, 4.0, 8)))
    return scene, PoyntingField(fresnel_propagate(scene, source_dx=8e-6))


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


def test_gaussian_beam_intensity_normalized():
    x = np.linspace(-50 * MM, 50 * MM, 20001)
    inten = gaussian_beam_intensity(SlitSpec(0.3 * MM), x, 3.0,
                                    2 * np.pi / LAMBDA)
    assert np.trapezoid(inten, x) == pytest.approx(1.0, abs=1e-6)
