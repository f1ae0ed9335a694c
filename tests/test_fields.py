"""Grid, Madelung decomposition, and hydrodynamic field diagnostics."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstream import (ComplexField, GridSpec, PhysicalConstants,
                     PotentialSpec, PropagatorConfig, gaussian_packet, norm,
                     polar_decompose, probability_current, quantum_potential,
                     velocity_field)
from qstream.errors import AllBelowThreshold
from qstream.fields import (CHUNK_VALUES, REPR_BELOW, _unwrap_phase,
                            derivative, format_rows, kinetic_energy,
                            node_mask, position_spread, require_finite,
                            write_rows, write_snapshot)
from qstream.propagators import physical_energy

from conftest import max_abs, sym_grid

C = PhysicalConstants()


# grid and value types ------------------------------------------------------

class TestGridSpec:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 64)

    def test_minimum_point_count(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 4)

    def test_dx_and_samples(self):
        g = GridSpec(0.0, 1.0, 11)
        assert g.dx == pytest.approx(0.1)
        assert np.allclose(g.x, np.linspace(0, 1, 11))

    def test_wavenumbers_match_fft_convention(self):
        g = GridSpec(0.0, 1.0, 16)
        assert np.allclose(g.wavenumbers(),
                           2 * np.pi * np.fft.fftfreq(16, d=g.dx))

    def test_points_cached_read_only(self):
        g = GridSpec(-3.0, 5.0, 101)
        x = g.x
        assert np.array_equal(x, np.linspace(-3.0, 5.0, 101))
        assert g.x is x
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1.0

    def test_cached_points_leave_equality_and_hash(self):
        a, b = GridSpec(-3.0, 5.0, 101), GridSpec(-3.0, 5.0, 101)
        a.x  # cache the points on one side only
        assert a == b and hash(a) == hash(b)
        assert a != GridSpec(-3.0, 5.0, 102)
        assert {a: 1}[b] == 1


class TestComplexField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ComplexField(sym_grid(1, 16), np.zeros(8))

    def test_nonfinite_rejected(self):
        vals = np.ones(16, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            ComplexField(sym_grid(1, 16), vals)

    @pytest.mark.parametrize("bad", [complex(1.0, np.nan),
                                     complex(-np.inf, 1.0),
                                     complex(np.inf, -np.inf)])
    def test_require_finite_sees_either_part(self, bad):
        # a contiguous complex array is scanned as its float view
        vals = np.ones(2048, dtype=complex)
        require_finite(vals)
        for i in (0, 1023, 2047):
            vals[i] = bad
            with pytest.raises(ValueError):
                require_finite(vals)
            vals[i] = 1.0

    def test_require_finite_on_strided_view(self):
        # every other value: the non-finite one lies inside the view, and
        # a non-finite value outside it is not the view's
        vals = np.ones(64, dtype=complex)
        vals[1] = complex(0.0, np.inf)
        view = vals[::2]
        assert not view.flags.c_contiguous
        require_finite(view)
        vals[10] = complex(0.0, np.nan)
        with pytest.raises(ValueError):
            require_finite(view)


# polar decomposition -------------------------------------------------------

class TestPolarDecompose:
    def test_constant_real_field(self):
        g = sym_grid(1, 64)
        p = polar_decompose(ComplexField(g, np.ones(64, dtype=complex)), C)
        assert np.allclose(p.rho, 1.0)
        assert np.allclose(p.S, 0.0)

    def test_plane_wave_unwraps_many_turns(self):
        # e^{2ix} over [-30, 30] wraps the raw angle ~19 times
        g = sym_grid(30, 4096)
        p = polar_decompose(ComplexField(g, np.exp(2j * g.x)), C)
        assert np.allclose(p.rho, 1.0)
        ref = p.S - 2.0 * g.x
        assert max_abs(ref - ref[0]) < 1e-9
        assert np.all(np.abs(np.diff(p.S)) < np.pi * C.hbar)

    def test_reference_point_phase_in_principal_branch(self):
        g = sym_grid(30, 4096)
        p = polar_decompose(ComplexField(g, np.exp(2j * g.x)), C)
        i0 = int(np.argmax(p.rho))
        assert -np.pi * C.hbar < p.S[i0] <= np.pi * C.hbar

    def test_boosted_gaussian_linear_action(self):
        g = sym_grid(4, 1024)
        psi = gaussian_packet(g, C, sigma0=0.5, p0=3.0)
        p = polar_decompose(psi, C)
        rho_ref = (2 * np.pi * 0.25) ** -0.5 * np.exp(-g.x ** 2 / 0.5)
        assert max_abs(p.rho - rho_ref) < 1e-12
        resid = (p.S - 3.0 * g.x)[p.valid]
        assert max_abs(resid - resid[0]) < 1e-9

    def test_all_below_threshold(self):
        g = sym_grid(1, 64)
        with pytest.raises(AllBelowThreshold):
            polar_decompose(ComplexField(g, np.zeros(64, dtype=complex)), C)


def _unwrap_phase_oracle(raw, valid, i0):
    """The complex-exponential form _unwrap_phase replaces, kept as its
    oracle: each step wrapped with angle(exp(i d))."""
    diff = np.diff(raw)
    corr = np.angle(np.exp(1j * diff)) - diff
    corr[~(valid[:-1] & valid[1:])] = 0.0
    offset = np.zeros_like(raw)
    offset[i0 + 1:] = np.cumsum(corr[i0:])
    offset[:i0] = -np.cumsum(corr[:i0][::-1])[::-1]
    return raw + offset


class TestUnwrapPhase:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_complex_exponential_form(self, seed):
        rng = np.random.default_rng(seed)
        n = 2000
        smooth = np.cumsum(rng.uniform(-3.0, 3.0, n))
        for raw in (np.angle(np.exp(1j * smooth)),
                    rng.uniform(-np.pi, np.pi, n)):
            valid = np.ones(n, dtype=bool)
            for start in rng.integers(0, n - 40, 8):  # sub-threshold gaps
                valid[start:start + rng.integers(1, 40)] = False
            i0 = int(rng.choice(np.flatnonzero(valid)))
            out = _unwrap_phase(raw, valid, i0)
            assert out[i0] == raw[i0]
            assert max_abs(out - _unwrap_phase_oracle(raw, valid, i0)) \
                <= 1e-12


def compose(rho, S):
    """The inverse Madelung map rho^{1/2} exp(iS/hbar)."""
    return np.sqrt(rho) * np.exp(1j * S / C.hbar)


class TestPolarCompose:
    """polar_decompose undoes the inverse Madelung map."""

    def test_unit_density_zero_action(self):
        g = sym_grid(1, 64)
        p = polar_decompose(ComplexField(g, compose(np.ones(64),
                                                    np.zeros(64))), C)
        assert np.all(p.rho == 1.0) and np.all(p.S == 0.0)

    def test_plane_wave_from_linear_action(self):
        g = sym_grid(1, 64)
        S = C.hbar * 2 * g.x
        p = polar_decompose(ComplexField(g, compose(np.ones(64), S)), C)
        assert max_abs(p.S - S) < 1e-12

    def test_round_trip_two_gaussian_superposition(self):
        g = sym_grid(12, 2048)
        psi = gaussian_packet(g, C, 1.0, x0=-3.0)
        vals = psi.values + gaussian_packet(g, C, 1.0, x0=3.0).values \
            * np.exp(0.7j)
        psi = ComplexField(g, vals / math.sqrt(
            np.trapezoid(np.abs(vals) ** 2, dx=g.dx)))
        p = polar_decompose(psi, C)
        out = compose(p.rho, p.S)
        # identity up to a global phase on above-threshold points
        i0 = int(np.argmax(p.rho))
        phase = psi.values[i0] / out[i0]
        err = (out * phase - psi.values)[p.valid]
        assert max_abs(err) < 1e-10


# local fields --------------------------------------------------------------

class TestProbabilityCurrent:
    def test_real_gaussian_zero_current(self):
        g = sym_grid(8, 1024)
        J = probability_current(gaussian_packet(g, C, 1.0), C)
        assert max_abs(J) < 1e-12

    def test_plane_wave_uniform_current(self):
        g = sym_grid(1, 2048)
        J = probability_current(ComplexField(g, np.exp(2j * g.x)), C)
        assert max_abs(J - 2.0) < 1e-5

    def test_boosted_gaussian_center_value(self):
        g = sym_grid(4, 1024)
        psi = gaussian_packet(g, C, sigma0=0.5, p0=3.0)
        J = probability_current(psi, C)
        i0 = np.argmin(np.abs(g.x))
        rho0 = abs(psi.values[i0]) ** 2
        assert J[i0] == pytest.approx(3.0 * rho0, rel=1e-6)


class TestVelocityField:
    def test_real_gaussian_zero_velocity(self):
        g = sym_grid(8, 1024)
        vf = velocity_field(gaussian_packet(g, C, 1.0), C)
        assert max_abs(vf.v[vf.valid]) < 1e-10

    def test_plane_wave_uniform_velocity(self):
        g = sym_grid(1, 2048)
        vf = velocity_field(ComplexField(g, np.exp(2j * g.x)), C)
        assert max_abs(vf.v[vf.valid] - 2.0) < 1e-5

    def test_superposition_velocity_antisymmetric(self):
        # symmetric zero-momentum pair, evolved briefly so v is nonzero
        from qstream import PropagatorConfig, propagate
        g = sym_grid(16, 1024)
        vals = (gaussian_packet(g, C, 1.0, x0=-3.0).values
                + gaussian_packet(g, C, 1.0, x0=3.0).values)
        psi = ComplexField(g, vals / math.sqrt(
            np.trapezoid(np.abs(vals) ** 2, dx=g.dx)))
        vf0 = velocity_field(psi, C)
        v0 = np.where(vf0.valid, vf0.v, 0.0)
        assert max_abs(v0 + v0[::-1]) < 1e-8
        run = propagate(psi, PropagatorConfig(dt=1e-3), 0.5,
                        snapshot_every=500)
        final = run.snapshots[-1]
        vf = velocity_field(final, C)
        rho = np.abs(final.values) ** 2
        bulk = vf.valid & (rho > 1e-6 * rho.max())
        v = np.where(bulk, vf.v, 0.0)
        assert max_abs(v + v[::-1]) < 1e-8

    def test_matches_action_gradient(self):
        g = sym_grid(6, 2048)
        psi = gaussian_packet(g, C, sigma0=0.8, p0=1.5)
        vf = velocity_field(psi, C)
        p = polar_decompose(psi, C)
        dS = derivative(p.S, g.dx) / C.mass
        mask = p.valid & vf.valid
        assert max_abs((vf.v - dS)[mask]) < 1e-6

    def test_nodes_flagged_invalid(self):
        g = sym_grid(1, 64)
        vals = np.ones(64, dtype=complex)
        vals[30:34] = 0.0
        vf = velocity_field(ComplexField(g, vals), C)
        assert not vf.valid[31]
        assert np.isnan(vf.v[31])


class TestQuantumPotential:
    def test_plane_wave_zero(self):
        g = sym_grid(1, 512)
        Q = quantum_potential(ComplexField(g, np.exp(2j * g.x)), C)
        assert max_abs(Q) < 1e-8

    def test_oscillator_ground_state_constant_total(self):
        # sigma^2 = 1/2 ground state: Q(x) + x^2/2 = 1/2 pointwise
        g = sym_grid(8, 2048)
        psi = gaussian_packet(g, C, sigma0=math.sqrt(0.5))
        Q = quantum_potential(psi, C)
        interior = np.abs(g.x) < 4.0
        total = Q[interior] + 0.5 * g.x[interior] ** 2
        assert max_abs(total - 0.5) < 1e-6

    def test_center_value_second_order_refinement(self):
        # Q(0) = hbar^2 / (8 m sigma0^4) * (1 - 0) ... closed form for a
        # Gaussian: Q(x) = (hbar^2/(4 m sigma^2)) (1 - x^2/(2 sigma^2))
        sigma = 1.0
        exact = C.hbar ** 2 / (4 * C.mass * sigma ** 2)
        errs = []
        for n in (256, 512):
            g = sym_grid(8, n + 1)
            Q = quantum_potential(gaussian_packet(g, C, sigma), C)
            i0 = np.argmin(np.abs(g.x))
            errs.append(abs(Q[i0] - exact))
        # stencil is 4th order; require at least the advertised 2nd order
        assert errs[0] / errs[1] > 4.0
        assert errs[1] < 1e-8


class TestDerivativeStencils:
    def test_first_derivative_fourth_order_interior(self):
        errs = []
        for n in (256, 512):
            g = sym_grid(2, n + 1)
            d = derivative(np.sin(g.x), g.dx)
            errs.append(max_abs((d - np.cos(g.x))[4:-4]))
        assert errs[0] / errs[1] > 14.0

    def test_second_derivative_fourth_order_interior(self):
        errs = []
        for n in (128, 256):
            g = sym_grid(2, n + 1)
            d = derivative(np.sin(g.x), g.dx, order=2)
            errs.append(max_abs((d + np.sin(g.x))[4:-4]))
        assert errs[0] / errs[1] > 14.0
        assert errs[1] < 1e-8

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            derivative(np.zeros(16), 0.1, order=3)


class TestNorm:
    def test_unit_gaussian(self):
        g = sym_grid(12, 2048)
        assert norm(gaussian_packet(g, C, 1.0)) == pytest.approx(1.0,
                                                                 abs=1e-10)

    def test_zero_field(self):
        g = sym_grid(1, 64)
        assert norm(ComplexField(g, np.zeros(64, dtype=complex))) == 0.0

    def test_two_distant_gaussians(self):
        # centers 10 sigma apart: residual overlap 2 e^{-12.5} ~ 7.5e-6
        g = sym_grid(25, 4096)
        vals = (gaussian_packet(g, C, 1.0, x0=-5.0).values
                + gaussian_packet(g, C, 1.0, x0=5.0).values)
        assert norm(ComplexField(g, vals)) == pytest.approx(2.0, abs=1e-5)


class TestExpectationEnergy:
    """<T> + <V> of Gaussian states by propagators.physical_energy."""

    HARMONIC = PropagatorConfig(potential=PotentialSpec("harmonic",
                                                        omega0=1.0))

    def test_oscillator_ground_state(self):
        g = sym_grid(8, 1024)
        psi = gaussian_packet(g, C, sigma0=math.sqrt(0.5))
        assert physical_energy(psi, self.HARMONIC) == pytest.approx(0.5,
                                                                     abs=1e-4)

    def test_boosted_broad_gaussian(self):
        g = sym_grid(30, 4096)
        sigma = 2.0
        psi = gaussian_packet(g, C, sigma0=sigma, p0=2.0)
        E = physical_energy(psi, PropagatorConfig())
        assert E == pytest.approx(2.0 + 1.0 / (8 * sigma ** 2), rel=1e-8)

    def test_displaced_coherent_state(self):
        g = sym_grid(8, 1024)
        psi = gaussian_packet(g, C, sigma0=math.sqrt(0.5), x0=1.0)
        assert physical_energy(psi, self.HARMONIC) == pytest.approx(1.0,
                                                                     abs=1e-4)


class TestNodeMask:
    def test_threshold_relative_to_peak(self):
        rho = np.array([1.0, 1e-13, 0.5, 0.0])
        assert node_mask(rho).tolist() == [True, False, True, False]

    def test_all_zero(self):
        assert not node_mask(np.zeros(5)).any()


class TestSnapshotSerialization:
    def test_round_trip_columns(self, tmp_path):
        g = sym_grid(8, 256)
        psi = gaussian_packet(g, C, 1.0, p0=0.5)
        path = tmp_path / "snap.txt"
        write_snapshot(path, psi, C)
        lines = path.read_text().splitlines()
        header = [ln for ln in lines if "=" in ln]
        assert any(ln.startswith("n_points = 256") for ln in header)
        rows = [ln for ln in lines if "=" not in ln and not ln.startswith("#")]
        assert len(rows) == 256
        cols = np.array([[float(v) for v in r.split()] for r in rows])
        assert cols.shape == (256, 7)
        assert np.allclose(cols[:, 0], g.x)
        assert np.allclose(cols[:, 1] + 1j * cols[:, 2], psi.values)
        assert np.allclose(cols[:, 3], np.abs(psi.values) ** 2)

    def test_invalid_points_written_as_nan(self, tmp_path):
        g = sym_grid(1, 64)
        vals = np.ones(64, dtype=complex)
        vals[10] = 0.0
        path = tmp_path / "snap.txt"
        write_snapshot(path, ComplexField(g, vals), C)
        rows = [ln for ln in path.read_text().splitlines()
                if "=" not in ln and not ln.startswith("#")]
        assert "nan" in rows[10]

    def test_format_rows_is_float_repr_per_value(self):
        a = np.array([0.1, -0.0, np.nan, 1e-300])
        b = np.arange(8.0).reshape(4, 2) / 3
        assert format_rows(a, b) == [
            "  ".join(repr(float(v)) for v in (a[i], *b[i])) for i in range(4)]


# a value and three more per row: CHUNK_VALUES // 4 rows per chunk
ROWS = CHUNK_VALUES // 4


@pytest.mark.parametrize("n_rows", [0, 1, ROWS - 1, ROWS, ROWS + 1,
                                    2 * ROWS + 1])
def test_chunked_rows_equal_the_whole_table(n_rows):
    a = np.random.default_rng(n_rows).normal(size=n_rows) * 1e3
    b = np.arange(3.0 * n_rows).reshape(n_rows, 3) / 7
    out = io.StringIO()
    write_rows(out, a, b)
    whole = "\n".join(format_rows(a, b)) + "\n" if n_rows else ""
    assert out.getvalue() == whole


def test_a_row_wider_than_the_budget_is_a_chunk_of_its_own():
    rng = np.random.default_rng(7)
    a = rng.normal(size=3)
    b = rng.normal(size=(3, CHUNK_VALUES)) * 1e-7
    out = io.StringIO()
    write_rows(out, a, b)
    assert out.getvalue() == "\n".join(format_rows(a, b)) + "\n"


def test_write_rows_takes_float64_only():
    with pytest.raises(TypeError):
        write_rows(io.StringIO(), np.arange(REPR_BELOW))


def _formatted(table):
    """(write_rows text, format_rows text) of a table."""
    out = io.StringIO()
    write_rows(out, table)
    return out.getvalue(), "\n".join(format_rows(table)) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_write_rows_is_repr_of_any_float64(patterns):
    # repeated up to REPR_BELOW values, so the chunk is not left to repr
    bits = np.resize(np.array(patterns, dtype=np.uint64), REPR_BELOW)
    got, want = _formatted(bits.view(np.float64).reshape(-1, 4))
    assert got == want


def test_write_rows_is_repr_on_the_hard_cases():
    values = [2.0 ** e for e in range(-1074, 1024)]
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    # subnormals with tiny mantissas and around the smallest normal
    values += list(np.arange(1, 1000, dtype=np.uint64).view(np.float64))
    values += list((np.uint64(2 ** 52) + np.arange(-500, 500).astype(np.uint64))
                   .view(np.float64))
    values += [float(2 ** 53 + i) for i in range(-100, 101)]
    values += [1e16 + i for i in range(-100, 101)]
    values += [0.0, np.inf, np.nan, np.copysign(np.nan, -1.0)]
    values = np.array(values)
    got, want = _formatted(np.concatenate([values, -values]).reshape(-1, 2))
    assert got == want


class _Discard:
    def write(self, text):
        pass


def test_write_rows_memory_is_one_chunk_of_values():
    table = np.random.default_rng(3).normal(size=(100, 2000))
    write_rows(_Discard(), table[:3])  # build the formatter's tables first
    tracemalloc.start()
    try:
        write_rows(_Discard(), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two rows (4,000 values) at a time take about 0.4 MB; all 100 rows
    # at once took 12 MiB
    assert peak < 2 ** 20


def test_kinetic_energy_plane_wave_mode():
    # exact FFT mode of the periodic box: T = hbar^2 k^2 / 2m per unit norm
    n = 256
    g = GridSpec(0.0, 4 * np.pi * (n - 1) / n, n)
    k = 2.0
    psi = ComplexField(g, np.exp(1j * k * g.x) / math.sqrt(4 * np.pi))
    assert kinetic_energy(psi, C) == pytest.approx(
        0.5 * k ** 2 * norm(psi), rel=1e-10)


def test_position_spread_gaussian():
    g = sym_grid(12, 2048)
    assert position_spread(gaussian_packet(g, C, 1.3)) == pytest.approx(
        1.3, rel=1e-8)
