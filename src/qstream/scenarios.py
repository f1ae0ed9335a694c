"""Named scenarios, the line-oriented config grammar, and run orchestration.

Configs are plain text, one assignment per line::

    section.key = value        # trailing comments allowed

Unknown sections or keys are rejected (no silent typos).  Lengths in
optics scenarios accept unit suffixes (m, mm, um, nm) and are stored in
metres; matter-wave scenarios are dimensionless.

`scenario.kind` picks the scenario type, `MatterScenario` (matter_wave) or
`OpticsScenario` (optics); each type carries its own schema, validation and
run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import re
import resource
import time as _time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import fields as qf
from . import optics as qo
from . import propagators as qp
from . import trajectories as qt
from .errors import ParseError, QStreamError, ValidationError
from .fields import ComplexField, GridSpec, PhysicalConstants
from .optics import OpticalScene, SlitSpec
from .propagators import PotentialSpec, PropagatorConfig

OUT_DIR_ENV = "QSTREAM_OUT_DIR"

_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}

# Work bounds checked at validation: a run far larger than any catalog entry
# fails with exit 2 before it starts, instead of running for days or dying
# of a MemoryError.  Matter work is grid points x time steps, 76x that of
# fig2c (32768 points x 4000 steps), the largest catalog entry.  Optics work
# is z planes x (grid points + source points), 120x that of the catalog's
# two-slit scenes (31 planes x about 2640 points).
MAX_MATTER_WORK = 1e10
MAX_OPTICS_WORK = 1e7
# Count bounds, checked at validation too: 500x the catalog's 20 trajectories
# and 250x its 40 photon paths.
MAX_TRAJECTORIES = 10_000
MAX_PATHS = 10_000
# Memory bounds, checked at validation too.  Trajectory points are
# trajectories x mesh times, 83x those of kostin-relaxation (20 x 6001), the
# catalog maximum.  Path points are paths x (z_last - z_start) / ds, 167x
# those of the two-slit scenes (40 x 150).  Series rows are the states a
# matter run records, 999x those of fig2a and fig3-superposition (1001);
# the run holds them in five float64 columns, 40 B per row, so 40 MB at the
# bound.  Window points are grid.n_points x the frames the trajectory march
# holds at once, about dt_traj / (state spacing) + 3 frames of 26 B per
# point, 76x those of fig2c (32768 points x 4 frames), so about 0.3 GB.  An
# optics run holds the (Sx, Sz, U) lattice, z planes x grid.n_points at
# 24 B a point, which MAX_OPTICS_WORK bounds to about 240 MB; each plane's
# transform and fields are freed once that plane is written.
MAX_TRAJECTORY_POINTS = 1e7
MAX_PATH_POINTS = 1e6
MAX_SERIES_ROWS = 1e6
MAX_WINDOW_POINTS = 1e7

# value converters ---------------------------------------------------------


def _conv_float(raw, key):
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(key, f"not a number: {raw!r}")
    if not math.isfinite(value):
        raise ValidationError(key, f"not a finite number: {raw!r}")
    return value


def _conv_int(raw, key):
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(key, f"not an integer: {raw!r}")


def _conv_str(raw, key):
    return raw.strip()


_LENGTH_RE = re.compile(r"^([-+0-9.eE]+)\s*(m|mm|um|nm)?$")


def _conv_length(raw, key):
    m = _LENGTH_RE.match(raw.strip())
    if not m:
        raise ValidationError(key, f"not a length: {raw!r}")
    return _conv_float(m.group(1), key) * _UNITS[m.group(2) or "m"]


def _length_tokens(raw, key):
    """Split `0.5 3 8` or `0.3 mm 2.35 mm` into metre values (a unit token
    applies to the number before it)."""
    tokens = raw.split()
    values, pending = [], None
    for tok in tokens:
        if tok in _UNITS:
            if pending is None:
                raise ValidationError(key, f"dangling unit {tok!r}")
            values.append(pending * _UNITS[tok])
            pending = None
        else:
            if pending is not None:
                values.append(pending)
            m = _LENGTH_RE.match(tok)
            if not m:
                raise ValidationError(key, f"not a length: {tok!r}")
            value = _conv_float(m.group(1), key)
            if m.group(2):
                values.append(value * _UNITS[m.group(2)])
            else:
                pending = value
    if pending is not None:
        values.append(pending)
    return values


def _conv_zplanes(raw, key):
    """Either an explicit list of planes or `start : stop : count`."""
    if ":" in raw:
        parts = [p.strip() for p in raw.split(":")]
        if len(parts) != 3:
            raise ValidationError(key, "linspace form is start : stop : count")
        lo = _conv_length(parts[0], key)
        hi = _conv_length(parts[1], key)
        n = _conv_int(parts[2], key)
        # bounded here, before linspace allocates the planes
        if n < 2 or hi <= lo or n > MAX_OPTICS_WORK:
            raise ValidationError(key, "need stop > start and count >= 2 "
                                       f"and <= {MAX_OPTICS_WORK:g}")
        return tuple(np.linspace(lo, hi, n))
    values = _length_tokens(raw, key)
    if not values:
        raise ValidationError(key, "no planes given")
    return tuple(values)


def _conv_words(raw, key):
    return tuple(w for w in raw.replace(",", " ").split() if w)


# schema -------------------------------------------------------------------

_MATTER_SCHEMA = {
    "scenario": {"name": _conv_str, "kind": _conv_str, "notes": _conv_str},
    "model": {"type": _conv_str, "gamma": _conv_float,
              "hbar": _conv_float, "mass": _conv_float},
    "potential": {"kind": _conv_str, "omega0": _conv_float,
                  "center": _conv_float},
    "grid": {"x_min": _conv_float, "x_max": _conv_float, "n_points": _conv_int},
    "time": {"dt": _conv_float, "t0": _conv_float, "t_final": _conv_float,
             "snapshot_every": _conv_int},
    "packet*": {"sigma0": _conv_float, "x0": _conv_float, "p0": _conv_float,
                "weight": _conv_float, "phase": _conv_float},
    "ensemble": {"n_trajectories": _conv_int, "scheme": _conv_str,
                 "dt_traj": _conv_float},
    "checks": {"required": _conv_words, "norm_tol": _conv_float,
               "tube_tol": _conv_float},
}

_OPTICS_SCHEMA = {
    "scenario": {"name": _conv_str, "kind": _conv_str, "notes": _conv_str},
    "optics": {"wavelength": _conv_length, "z_planes": _conv_zplanes},
    "grid": {"x_min": _conv_length, "x_max": _conv_length,
             "n_points": _conv_int},
    "slit*": {"sigma": _conv_length, "center": _conv_length,
              "window": _conv_length, "window_sigmas": _conv_float},
    "paths": {"n_paths": _conv_int, "z_start": _conv_length,
              "ds": _conv_length},
    "quadrature": {"source_dx": _conv_length},
    "checks": {"required": _conv_words},
}

_STAR = re.compile(r"^(packet|slit)(\d+)$")


def _schema_keys(schema, section):
    m = _STAR.match(section)
    if m and f"{m.group(1)}*" in schema:
        return schema[f"{m.group(1)}*"]
    return schema.get(section)


MODELS = ("standard", "caldirola_kanai", "kostin")
SCHEMES = ("quantile", "equal_spacing")


def _require(entries, section, key):
    if (section, key) not in entries:
        raise ValidationError(f"{section}.{key}", "required key missing")
    return entries[(section, key)]


def _numbered_sections(order, prefix):
    seen = []
    for section, _ in order:
        m = _STAR.match(section)
        if m and m.group(1) == prefix and section not in seen:
            seen.append(section)
    return sorted(seen, key=lambda s: int(_STAR.match(s).group(2)))


def _known_check_names(names, allowed):
    for n in names:
        if n not in allowed:
            raise ValidationError("checks.required",
                                  f"unknown check {n!r}; allowed: {allowed}")


def _check_work(key, work, bound):
    """Reject a scenario whose work() exceeds bound, or cannot be computed
    (a count beyond the float range, a source spacing that underflows)."""
    try:
        ok = work() <= bound
    except (OverflowError, ValueError):
        ok = False
    if not ok:
        raise ValidationError(key, f"exceeds the bound {bound:g}")


@dataclass(frozen=True)
class _Scenario:
    """Validated scenario: canonical entries plus built domain objects."""

    name: str
    entries: tuple  # ((section, key, value), ...) in canonical order
    notes: str
    checks: dict

    def to_text(self) -> str:
        lines = []
        for section, key, value in self.entries:
            if isinstance(value, tuple):
                value = " ".join(repr(float(v)) if isinstance(v, float)
                                 else str(v) for v in value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{section}.{key} = {value}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


@dataclass(frozen=True)
class MatterScenario(_Scenario):
    """One wavepacket propagation plus an optional trajectory ensemble."""

    kind: ClassVar[str] = "matter_wave"
    schema: ClassVar[dict] = _MATTER_SCHEMA
    check_names: ClassVar[tuple] = ("norm_drift", "non_crossing", "tube")
    model: str
    gamma: float
    constants: PhysicalConstants
    potential: PotentialSpec
    grid: GridSpec
    dt: float
    t0: float
    t_final: float
    snapshot_every: int
    packets: tuple
    ensemble: dict

    @classmethod
    def _build(cls, name, notes, canonical, r, order):
        model = r.get(("model", "type"), "standard")
        if model not in MODELS:
            raise ValidationError("model.type", f"must be one of {MODELS}")
        gamma = r.get(("model", "gamma"), 0.0)
        if gamma < 0:
            raise ValidationError("model.gamma", "must be >= 0")
        try:
            constants = PhysicalConstants(hbar=r.get(("model", "hbar"), 1.0),
                                          mass=r.get(("model", "mass"), 1.0))
        except ValueError as exc:
            raise ValidationError("model", str(exc))
        pkind = r.get(("potential", "kind"), "free")
        if pkind not in ("free", "harmonic"):
            raise ValidationError("potential.kind", "must be free or harmonic")
        try:
            potential = PotentialSpec(
                pkind, omega0=r.get(("potential", "omega0"), 0.0),
                center=r.get(("potential", "center"), 0.0))
        except ValueError as exc:
            raise ValidationError("potential", str(exc))
        try:
            grid = GridSpec(_require(r, "grid", "x_min"),
                            _require(r, "grid", "x_max"),
                            _require(r, "grid", "n_points"))
        except ValueError as exc:
            raise ValidationError("grid", str(exc))
        dt = _require(r, "time", "dt")
        t_final = _require(r, "time", "t_final")
        t0 = r.get(("time", "t0"), 0.0)
        snapshot_every = r.get(("time", "snapshot_every"), 1)
        if dt <= 0 or snapshot_every < 1 or t_final < t0:
            raise ValidationError("time", "need dt > 0, snapshot_every >= 1, "
                                          "t_final >= t0")
        _check_work("grid.n_points * time steps",
                    lambda: grid.n_points * max((t_final - t0) / dt, 1),
                    MAX_MATTER_WORK)
        try:
            n_steps = qp.whole_steps(t0, t_final, dt)
        except ValueError as exc:
            raise ValidationError("time", str(exc))
        # the series records every snapshot_every-th step, the first and the
        # last
        _check_work("time steps / time.snapshot_every",
                    lambda: -(-n_steps // snapshot_every) + 1,
                    MAX_SERIES_ROWS)
        packets = []
        for section in _numbered_sections(order, "packet"):
            packets.append({
                "sigma0": _require(r, section, "sigma0"),
                "x0": r.get((section, "x0"), 0.0),
                "p0": r.get((section, "p0"), 0.0),
                "weight": r.get((section, "weight"), 1.0),
                "phase": r.get((section, "phase"), 0.0),
            })
            if packets[-1]["sigma0"] <= 0:
                raise ValidationError(f"{section}.sigma0", "must be > 0")
        if not packets:
            raise ValidationError("packet1.sigma0",
                                  "at least one packet required")
        scheme = r.get(("ensemble", "scheme"), "quantile")
        if scheme not in SCHEMES:
            raise ValidationError("ensemble.scheme",
                                  f"must be one of {SCHEMES}")
        ensemble = {
            "n_trajectories": r.get(("ensemble", "n_trajectories"), 0),
            "scheme": scheme,
            "dt_traj": r.get(("ensemble", "dt_traj"), 10.0 * dt),
        }
        if (ensemble["n_trajectories"] < 0 or ensemble["n_trajectories"] == 1
                or ensemble["n_trajectories"] > MAX_TRAJECTORIES):
            raise ValidationError("ensemble.n_trajectories",
                                  f"must be 0 or >= 2 and "
                                  f"<= {MAX_TRAJECTORIES}")
        if ensemble["dt_traj"] <= 0:
            raise ValidationError("ensemble.dt_traj", "must be > 0")
        if ensemble["n_trajectories"]:
            dt_traj = ensemble["dt_traj"]
            _check_work("ensemble.n_trajectories * mesh times",
                        lambda: ensemble["n_trajectories"] * (
                            (t_final - t0) / dt_traj + 1),
                        MAX_TRAJECTORY_POINTS)
            try:
                qp.whole_steps(t0, t_final, dt_traj)
            except ValueError as exc:
                raise ValidationError("ensemble.dt_traj", str(exc))
            # the widest gap between the states a run stores
            spacing = min(snapshot_every, n_steps) * dt
            try:
                qt.check_frame_gap(spacing, dt_traj)
            except ValueError as exc:
                raise ValidationError("time.snapshot_every", str(exc))
            if n_steps:  # else the run stores one state and marches nothing
                _check_work("grid.n_points * window frames",
                            lambda: grid.n_points * (
                                math.ceil(dt_traj / spacing) + 3),
                            MAX_WINDOW_POINTS)
        checks = {
            "required": r.get(("checks", "required"), ()),
            "norm_tol": r.get(("checks", "norm_tol"), 1e-8),
            "tube_tol": r.get(("checks", "tube_tol"), 1e-3),
        }
        for key in ("norm_tol", "tube_tol"):
            if checks[key] <= 0:
                raise ValidationError(f"checks.{key}", "must be > 0")
        _known_check_names(checks["required"], cls.check_names)
        return cls(name=name, entries=canonical, notes=notes, checks=checks,
                   model=model, gamma=gamma, constants=constants,
                   potential=potential, grid=grid, dt=dt, t0=t0,
                   t_final=t_final, snapshot_every=snapshot_every,
                   packets=tuple(packets), ensemble=ensemble)

    def _bundle_stream(self, psi0, config) -> qt.BundleStream:
        """The ensemble sampled from psi0, ready to march through the
        states of the run."""
        ens = qt.sample_initial_positions(
            np.abs(psi0.values) ** 2, self.grid,
            self.ensemble["n_trajectories"], scheme=self.ensemble["scheme"])
        t_end = qp.state_time(self.t0, self.dt, qp.whole_steps(
            self.t0, self.t_final, self.dt))
        return qt.BundleStream(ens, self.grid, config,
                               self.ensemble["dt_traj"], (self.t0, t_end))

    def _run(self, out_dir, required, manifest, files):
        feed = None  # hands the states to the trajectory stage

        def fed_s():
            return 0.0 if feed is None else feed.seconds

        with _stage(manifest, "propagate", lambda: -fed_s()) as st:
            psi0 = initial_state(self)
            config = propagator_config(self)
            n = self.grid.n_points
            prime = qp.largest_prime_factor(n)
            if prime > max(n / 8, 11):
                # pocketfft has dedicated passes for the primes up to 11;
                # a larger factor above n / 8 puts every transform on its
                # slow path, which fft_shape cannot block: a split step
                # took 3.0-4.5 ms at n = 8198 = 2 * 4099 against
                # 0.24-0.40 ms at 8192 (2-core x86-64 VM, numpy 2.4.6)
                # (logging is imported here: at start-up it costs ~6 ms)
                import logging
                logging.getLogger(__name__).warning(
                    "grid.n_points = %d has the prime factor %d: each split "
                    "step runs on numpy.fft's slow path for such lengths",
                    n, prime)
            if self.ensemble["n_trajectories"] and self.t_final > self.t0:
                # the ensemble is marched while the states are produced
                feed = _Deferred(lambda psi: self._bundle_stream(psi, config))
            run = qp.propagate(psi0, config, self.t_final,
                               snapshot_every=self.snapshot_every,
                               consumers=() if feed is None else (feed,))
            st["steps"] = run.steps
            st["fft_shape"] = list(qp.fft_shape(n))
            st["fft_largest_prime"] = prime
            p = os.path.join(out_dir, "series.txt")
            run.write_series(p)
            files.append(p)
            for tag, snap in (("initial", run.snapshots[0]),
                              ("final", run.snapshots[-1])):
                p = os.path.join(out_dir, f"snapshot_{tag}.txt")
                qf.write_snapshot(p, snap, self.constants, self.model)
                files.append(p)
            manifest["norm_drift"] = float(np.max(np.abs(run.norms - 1.0)))
            manifest["energy_initial"] = float(run.energies[0])
            manifest["energy_final"] = float(run.energies[-1])

        _record_check(manifest, "norm_drift", manifest["norm_drift"],
                      self.checks["norm_tol"],
                      manifest["norm_drift"] < self.checks["norm_tol"],
                      required)

        if feed is not None:
            with _stage(manifest, "trajectories", fed_s) as st:
                bundle = feed.finish()
                st["mesh_steps"] = len(bundle.times) - 1
                st["fallback_rows"] = bundle.fallback_rows
                st["halvings"] = bundle.halvings
                p = os.path.join(out_dir, "bundle.txt")
                qt.write_bundle(p, bundle, metadata={
                    "scenario": self.name, "model": self.model,
                    "scheme": self.ensemble["scheme"]})
                files.append(p)
                report = qt.check_non_crossing(bundle)
                manifest["non_crossing"] = {
                    "ok": bool(report.ok), "min_gap": float(report.min_gap)}
                manifest["trajectory_errors"] = [list(e)
                                                 for e in bundle.errors]
                _record_check(manifest, "non_crossing",
                              float(report.min_gap), 0.0,
                              bool(report.ok) and not bundle.errors, required)
                if not bundle.errors:
                    tubes = bundle.tubes
                    dev = float(np.max(np.abs(tubes - tubes[:, :1])))
                    _record_check(manifest, "tube", dev,
                                  self.checks["tube_tol"],
                                  dev < self.checks["tube_tol"], required)


@dataclass(frozen=True)
class OpticsScenario(_Scenario):
    """Fresnel planes behind a slit aperture plus optional photon paths."""

    kind: ClassVar[str] = "optics"
    schema: ClassVar[dict] = _OPTICS_SCHEMA
    check_names: ClassVar[tuple] = ("paths_non_crossing",)
    scene: OpticalScene
    paths: dict
    source_dx: float

    @classmethod
    def _build(cls, name, notes, canonical, r, order):
        wavelength = _require(r, "optics", "wavelength")
        z_planes = _require(r, "optics", "z_planes")
        try:
            grid = GridSpec(_require(r, "grid", "x_min"),
                            _require(r, "grid", "x_max"),
                            _require(r, "grid", "n_points"))
        except ValueError as exc:
            raise ValidationError("grid", str(exc))
        slits = []
        for section in _numbered_sections(order, "slit"):
            sigma = _require(r, section, "sigma")
            window = r.get((section, "window"))
            wsig = r.get((section, "window_sigmas"))
            if window is not None and wsig is not None:
                raise ValidationError(f"{section}.window",
                                      "give window or window_sigmas, not both")
            if wsig is not None:
                window = wsig * sigma
            try:
                slits.append(SlitSpec(sigma, r.get((section, "center"), 0.0),
                                      window))
            except ValueError as exc:
                raise ValidationError(section, str(exc))
        if not slits:
            raise ValidationError("slit1.sigma", "at least one slit required")
        try:
            scene = OpticalScene(tuple(slits), wavelength, grid, z_planes)
        except ValueError as exc:
            raise ValidationError("optics", str(exc))
        paths = {
            "n_paths": r.get(("paths", "n_paths"), 0),
            "z_start": r.get(("paths", "z_start"), z_planes[0]),
            "ds": r.get(("paths", "ds")),
        }
        if not 0 <= paths["n_paths"] <= MAX_PATHS:
            raise ValidationError("paths.n_paths",
                                  f"must be >= 0 and <= {MAX_PATHS}")
        # each slit launches the same number of paths, at least 2
        n_slits = len(scene.slits)
        if paths["n_paths"] and (paths["n_paths"] % n_slits
                                 or paths["n_paths"] < 2 * n_slits):
            raise ValidationError(
                "paths.n_paths", f"must be 0 or a multiple of the slit count "
                                 f"({n_slits}) with at least 2 per slit")
        if not scene.z_planes[0] <= paths["z_start"] <= scene.z_planes[-1]:
            raise ValidationError(
                "paths.z_start", "must lie between the first and last z plane")
        if paths["ds"] is not None and paths["ds"] <= 0:
            raise ValidationError("paths.ds", "must be > 0")
        if paths["n_paths"]:
            z = scene.z_planes
            ds = paths["ds"] or qo.default_ds(scene, (z[0], z[-1]))
            _check_work("paths.n_paths * path steps",
                        lambda: paths["n_paths"] * (z[-1] - paths["z_start"])
                        / ds, MAX_PATH_POINTS)
        source_dx = r.get(("quadrature", "source_dx"))
        if source_dx is not None and source_dx <= 0:
            raise ValidationError("quadrature.source_dx", "must be > 0")
        _check_work("z planes * (grid.n_points + source points)",
                    lambda: len(scene.z_planes) * (
                        grid.n_points + qo.source_points(scene, source_dx)[2]),
                    MAX_OPTICS_WORK)
        checks = {"required": r.get(("checks", "required"), ())}
        _known_check_names(checks["required"], cls.check_names)
        return cls(name=name, entries=canonical, notes=notes, checks=checks,
                   scene=scene, paths=paths, source_dx=source_dx)

    def _run(self, out_dir, required, manifest, files):
        scene = self.scene
        with _stage(manifest, "fresnel") as st:
            pf = qo.PoyntingField(scene)
            st["planes"] = len(scene.z_planes)
            st["lattice_mib"] = pf.nbytes / 2 ** 20

            def write_plane(i, z, psi, psi_x, psi_z):
                kx = qo.transverse_momentum(pf.Sx[i], pf.Sz[i], pf.U[i])
                p = os.path.join(out_dir, f"plane_{i:03d}.txt")
                qo.write_plane_profile(p, scene, z, psi, pf.U[i], pf.Sx[i],
                                       pf.Sz[i], kx)
                files.append(p)

            # add_plane fills row i of the lattice before write_plane reads it
            qo.fresnel_propagate(scene, source_dx=self.source_dx,
                                 consumers=(pf.add_plane, write_plane))

        n_paths = self.paths["n_paths"]
        if n_paths > 0:
            with _stage(manifest, "paths") as st:
                x0s = _launch_positions(scene, n_paths)
                z0 = self.paths["z_start"]
                paths = qo.photon_path_bundle(x0s, z0, pf,
                                              ds=self.paths["ds"])
                st["stagnated_paths"] = sum(p.stagnated for p in paths)
                # ended across the side or the near edge of the field, not
                # past its last plane
                (xlo, xhi), zlo = pf.x_bounds, pf.z_bounds[0]
                st["escaped_paths"] = sum(
                    not (xlo <= p.x[-1] <= xhi and zlo <= p.z[-1])
                    for p in paths)
                p = os.path.join(out_dir, "paths.txt")
                qo.write_paths(p, paths, metadata={"scenario": self.name,
                                                   "z_start": z0})
                files.append(p)
                ok, min_gap = _path_non_crossing(paths, z0,
                                                 scene.z_planes[-1])
                manifest["paths_non_crossing"] = {"ok": ok,
                                                  "min_gap": min_gap}
                _record_check(manifest, "paths_non_crossing", min_gap, 0.0,
                              ok, required)


_KINDS = {cls.kind: cls for cls in (MatterScenario, OpticsScenario)}


def parse_scenario(source: str) -> MatterScenario | OpticsScenario:
    """Parse and validate a scenario config from text."""
    entries = {}
    order = []
    n_assign = 0
    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, "expected `section.key = value`")
        lhs, rhs = line.split("=", 1)
        lhs, rhs = lhs.strip(), rhs.strip()
        if "." not in lhs:
            raise ParseError(lineno, f"key {lhs!r} lacks a section prefix")
        section, key = lhs.split(".", 1)
        if not section or not key or not rhs:
            raise ParseError(lineno, "empty section, key, or value")
        if (section, key) in entries:
            raise ParseError(lineno, f"duplicate key {section}.{key}")
        entries[(section, key)] = rhs
        order.append((section, key))
        n_assign += 1
    if n_assign == 0:
        raise ParseError(1, "empty input")

    cls = _KINDS.get(entries.get(("scenario", "kind")))
    if cls is None:
        raise ValidationError("scenario.kind",
                              f"must be one of {tuple(_KINDS)}")

    resolved = {}
    for section, key in order:
        keys = _schema_keys(cls.schema, section)
        if keys is None:
            raise ValidationError(f"{section}.{key}",
                                  f"unknown section {section!r}")
        if key not in keys:
            raise ValidationError(f"{section}.{key}",
                                  f"unknown key in section {section!r}")
        resolved[(section, key)] = keys[key](entries[(section, key)],
                                             f"{section}.{key}")

    name = _require(resolved, "scenario", "name")
    notes = resolved.get(("scenario", "notes"), "")
    canonical = tuple((s, k, resolved[(s, k)]) for s, k in sorted(order))
    return cls._build(name, notes, canonical, resolved, order)


# built-in catalog ---------------------------------------------------------

_OMEGA0 = 2.0 * math.pi / 10.0          # tau0 = 10
_SIGMA_COH = math.sqrt(1.0 / (2.0 * _OMEGA0))


def _matter_text(name, model, gamma, grid, n_points, dt, t_final,
                 snapshot_every, packets, dt_traj, n_traj=20,
                 norm_tol=None, tube_tol=None, notes=None,
                 potential="harmonic"):
    lines = [
        f"scenario.name = {name}",
        "scenario.kind = matter_wave",
    ]
    if notes:
        lines.append(f"scenario.notes = {notes}")
    lines += [
        f"model.type = {model}",
        f"model.gamma = {gamma!r}",
        f"potential.kind = {potential}",
    ]
    if potential == "harmonic":
        lines.append(f"potential.omega0 = {_OMEGA0!r}")
    lines += [
        f"grid.x_min = {-grid!r}",
        f"grid.x_max = {grid!r}",
        f"grid.n_points = {n_points}",
        f"time.dt = {dt!r}",
        f"time.t_final = {t_final!r}",
        f"time.snapshot_every = {snapshot_every}",
    ]
    for i, p in enumerate(packets, start=1):
        for k, v in p.items():
            lines.append(f"packet{i}.{k} = {v!r}")
    lines += [
        f"ensemble.n_trajectories = {n_traj}",
        "ensemble.scheme = quantile",
        f"ensemble.dt_traj = {dt_traj!r}",
        "checks.required = norm_drift non_crossing",
    ]
    if norm_tol is not None:
        lines.append(f"checks.norm_tol = {norm_tol!r}")
    if tube_tol is not None:
        lines.append(f"checks.tube_tol = {tube_tol!r}")
    return "\n".join(lines) + "\n"


def _optics_text(name, slits, z_planes="0.5 : 8.0 : 31", half_mm=10.0,
                 n_points=1601, n_paths=40, z_start="0.5 m",
                 source_dx_um=8.0, ds="0.05 m", notes=None):
    lines = [
        f"scenario.name = {name}",
        "scenario.kind = optics",
    ]
    if notes:
        lines.append(f"scenario.notes = {notes}")
    lines += [
        "optics.wavelength = 943 nm",
        f"optics.z_planes = {z_planes}",
        f"grid.x_min = -{half_mm!r} mm",
        f"grid.x_max = {half_mm!r} mm",
        f"grid.n_points = {n_points}",
    ]
    for i, s in enumerate(slits, start=1):
        for k, v in s.items():
            suffix = "" if k == "window_sigmas" else " mm"
            lines.append(f"slit{i}.{k} = {v!r}{suffix}")
    lines += [
        f"paths.n_paths = {n_paths}",
        f"paths.z_start = {z_start}",
        f"paths.ds = {ds}",
        f"quadrature.source_dx = {source_dx_um!r} um",
    ]
    if n_paths > 0:
        lines.append("checks.required = paths_non_crossing")
    return "\n".join(lines) + "\n"


def list_scenarios() -> dict:
    """Built-in scenarios: name -> (description, config text)."""
    coh = _SIGMA_COH
    cat = {}
    cat["fig2a"] = (
        "damped harmonic oscillator, gamma = 0.3 omega0 (underdamped)",
        _matter_text("fig2a", "caldirola_kanai", 0.3 * _OMEGA0, 8.0, 2048,
                     1e-3, 40.0, 40, [{"sigma0": coh, "x0": 2.0}], 0.01,
                     tube_tol=0.01))
    cat["fig2b"] = (
        "damped harmonic oscillator, gamma = 2 omega0 (critical regime)",
        _matter_text("fig2b", "caldirola_kanai", 2.0 * _OMEGA0, 8.0, 8192,
                     1e-3, 7.0, 20, [{"sigma0": coh, "x0": 2.0}], 0.005,
                     tube_tol=0.01))
    cat["fig2c"] = (
        "damped harmonic oscillator, gamma = 4 omega0 (overdamped)",
        _matter_text("fig2c", "caldirola_kanai", 4.0 * _OMEGA0, 6.0, 32768,
                     1e-3, 4.0, 40, [{"sigma0": coh, "x0": 2.0}], 0.01,
                     norm_tol=1e-5, tube_tol=0.01))
    cat["fig3-superposition"] = (
        "two-packet superposition in the damped oscillator",
        _matter_text("fig3-superposition", "caldirola_kanai", 0.3 * _OMEGA0,
                     8.0, 2048, 1e-3, 40.0, 40,
                     [{"sigma0": coh, "x0": 2.0},
                      {"sigma0": coh, "x0": -2.0}], 0.01, tube_tol=0.05,
                     notes="initial centers +/-2 and zero relative phase are "
                           "defaults chosen here, not published values"))
    cat["kostin-relaxation"] = (
        "nonlinear friction model relaxing a displaced coherent state",
        _matter_text("kostin-relaxation", "kostin", 0.3 * _OMEGA0, 8.0, 1024,
                     5e-3, 60.0, 20, [{"sigma0": coh, "x0": 1.0}], 0.01))
    cat["oracle-free-gaussian"] = (
        "free Gaussian spreading against the closed-form solution",
        _matter_text("oracle-free-gaussian", "standard", 0.0, 20.0, 2048,
                     1e-3, 4.0, 40, [{"sigma0": 1.0}], 0.01, n_traj=16,
                     potential="free"))
    cat["oracle-harmonic-coherent"] = (
        "coherent state over three periods against the closed form",
        _matter_text("oracle-harmonic-coherent", "standard", 0.0, 8.0, 1024,
                     1e-3, 30.0, 40, [{"sigma0": coh, "x0": 1.0}], 0.01))
    cat["fig4-symmetric"] = (
        "two identical Gaussian slits, 943 nm, centers +/-2.35 mm",
        _optics_text("fig4-symmetric",
                     [{"sigma": 0.3, "center": 2.35},
                      {"sigma": 0.3, "center": -2.35}]))
    cat["fig4-asymmetric"] = (
        "two-slit scene with the published asymmetric fit parameters",
        _optics_text("fig4-asymmetric",
                     [{"sigma": 0.307, "center": 2.335},
                      {"sigma": 0.301, "center": -2.355}]))
    cat["fig4-trunc-1.9"] = (
        "symmetric slits truncated by hard windows at 1.9 sigma",
        _optics_text("fig4-trunc-1.9",
                     [{"sigma": 0.3, "center": 2.35, "window_sigmas": 1.9},
                      {"sigma": 0.3, "center": -2.35, "window_sigmas": 1.9}]))
    cat["fig4-trunc-1.5"] = (
        "symmetric slits truncated by hard windows at 1.5 sigma",
        _optics_text("fig4-trunc-1.5",
                     [{"sigma": 0.3, "center": 2.35, "window_sigmas": 1.5},
                      {"sigma": 0.3, "center": -2.35, "window_sigmas": 1.5}]))
    cat["oracle-gaussian-beam"] = (
        "single Gaussian slit against the closed-form beam width",
        _optics_text("oracle-gaussian-beam", [{"sigma": 0.3, "center": 0.0}],
                     z_planes="0.5 m 3 m 8 m", half_mm=12.0, n_points=1601,
                     n_paths=0, source_dx_um=2.0))
    return cat


def builtin_scenario(name: str) -> MatterScenario | OpticsScenario:
    cat = list_scenarios()
    if name not in cat:
        raise ValidationError("scenario.name",
                              f"unknown built-in scenario {name!r}; "
                              f"known: {sorted(cat)}")
    return parse_scenario(cat[name][1])


# orchestration ------------------------------------------------------------


@dataclass(frozen=True)
class RunArtifacts:
    manifest: dict
    files: tuple
    out_dir: str

    @property
    def ok(self) -> bool:
        return self.manifest["failure_kind"] is None

    @property
    def failure_kind(self):
        return self.manifest["failure_kind"]


def _resolve_out_dir(config, out_dir):
    if out_dir is not None:
        return str(out_dir), "argument"
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return os.path.join(env, config.name), "environment"
    return os.path.join("runs", config.name), "default"


def initial_state(config: MatterScenario) -> ComplexField:
    """Normalized superposition of the configured packets."""
    values = np.zeros(config.grid.n_points, dtype=complex)
    for p in config.packets:
        part = qf.gaussian_packet(config.grid, config.constants,
                                  sigma0=p["sigma0"], x0=p["x0"], p0=p["p0"])
        values += p["weight"] * np.exp(1j * p["phase"]) * part.values
    psi = ComplexField(config.grid, values, config.t0)
    n = qf.norm(psi)
    return ComplexField(config.grid, values / math.sqrt(n), config.t0)


def propagator_config(config: MatterScenario) -> PropagatorConfig:
    t_final = config.t_final if config.model == "caldirola_kanai" else None
    return PropagatorConfig(model=config.model, constants=config.constants,
                            potential=config.potential, gamma=config.gamma,
                            dt=config.dt, t_final=t_final)


# the errors that fail a run as "numeric", in the stage that meets them
_RUN_ERRORS = (QStreamError, ValueError, ArithmeticError, MemoryError)


@contextlib.contextmanager
def _stage(manifest, name, moved_s=lambda: 0.0):
    """Append a running stage entry to the manifest and yield it; it turns
    "ok" when the block completes, and records its wall time and the peak
    memory of the process so far either way.  moved_s() is added to the
    wall time: the seconds of this stage's work done inside another stage,
    or minus those of another stage's work done inside this one."""
    entry = {"name": name, "status": "running", "error": None,
             "wall_time_s": None, "peak_rss_mib": None}
    manifest["stages"].append(entry)
    start = _time.perf_counter()
    try:
        yield entry
    finally:
        entry["wall_time_s"] = _time.perf_counter() - start + moved_s()
        entry["peak_rss_mib"] = _peak_rss_mib()
    entry["status"] = "ok"


class _Deferred:
    """A consumer of a run's states that belongs to a later stage: it is
    built from the first state, its calls are timed (`seconds`), and the
    first run error stops the feed and is raised again by finish(), in the
    later stage, after the propagation stage has written its files."""

    def __init__(self, build):
        self._build, self._consumer, self._error = build, None, None
        self.seconds = 0.0

    def __call__(self, psi) -> None:
        if self._error is not None:
            return
        start = _time.perf_counter()
        try:
            if self._consumer is None:
                self._consumer = self._build(psi)
            self._consumer(psi)
        except _RUN_ERRORS as exc:
            self._error = exc
        self.seconds += _time.perf_counter() - start

    def finish(self):
        if self._error is not None:
            raise self._error
        return self._consumer.finish()


def _peak_rss_mib() -> float:
    """Peak resident memory of this process so far (ru_maxrss, in KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _path_non_crossing(paths, z_lo, z_hi):
    """Resample each path as x(z) on a shared z mesh (paths are monotone in
    z here) and check the transverse ordering never flips."""
    z_common = np.linspace(z_lo, z_hi, 200)
    rows = []
    for p in paths:
        if p.z[-1] < z_hi - 1e-12 or len(p.z) < 2:
            continue
        rows.append(np.interp(z_common, p.z, p.x))
    if len(rows) < 2:
        return True, math.inf
    xs = np.vstack(rows)
    order = np.argsort(xs[:, 0])
    gaps = np.diff(xs[order], axis=0)
    return bool(np.all(gaps > 0)), float(gaps.min())


def _launch_positions(scene, n_paths):
    """Quantile launch positions, n_paths (a multiple of the slit count)
    split evenly across slits, each slit sampled from its own (possibly
    truncated) aperture density."""
    per = n_paths // len(scene.slits)
    out = []
    for slit in scene.slits:
        lo, hi = slit.support()
        fine = GridSpec(lo, hi, 4001)
        rho = slit.amplitude(fine.x) ** 2
        out.append(qt.sample_initial_positions(rho, fine, per).positions)
    return np.sort(np.concatenate(out))


def _record_check(manifest, name, value, threshold, passed, required):
    manifest["checks"].append({
        "name": name, "value": value, "threshold": threshold,
        "passed": bool(passed), "required": name in required})


def run_scenario(config: MatterScenario | OpticsScenario, out_dir=None,
                 required_checks=None) -> RunArtifacts:
    """Run a scenario end to end; the manifest is always written, even on
    partial failure.  required_checks, when given, replaces the config's
    checks.required and must name checks of the scenario's kind
    (ValidationError before anything runs)."""
    if required_checks is not None:
        _known_check_names(required_checks, config.check_names)
    out_dir, out_dir_source = _resolve_out_dir(config, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    required = tuple(required_checks if required_checks is not None
                     else config.checks["required"])
    from . import __version__
    manifest = {
        "name": config.name,
        "kind": config.kind,
        "config_sha256": config.sha256(),
        "version": __version__,
        "out_dir": out_dir,
        "out_dir_source": out_dir_source,
        "notes": config.notes,
        "required_checks": list(required),
        "stages": [],
        "checks": [],
        "failure_kind": None,
        "wall_time_s": None,
    }
    files = []
    start = _time.perf_counter()
    try:
        config._run(out_dir, required, manifest, files)
    except _RUN_ERRORS as exc:
        if manifest["stages"]:
            manifest["stages"][-1]["status"] = "failed"
            manifest["stages"][-1]["error"] = f"{type(exc).__name__}: {exc}"
        manifest["failure_kind"] = "numeric"
    if manifest["failure_kind"] is None:
        recorded = {c["name"] for c in manifest["checks"]}
        for name in required:
            if name not in recorded:
                _record_check(manifest, name, math.nan, math.nan, False,
                              required)
        failed = [c["name"] for c in manifest["checks"]
                  if c["required"] and not c["passed"]]
        if failed:
            manifest["failure_kind"] = "check"
            manifest["failed_checks"] = failed
    manifest["wall_time_s"] = _time.perf_counter() - start
    manifest["peak_rss_mib"] = _peak_rss_mib()
    manifest["versions"] = {"numpy": np.__version__,
                            "python": platform.python_version()}
    manifest["files"] = [os.path.basename(f) for f in files]
    # write a temporary file and rename it over the manifest, so that an
    # interrupted run never leaves a truncated manifest.json behind
    manifest_path = os.path.join(out_dir, "manifest.json")
    tmp_path = f"{manifest_path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_path, manifest_path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    files.append(manifest_path)
    return RunArtifacts(manifest, tuple(files), out_dir)
