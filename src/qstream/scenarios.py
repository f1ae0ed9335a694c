"""Named scenarios, the line-oriented config grammar, and run orchestration.

Configs are plain text, one assignment per line::

    section.key = value        # trailing comments allowed

Unknown sections or keys are rejected (no silent typos).  Lengths in
optics scenarios accept unit suffixes (m, mm, um, nm) and are stored in
metres; matter-wave scenarios are in units hbar = m = 1, with the harmonic
well at x = 0.

`scenario.kind` picks the scenario type, `MatterScenario` (matter_wave) or
`OpticsScenario` (optics); each type carries its own key table, validation
and run.  The table gives each key its converter, its default and the rule
on its value; a type's `_build` checks only the rules that span keys.
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
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import fields as qf
from . import optics as qo
from . import propagators as qp
from . import trajectories as qt
from .errors import (ManifestWriteError, ParseError, QStreamError,
                     ResolutionViolation, ValidationError)
from .fields import ComplexField, GridSpec
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
# Count bounds, checked at validation too: 500x the catalog's 20 trajectories,
# 250x its 40 photon paths, and 64x the 32768 points of fig2c's grid, the
# largest matter grid (a state is 16 B a point).
MAX_TRAJECTORIES = 10_000
MAX_PATHS = 10_000
MAX_GRID_POINTS = 2 ** 21
# Memory bounds, checked at validation too.  Trajectory points are
# trajectories x (RK4 steps + 1), which bounds both the march's work and the
# trajectories x stored states the bundle holds (positions and tube values,
# allocated up front); 833x those of kostin-relaxation (20 x 601), the
# catalog maximum.  Path points are paths x (z_last - z_start) / ds, 167x
# those of the two-slit scenes (40 x 150).  Series rows are the states a
# matter run records, 999x those of fig2a and fig3-superposition (1001); the
# run holds them in five float64 columns, 40 B per row, so 40 MB at the
# bound.  The trajectory march holds four frames of the grid, 17 B a point
# each, whatever the states, and the stencil flags of the interval it
# marches, 3 B a point.  An optics run holds the (Sx, Sz, U) lattice,
# z planes x grid.n_points at 24 B a point, which MAX_OPTICS_WORK bounds to
# about 240 MB; each plane's transform and fields are freed once that plane
# is written.
MAX_TRAJECTORY_POINTS = 1e7
MAX_PATH_POINTS = 1e6
MAX_SERIES_ROWS = 1e6

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
    return tuple(raw.replace(",", " ").split())


# key tables ---------------------------------------------------------------

_REQUIRED = object()  # the default of a key that must be given


class _Key(NamedTuple):
    """One config key: its converter, its default (None where the run does
    without the key or _build derives it), and an optional rule on the
    converted value, which returns what is wrong with it or None."""

    conv: Callable
    default: object = _REQUIRED
    rule: Callable = None


def _must(ok, message):
    """The rule that rejects, with message, a value for which ok is false."""
    return lambda value: None if ok(value) else message


def _one_of(names):
    return _must(lambda v: v in names, f"must be one of {names}")


def _known_checks(allowed):
    def rule(names):
        for n in names:
            if n not in allowed:
                return f"unknown check {n!r}; allowed: {allowed}"
    return rule


_POSITIVE = _must(lambda v: v > 0, "must be > 0")

# The name is also the run's output directory, under runs/ or
# $QSTREAM_OUT_DIR, so it must not reach outside it.
_SCENARIO_KEYS = {
    "name": _Key(_conv_str, rule=_must(
        lambda v: not ("/" in v or "\0" in v or v in (".", "..")),
        "must be a single path component: no '/' or NUL, not '.' or '..'")),
    "kind": _Key(_conv_str),
    "notes": _Key(_conv_str, ""),
}

# A section "packet*" stands for packet1, packet2, ... (numbered sections).
# Keys without a rule are checked by the object _build makes of them:
# PotentialSpec, GridSpec, SlitSpec or OpticalScene.
_MATTER_KEYS = {
    "scenario": _SCENARIO_KEYS,
    "model": {"type": _Key(_conv_str, "standard", _one_of(qp.MODELS)),
              "gamma": _Key(_conv_float, 0.0,
                            _must(lambda v: v >= 0, "must be >= 0"))},
    "potential": {"kind": _Key(_conv_str, "free"),
                  "omega0": _Key(_conv_float, 0.0)},
    "grid": {"x_min": _Key(_conv_float), "x_max": _Key(_conv_float),
             "n_points": _Key(_conv_int, rule=_must(
                 lambda v: v <= MAX_GRID_POINTS,
                 f"must be <= {MAX_GRID_POINTS}"))},
    "time": {"dt": _Key(_conv_float, rule=_POSITIVE),
             "t0": _Key(_conv_float, 0.0),
             "t_final": _Key(_conv_float),
             "snapshot_every": _Key(_conv_int, 1,
                                    _must(lambda v: v >= 1, "must be >= 1"))},
    "packet*": {"sigma0": _Key(_conv_float, rule=_POSITIVE),
                "x0": _Key(_conv_float, 0.0), "p0": _Key(_conv_float, 0.0),
                "weight": _Key(_conv_float, 1.0),
                "phase": _Key(_conv_float, 0.0)},
    "ensemble": {"n_trajectories": _Key(_conv_int, 0, _must(
                     lambda v: v == 0 or 2 <= v <= MAX_TRAJECTORIES,
                     f"must be 0 or >= 2 and <= {MAX_TRAJECTORIES}")),
                 "scheme": _Key(_conv_str, "quantile", _one_of(qt.SCHEMES)),
                 "dt_traj": _Key(_conv_float, None, _POSITIVE)},
    "checks": {"required": _Key(_conv_words, (), _known_checks(
                   ("norm_drift", "non_crossing", "tube"))),
               "norm_tol": _Key(_conv_float, 1e-8, _POSITIVE),
               "tube_tol": _Key(_conv_float, 1e-3, _POSITIVE)},
}

_OPTICS_KEYS = {
    "scenario": _SCENARIO_KEYS,
    "optics": {"wavelength": _Key(_conv_length),
               "z_planes": _Key(_conv_zplanes)},
    "grid": {"x_min": _Key(_conv_length), "x_max": _Key(_conv_length),
             "n_points": _Key(_conv_int)},
    "slit*": {"sigma": _Key(_conv_length), "center": _Key(_conv_length, 0.0),
              "window_sigmas": _Key(_conv_float, None)},
    "paths": {"n_paths": _Key(_conv_int, 0, _must(
                  lambda v: 0 <= v <= MAX_PATHS,
                  f"must be >= 0 and <= {MAX_PATHS}")),
              "z_start": _Key(_conv_length, None),
              "ds": _Key(_conv_length, None, _POSITIVE)},
    "quadrature": {"source_dx": _Key(_conv_length, None, _POSITIVE)},
    "checks": {"required": _Key(_conv_words, (), _known_checks(
                   ("paths_non_crossing",)))},
}

# no leading zeros, so that each number names one section
_NUMBERED = re.compile(r"^(packet|slit)(0|[1-9]\d*)$")


def _enforce(row, key, value):
    """value, unless the rule of its row rejects it."""
    wrong = row.rule and row.rule(value)
    if wrong:
        raise ValidationError(key, wrong)
    return value


def _filled(section, rows, values):
    """A section's values in table order, with its defaults filled in."""
    for key, row in rows.items():
        if key not in values and row.default is _REQUIRED:
            raise ValidationError(f"{section}.{key}", "required key missing")
    return {key: values.get(key, row.default) for key, row in rows.items()}


def _valid(key, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError raised as a ValidationError
    of key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(key, str(exc))


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
    keys: ClassVar[dict] = _MATTER_KEYS
    model: str
    gamma: float
    potential: PotentialSpec
    grid: GridSpec
    dt: float
    t0: float
    t_final: float
    snapshot_every: int
    packets: tuple
    ensemble: dict

    @staticmethod
    def _build(r):
        """The fields made from r, the table's values by section, once the
        rules that span keys hold."""
        model, time, ensemble = r["model"], r["time"], r["ensemble"]
        dt, t0, t_final = time["dt"], time["t0"], time["t_final"]
        snapshot_every = time["snapshot_every"]
        potential = _valid("potential", PotentialSpec, **r["potential"])
        grid = _valid("grid", GridSpec, **r["grid"])
        if t_final < t0:
            raise ValidationError("time.t_final", "must be >= time.t0")
        _check_work("grid.n_points * time steps",
                    lambda: grid.n_points * max((t_final - t0) / dt, 1),
                    MAX_MATTER_WORK)
        n_steps = _valid("time", qp.whole_steps, t0, t_final, dt)
        n_states = qp.state_count(n_steps, snapshot_every)
        _check_work("time steps / time.snapshot_every", lambda: n_states,
                    MAX_SERIES_ROWS)
        if not r["packet*"]:
            raise ValidationError("packet1.sigma0",
                                  "at least one packet required")
        if ensemble["dt_traj"] is None:  # one RK4 step per interval
            ensemble["dt_traj"] = snapshot_every * dt
        if ensemble["n_trajectories"]:
            # no interval between stored states is wider than spacing
            spacing = min(snapshot_every, n_steps) * dt
            _check_work("ensemble.n_trajectories * RK4 steps",
                        lambda: ensemble["n_trajectories"] * (
                            (n_states - 1) * qt.rk4_steps(
                                spacing, ensemble["dt_traj"]) + 1),
                        MAX_TRAJECTORY_POINTS)
        return dict(model=model["type"], gamma=model["gamma"],
                    potential=potential, grid=grid, dt=dt, t0=t0,
                    t_final=t_final, snapshot_every=snapshot_every,
                    packets=tuple(r["packet*"].values()), ensemble=ensemble)

    def _bundle_stream(self, psi0, config) -> qt.BundleStream:
        """The ensemble sampled from psi0, ready to march through the
        states of the run."""
        ens = qt.sample_initial_positions(
            np.abs(psi0.values) ** 2, self.grid,
            self.ensemble["n_trajectories"], scheme=self.ensemble["scheme"])
        n_steps = qp.whole_steps(self.t0, self.t_final, self.dt)
        return qt.BundleStream(ens, self.grid, config,
                               self.ensemble["dt_traj"],
                               qp.state_count(n_steps, self.snapshot_every))

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
                qf.write_snapshot(p, snap, self.model)
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
    keys: ClassVar[dict] = _OPTICS_KEYS
    scene: OpticalScene
    paths: dict
    source_dx: float

    @staticmethod
    def _build(r):
        """The fields made from r, as MatterScenario._build."""
        optics, paths = r["optics"], r["paths"]
        grid = _valid("grid", GridSpec, **r["grid"])
        slits = []
        for section, s in r["slit*"].items():
            window = s["window_sigmas"]
            if window is not None:
                window *= s["sigma"]
            slits.append(_valid(section, SlitSpec, s["sigma"], s["center"],
                                window))
        if not slits:
            raise ValidationError("slit1.sigma", "at least one slit required")
        scene = _valid("optics", OpticalScene, tuple(slits),
                       optics["wavelength"], grid, optics["z_planes"])
        if paths["z_start"] is None:
            paths["z_start"] = optics["z_planes"][0]
        # each slit launches the same number of paths, at least 2
        n_paths, n_slits = paths["n_paths"], len(slits)
        if n_paths and (n_paths % n_slits or n_paths < 2 * n_slits):
            raise ValidationError(
                "paths.n_paths", f"must be 0 or a multiple of the slit count "
                                 f"({n_slits}) with at least 2 per slit")
        z = scene.z_planes
        if not z[0] <= paths["z_start"] <= z[-1]:
            raise ValidationError(
                "paths.z_start", "must lie between the first and last z plane")
        paths["ds"] = paths["ds"] or qo.default_ds(scene)
        if n_paths:
            _check_work("paths.n_paths * path steps",
                        lambda: n_paths * (z[-1] - paths["z_start"])
                        / paths["ds"], MAX_PATH_POINTS)
        source_dx = r["quadrature"]["source_dx"]
        try:
            lo, hi, n_src = qo.source_points(scene, source_dx)
        except (OverflowError, ValueError):
            # a count beyond int, or a default spacing that underflows:
            # rejected by the work bound below
            n_src = math.inf
        _check_work("z planes * (grid.n_points + source points)",
                    lambda: len(z) * (grid.n_points + n_src),
                    MAX_OPTICS_WORK)
        try:
            qo.check_resolution(scene, hi - lo)
        except ResolutionViolation as exc:
            raise ValidationError("grid.n_points", str(exc))
        return dict(scene=scene, paths=paths, source_dx=source_dx)

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
                paths = qo.photon_path_bundle(x0s, z0, pf, self.paths["ds"])
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
    if not entries:
        raise ParseError(1, "empty input")

    kind = entries.get(("scenario", "kind"))
    cls = _KINDS.get(kind)
    if cls is None:
        raise ValidationError("scenario.kind", "required key missing"
                              if kind is None
                              else f"must be one of {tuple(_KINDS)}")

    given = {}  # table section -> {section: {key: value}}
    for (section, key), raw in entries.items():
        m = _NUMBERED.match(section)
        group = f"{m.group(1)}*" if m else section
        rows = cls.keys.get(group) if m or "*" not in section else None
        name = f"{section}.{key}"
        if rows is None:
            raise ValidationError(name, f"unknown section {section!r}")
        if key not in rows:
            raise ValidationError(name, f"unknown key in section {section!r}")
        value = _enforce(rows[key], name, rows[key].conv(raw, name))
        entries[(section, key)] = value
        given.setdefault(group, {}).setdefault(section, {})[key] = value

    r = {}
    for group, rows in cls.keys.items():
        sections = given.get(group, {})
        if group.endswith("*"):
            r[group] = {s: _filled(s, rows, sections[s]) for s in sorted(
                sections, key=lambda s: int(_NUMBERED.match(s).group(2)))}
        else:
            r[group] = _filled(group, rows, sections.get(group, {}))
    canonical = tuple((s, k, v) for (s, k), v in sorted(entries.items()))
    return cls(name=r["scenario"]["name"], entries=canonical,
               notes=r["scenario"]["notes"], checks=r["checks"],
               **cls._build(r))


# built-in catalog ---------------------------------------------------------

_OMEGA0 = 2.0 * math.pi / 10.0          # tau0 = 10
_SIGMA_COH = math.sqrt(1.0 / (2.0 * _OMEGA0))


def _matter_text(name, model, gamma, grid, n_points, dt, t_final,
                 snapshot_every, packets, n_traj=20,
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
        "checks.required = norm_drift non_crossing",
    ]
    if norm_tol is not None:
        lines.append(f"checks.norm_tol = {norm_tol!r}")
    if tube_tol is not None:
        lines.append(f"checks.tube_tol = {tube_tol!r}")
    return "\n".join(lines) + "\n"


def _optics_text(name, slits, z_planes="0.5 : 8.0 : 31", half_mm=10.0,
                 n_paths=40, source_dx_um=8.0):
    lines = [
        f"scenario.name = {name}",
        "scenario.kind = optics",
        "optics.wavelength = 943 nm",
        f"optics.z_planes = {z_planes}",
        f"grid.x_min = -{half_mm!r} mm",
        f"grid.x_max = {half_mm!r} mm",
        "grid.n_points = 1601",
    ]
    for i, s in enumerate(slits, start=1):
        for k, v in s.items():
            suffix = "" if k == "window_sigmas" else " mm"
            lines.append(f"slit{i}.{k} = {v!r}{suffix}")
    lines += [
        f"paths.n_paths = {n_paths}",
        "paths.z_start = 0.5 m",
        "paths.ds = 0.05 m",
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
                     1e-3, 40.0, 40, [{"sigma0": coh, "x0": 2.0}],
                     tube_tol=0.01))
    cat["fig2b"] = (
        "damped harmonic oscillator, gamma = 2 omega0 (critical regime)",
        _matter_text("fig2b", "caldirola_kanai", 2.0 * _OMEGA0, 8.0, 8192,
                     1e-3, 7.0, 20, [{"sigma0": coh, "x0": 2.0}],
                     tube_tol=0.01))
    cat["fig2c"] = (
        "damped harmonic oscillator, gamma = 4 omega0 (overdamped)",
        _matter_text("fig2c", "caldirola_kanai", 4.0 * _OMEGA0, 6.0, 32768,
                     1e-3, 4.0, 40, [{"sigma0": coh, "x0": 2.0}],
                     norm_tol=1e-5, tube_tol=0.01))
    cat["fig3-superposition"] = (
        "two-packet superposition in the damped oscillator",
        _matter_text("fig3-superposition", "caldirola_kanai", 0.3 * _OMEGA0,
                     8.0, 2048, 1e-3, 40.0, 40,
                     [{"sigma0": coh, "x0": 2.0},
                      {"sigma0": coh, "x0": -2.0}], tube_tol=0.05,
                     notes="initial centers +/-2 and zero relative phase are "
                           "defaults chosen here, not published values"))
    cat["kostin-relaxation"] = (
        "nonlinear friction model relaxing a displaced coherent state",
        _matter_text("kostin-relaxation", "kostin", 0.3 * _OMEGA0, 8.0, 1024,
                     5e-3, 60.0, 20, [{"sigma0": coh, "x0": 1.0}]))
    cat["oracle-free-gaussian"] = (
        "free Gaussian spreading against the closed-form solution",
        _matter_text("oracle-free-gaussian", "standard", 0.0, 20.0, 2048,
                     1e-3, 4.0, 40, [{"sigma0": 1.0}], n_traj=16,
                     potential="free"))
    cat["oracle-harmonic-coherent"] = (
        "coherent state over three periods against the closed form",
        _matter_text("oracle-harmonic-coherent", "standard", 0.0, 8.0, 1024,
                     1e-3, 30.0, 40, [{"sigma0": coh, "x0": 1.0}]))
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
                     z_planes="0.5 m 3 m 8 m", half_mm=12.0, n_paths=0,
                     source_dx_um=2.0))
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
    """Normalized superposition of the configured packets.  ValueError when
    its norm is not finite and > 0: the weights overflow it, or cancel or
    underflow it to 0, and no normalization is left to divide by."""
    values = np.zeros(config.grid.n_points, dtype=complex)
    for p in config.packets:
        part = qf.gaussian_packet(config.grid, sigma0=p["sigma0"],
                                  x0=p["x0"], p0=p["p0"])
        values += p["weight"] * np.exp(1j * p["phase"]) * part.values
    psi = ComplexField(config.grid, values, config.t0)
    n = qf.norm(psi)
    if not (math.isfinite(n) and n > 0):
        raise ValueError(f"packet superposition has norm {n!r}: "
                         "must be finite and > 0")
    return ComplexField(config.grid, values / math.sqrt(n), config.t0)


def propagator_config(config: MatterScenario) -> PropagatorConfig:
    return PropagatorConfig(model=config.model, potential=config.potential,
                            gamma=config.gamma, dt=config.dt)


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
    """Resample each path that reaches z_hi as x(z) on a shared z mesh
    (paths are monotone in z here) and check the transverse ordering never
    flips; not ok, with a NaN min gap, when fewer than two paths reach
    z_hi."""
    z_common = np.linspace(z_lo, z_hi, 200)
    rows = []
    for p in paths:
        if p.z[-1] < z_hi - 1e-12 or len(p.z) < 2:
            continue
        rows.append(np.interp(z_common, p.z, p.x))
    if len(rows) < 2:
        return False, math.nan
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


def _finite_or_null(obj):
    """obj with every non-finite float, at any depth of its dicts and
    lists, replaced by None: JSON (RFC 8259) has no NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _record_check(manifest, name, value, threshold, passed, required):
    manifest["checks"].append({
        "name": name, "value": value, "threshold": threshold,
        "passed": bool(passed), "required": name in required})


def run_scenario(config: MatterScenario | OpticsScenario, out_dir=None,
                 required_checks=None) -> RunArtifacts:
    """Run a scenario end to end; once out_dir is made (OSError if it
    cannot be), the manifest is always written, even on partial failure
    (ManifestWriteError if it cannot be).  required_checks, when given,
    replaces the config's checks.required and must name checks of the
    scenario's kind (ValidationError before anything runs).  manifest.json
    holds null where the returned manifest holds a nan or inf."""
    if required_checks is not None:
        _enforce(config.keys["checks"]["required"], "checks.required",
                 required_checks)
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
    except (*_RUN_ERRORS, OSError) as exc:
        if manifest["stages"]:
            manifest["stages"][-1]["status"] = "failed"
            manifest["stages"][-1]["error"] = f"{type(exc).__name__}: {exc}"
        manifest["failure_kind"] = ("io" if isinstance(exc, OSError)
                                    else "numeric")
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
            json.dump(_finite_or_null(manifest), fh, indent=2,
                      sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(tmp_path, manifest_path)
    except OSError as exc:
        raise ManifestWriteError(f"cannot write {manifest_path}: {exc}")
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    files.append(manifest_path)
    return RunArtifacts(manifest, tuple(files), out_dir)
