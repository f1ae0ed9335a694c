"""Seeded scenario generators, closed-form oracles and output checks.

Each workload's scenario text is built from a seed with the public
`section.key = value` grammar only; the program never sees the seed. A seed
perturbs only inputs that leave the amount of work unchanged: the packet
centre x0 of the matter workloads, and for the two-slit scene a common shift
of both slits plus a width asymmetry that keeps the summed width (and so the
aperture span and the source-point count) fixed.

The oracles are closed forms written here, independent of the package:

* matter workloads: by Ehrenfest's theorem both the Caldirola-Kanai and the
  Kostin model move <x>(t) along the damped classical oscillator
  x_cl = x0 e^{-gt/2} (cos Wt + g/(2W) sin Wt), W^2 = w0^2 - g^2/4;
* two-slit: each Gaussian slit propagates to
  (2 pi s^2)^{-1/4} q^{-1/2} exp(-(x - c)^2 / (4 s^2 q)), q = 1 + iz/(2ks^2),
  and the intensity is the squared modulus of their sum over the aperture's
  norm.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass

OMEGA0 = 2.0 * math.pi / 10.0               # the catalog's tau0 = 10
SIGMA_COH = math.sqrt(1.0 / (2.0 * OMEGA0))  # coherent-state width
GAMMA = 0.3 * OMEGA0                          # fig2a damping

WAVELENGTH = 943e-9
SLIT_SIGMA_MM = 0.3
SLIT_CENTER_MM = 2.35
HALF_WIDTH_MM = 10.0

# A check ratio below this is the rounding error of a conserved quantity;
# any change of FFT order moves it by a factor without any loss of accuracy,
# so it is reported at this floor (the check still passed 1000-fold).
CHECK_RATIO_FLOOR = 1e-3
# Tolerance on the worst relative loss of plane power (optics has no
# manifest check with a finite threshold, see check_ratio in README.md).
PLANE_POWER_TOL = 1e-3

WORKLOADS = ("ck-ensemble", "kostin-wide", "two-slit")

# Per-scale sizes. "full" is what the benchmark measures; "mini" is the
# self-test's seconds-long miniature of the same scenario shapes.
SIZES = {
    "full": {
        "ck-ensemble": {"n_points": 2048, "t_final": 4.0, "n_traj": 20},
        "kostin-wide": {"n_points": 8192, "t_final": 4.0},
        "two-slit": {"n_planes": 31, "n_paths": 40},
    },
    "mini": {
        "ck-ensemble": {"n_points": 512, "t_final": 0.8, "n_traj": 6},
        "kostin-wide": {"n_points": 1024, "t_final": 0.5},
        "two-slit": {"n_planes": 4, "n_paths": 4},
    },
}

# oracle_err above this fails the run; each is roughly 20x the error
# measured on the seed at full size (4.2e-8, 1.1e-6, 1.7e-5).
ORACLE_TOL = {"ck-ensemble": 1e-6, "kostin-wide": 3e-5, "two-slit": 5e-4}


@dataclass(frozen=True)
class Scenario:
    """A generated scenario plus what its output check needs to know."""

    workload: str
    text: str
    params: dict


def _matter_text(name, model, n_points, dt, t_final, snapshot_every, x0,
                 n_traj, required, dt_traj=None, tube_tol=None):
    lines = [
        f"scenario.name = {name}",
        "scenario.kind = matter_wave",
        f"model.type = {model}",
        f"model.gamma = {GAMMA!r}",
        "potential.kind = harmonic",
        f"potential.omega0 = {OMEGA0!r}",
        "grid.x_min = -8.0",
        "grid.x_max = 8.0",
        f"grid.n_points = {n_points}",
        f"time.dt = {dt!r}",
        f"time.t_final = {t_final!r}",
        f"time.snapshot_every = {snapshot_every}",
        f"packet1.sigma0 = {SIGMA_COH!r}",
        f"packet1.x0 = {x0!r}",
        f"ensemble.n_trajectories = {n_traj}",
    ]
    if n_traj:
        lines += ["ensemble.scheme = quantile",
                  f"ensemble.dt_traj = {dt_traj!r}"]
    lines.append(f"checks.required = {' '.join(required)}")
    if tube_tol is not None:
        lines.append(f"checks.tube_tol = {tube_tol!r}")
    return "\n".join(lines) + "\n"


def build(workload: str, seed: int, scale: str = "full") -> Scenario:
    """The workload's scenario for this seed; equal seeds give equal text."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[scale][workload]
    name = f"{workload}-s{seed}"
    if workload in ("ck-ensemble", "kostin-wide"):
        x0 = round(2.0 + rng.uniform(-0.01, 0.01), 6)
        if workload == "ck-ensemble":
            dt, snap = 1e-3, 40
            text = _matter_text(name, "caldirola_kanai", size["n_points"], dt,
                                size["t_final"], snap, x0, size["n_traj"],
                                ("norm_drift", "non_crossing", "tube"),
                                dt_traj=0.01, tube_tol=0.01)
        else:
            # no ensemble, so only norm_drift can be required: a required
            # non_crossing would never be recorded and every run would fail
            dt, snap = 5e-3, 20
            text = _matter_text(name, "kostin", size["n_points"], dt,
                                size["t_final"], snap, x0, 0, ("norm_drift",))
        n_steps = int(round(size["t_final"] / dt))
        return Scenario(workload, text, {
            "kind": "matter_wave", "x0": x0, "gamma": GAMMA,
            "n_series": n_steps // snap + 1,
            "files": ["series.txt", "snapshot_initial.txt",
                      "snapshot_final.txt"]
            + (["bundle.txt"] if workload == "ck-ensemble" else []),
            "tol": ORACLE_TOL[workload]})
    if workload != "two-slit":
        raise ValueError(f"unknown workload {workload!r}")
    shift = round(rng.uniform(-0.03, 0.03), 6)
    asym = round(rng.uniform(-0.01, 0.01), 6)
    slits = [(SLIT_SIGMA_MM * (1.0 + asym), SLIT_CENTER_MM + shift),
             (SLIT_SIGMA_MM * (1.0 - asym), -SLIT_CENTER_MM + shift)]
    n_planes, n_paths = size["n_planes"], size["n_paths"]
    lines = [
        f"scenario.name = {name}",
        "scenario.kind = optics",
        "optics.wavelength = 943 nm",
        f"optics.z_planes = 0.5 : 8.0 : {n_planes}",
        f"grid.x_min = -{HALF_WIDTH_MM!r} mm",
        f"grid.x_max = {HALF_WIDTH_MM!r} mm",
        "grid.n_points = 1601",
    ]
    for i, (sigma, center) in enumerate(slits, start=1):
        lines += [f"slit{i}.sigma = {sigma!r} mm",
                  f"slit{i}.center = {center!r} mm"]
    lines += [
        f"paths.n_paths = {n_paths}",
        "paths.z_start = 0.5 m",
        "paths.ds = 0.05 m",
        "quadrature.source_dx = 8.0 um",
        "checks.required = paths_non_crossing",
    ]
    return Scenario(workload, "\n".join(lines) + "\n", {
        "kind": "optics",
        "slits": [(s * 1e-3, c * 1e-3) for s, c in slits],
        "n_planes": n_planes, "n_points": 1601, "z_last": 8.0,
        "files": [f"plane_{i:03d}.txt" for i in range(n_planes)]
        + ["paths.txt"],
        "tol": ORACLE_TOL[workload]})


# oracles ------------------------------------------------------------------


def read_table(path):
    """Numeric rows of a whitespace table, skipping `#` comment lines."""
    with open(path, encoding="utf-8") as fh:
        return [[float(v) for v in line.split()] for line in fh
                if line.strip() and not line.startswith("#")]


def classical_x(x0, gamma, t):
    """Damped classical oscillator released at rest from x0."""
    om = math.sqrt(OMEGA0 ** 2 - 0.25 * gamma ** 2)
    return x0 * math.exp(-0.5 * gamma * t) * (
        math.cos(om * t) + gamma / (2.0 * om) * math.sin(om * t))


def matter_oracle_err(rows, x0, gamma):
    """max_t |<x>(t) - x_cl(t)| / x0 over `t norm x_mean sigma energy` rows."""
    return max(abs(r[2] - classical_x(x0, gamma, r[0])) / x0 for r in rows)


def _aperture_norm(slits):
    """Integral of |sum of slit amplitudes|^2 (Gaussian overlaps)."""
    total = 0.0
    for si, ci in slits:
        for sj, cj in slits:
            total += ((2 * math.pi * si ** 2) * (2 * math.pi * sj ** 2)) ** -0.25 \
                * math.sqrt(math.pi / (0.25 / si ** 2 + 0.25 / sj ** 2)) \
                * math.exp(-(ci - cj) ** 2 / (4.0 * (si ** 2 + sj ** 2)))
    return total


def beam_intensity(slits, x, z):
    """Closed-form |psi(x, z)|^2 of unit-norm Gaussian slits."""
    k = 2.0 * math.pi / WAVELENGTH
    psi = 0j
    for s, c in slits:
        q = 1.0 + 1j * z / (2.0 * k * s * s)
        psi += (2.0 * math.pi * s * s) ** -0.25 / cmath.sqrt(q) \
            * cmath.exp(-(x - c) ** 2 / (4.0 * s * s * q))
    return abs(psi) ** 2


def optics_oracle_err(rows, slits, z):
    """Relative L-inf error of `x intensity ...` rows against the beams."""
    norm = _aperture_norm(slits)
    ref = [beam_intensity(slits, r[0], z) / norm for r in rows]
    return max(abs(r[1] - f) for r, f in zip(rows, ref)) / max(ref)


def plane_power_drift(rows):
    """|trapezoid integral of the intensity column - 1|."""
    dx = (rows[-1][0] - rows[0][0]) / (len(rows) - 1)
    inten = [r[1] for r in rows]
    return abs(dx * (sum(inten) - 0.5 * (inten[0] + inten[-1])) - 1.0)


# output check ---------------------------------------------------------------


@dataclass
class Outcome:
    """Result of checking one run's outputs."""

    ok: bool
    reasons: list
    manifest: dict = None
    oracle_err: float = None
    check_ratio: float = None

    def check_values(self):
        """The manifest's check values: what a traced run must reproduce."""
        return [(c["name"], c["value"], c["passed"])
                for c in self.manifest["checks"]]


def _plane_z(path):
    with open(path, encoding="utf-8") as fh:
        return float(fh.readline().split("=", 1)[1])


def check_outputs(scn: Scenario, out_dir: str, returncode: int) -> Outcome:
    """Exit code, manifest, required checks, file set and closed-form oracle."""
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    try:
        with open(os.path.join(out_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return Outcome(False, reasons + [f"manifest: {exc}"])
    if manifest.get("failure_kind") is not None:
        reasons.append(f"failure_kind {manifest['failure_kind']}")
    for c in manifest.get("checks", []):
        if c["required"] and not c["passed"]:
            reasons.append(f"required check {c['name']} failed")
    missing = [f for f in scn.params["files"]
               if f not in manifest.get("files", [])
               or not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return Outcome(False, reasons + [f"missing outputs {missing}"],
                       manifest)
    p = scn.params
    try:
        if p["kind"] == "matter_wave":
            rows = read_table(os.path.join(out_dir, "series.txt"))
            if len(rows) != p["n_series"]:
                reasons.append(f"series.txt has {len(rows)} rows, "
                               f"expected {p['n_series']}")
            err = matter_oracle_err(rows, p["x0"], p["gamma"])
            ratios = [c["value"] / c["threshold"] for c in manifest["checks"]
                      if c["name"] in ("norm_drift", "tube")]
        else:
            drifts = []
            for i in range(p["n_planes"]):
                path = os.path.join(out_dir, f"plane_{i:03d}.txt")
                rows = read_table(path)
                if len(rows) != p["n_points"]:
                    reasons.append(f"{path} has {len(rows)} rows")
                drifts.append(plane_power_drift(rows))
            if abs(_plane_z(path) - p["z_last"]) > 1e-12:
                reasons.append(f"last plane at z = {_plane_z(path)}")
            err = optics_oracle_err(rows, p["slits"], p["z_last"])
            ratios = [max(drifts) / PLANE_POWER_TOL]
    except (OSError, ValueError, IndexError, KeyError,
            ZeroDivisionError) as exc:
        return Outcome(False, reasons + [f"unreadable outputs: {exc}"],
                       manifest)
    if not math.isfinite(err) or err > p["tol"]:
        reasons.append(f"oracle_err {err:.3g} > {p['tol']:.3g}")
    ratio = max([CHECK_RATIO_FLOOR] + ratios)
    if not ratio <= 1.0:
        reasons.append(f"check_ratio {ratio:.3g} > 1")
    return Outcome(not reasons, reasons, manifest, err, ratio)
