"""Scenario config grammar, built-in catalog, run orchestration, and the
command-line interface."""

import dataclasses
import json
import logging
import math
import os
import platform
import re
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import strict_json
from qstream import cli, scenarios
from qstream import optics as qo, trajectories as qt
from qstream.errors import NodeEncounter, ParseError, ValidationError
from qstream.scenarios import (OUT_DIR_ENV, MatterScenario, OpticsScenario,
                               builtin_scenario, list_scenarios,
                               parse_scenario, run_scenario)

QUICK_MATTER = """\
scenario.name = quick
scenario.kind = matter_wave
model.type = standard
potential.kind = free
grid.x_min = -10
grid.x_max = 10
grid.n_points = 256
time.dt = 0.01
time.t_final = 0.5
time.snapshot_every = 5
packet1.sigma0 = 1.0
ensemble.n_trajectories = 6
ensemble.dt_traj = 0.05
checks.required = norm_drift non_crossing
"""

# valid, but dt breaks the accuracy bound of the narrow packet: the run
# fails in its propagate stage
UNSTABLE_MATTER = (QUICK_MATTER.replace("time.dt = 0.01", "time.dt = 5.0")
                   .replace("time.t_final = 0.5", "time.t_final = 10.0")
                   .replace("ensemble.dt_traj = 0.05", "ensemble.dt_traj = 5.0")
                   .replace("packet1.sigma0 = 1.0", "packet1.sigma0 = 0.05"))

QUICK_OPTICS = """\
scenario.name = quick-optics
scenario.kind = optics
optics.wavelength = 943 nm
optics.z_planes = 0.5 : 2.0 : 4
grid.x_min = -5 mm
grid.x_max = 5 mm
grid.n_points = 401
slit1.sigma = 0.3 mm
paths.n_paths = 4
paths.ds = 0.1 m
quadrature.source_dx = 8 um
checks.required = paths_non_crossing
"""

# two slits 3 mm apart; 4 paths launch 2 from each
TWO_SLIT_OPTICS = (QUICK_OPTICS
                   .replace("grid.n_points = 401", "grid.n_points = 801")
                   .replace("slit1.sigma = 0.3 mm",
                            "slit1.sigma = 0.3 mm\nslit1.center = 1.5 mm\n"
                            "slit2.sigma = 0.3 mm\nslit2.center = -1.5 mm"))

# Non-finite or out-of-range numbers, each of which must fail validation
# (exit 2) rather than escape from the run: (base text, old line, new line).
BAD_NUMBERS = {
    "t_final-inf": (QUICK_MATTER, "time.t_final = 0.5", "time.t_final = inf"),
    "dt-nan": (QUICK_MATTER, "time.dt = 0.01", "time.dt = nan"),
    "gamma-nan": (QUICK_MATTER, "model.type = standard",
                  "model.type = standard\nmodel.gamma = nan"),
    "x0-nan": (QUICK_MATTER, "packet1.sigma0 = 1.0",
               "packet1.sigma0 = 1.0\npacket1.x0 = nan"),
    # units hbar = m = 1 and the well at x = 0 are fixed: the keys that
    # set them are unknown
    "hbar-zero": (QUICK_MATTER, "model.type = standard",
                  "model.type = standard\nmodel.hbar = 0"),
    "mass-zero": (QUICK_MATTER, "model.type = standard",
                  "model.type = standard\nmodel.mass = 0"),
    "center-zero": (QUICK_MATTER, "potential.kind = free",
                    "potential.kind = free\npotential.center = 0"),
    "gamma-negative": (QUICK_MATTER, "model.type = standard",
                       "model.type = standard\nmodel.gamma = -1"),
    "one-trajectory": (QUICK_MATTER, "ensemble.n_trajectories = 6",
                       "ensemble.n_trajectories = 1"),
    "dt_traj-zero": (QUICK_MATTER, "ensemble.dt_traj = 0.05",
                     "ensemble.dt_traj = 0"),
    # a run must end at t_final after a whole number of steps of dt
    "t_final-off-grid": (QUICK_MATTER, "time.t_final = 0.5",
                         "time.t_final = 0.505"),
    "t_final-under-one-step": (QUICK_MATTER, "time.t_final = 0.5",
                               "time.t_final = 0.00390625"),
    "t_final-before-t0": (QUICK_MATTER, "time.t_final = 0.5",
                          "time.t_final = 0.5\ntime.t0 = 1.0"),
    "wavelength-overflow": (QUICK_OPTICS, "943 nm", "1e999 nm"),
    "zplane-malformed": (QUICK_OPTICS, "0.5 : 2.0 : 4", "0.5 1.2.3 2"),
    "window_sigmas-inf": (QUICK_OPTICS, "slit1.sigma = 0.3 mm",
                          "slit1.sigma = 0.3 mm\nslit1.window_sigmas = inf"),
    "source_dx-negative": (QUICK_OPTICS, "8 um", "-20 um"),
    "source_dx-zero": (QUICK_OPTICS, "8 um", "0 um"),
    "ds-zero": (QUICK_OPTICS, "paths.ds = 0.1 m", "paths.ds = 0 m"),
    "ds-negative": (QUICK_OPTICS, "paths.ds = 0.1 m", "paths.ds = -0.5 m"),
    "n_paths-negative": (QUICK_OPTICS, "paths.n_paths = 4",
                         "paths.n_paths = -3"),
    "z_start-beyond-last-plane": (QUICK_OPTICS, "paths.n_paths = 4",
                                  "paths.n_paths = 4\npaths.z_start = 100 m"),
    "z_start-before-first-plane": (QUICK_OPTICS, "paths.n_paths = 4",
                                   "paths.n_paths = 4\npaths.z_start = 0.1 m"),
    "norm_tol-negative": (QUICK_MATTER, "time.dt = 0.01",
                          "time.dt = 0.01\nchecks.norm_tol = -1"),
    "norm_tol-zero": (QUICK_MATTER, "time.dt = 0.01",
                      "time.dt = 0.01\nchecks.norm_tol = 0"),
    "tube_tol-zero": (QUICK_MATTER, "norm_drift non_crossing",
                      "norm_drift non_crossing tube\nchecks.tube_tol = 0"),
    # work bounds: runs too large to finish or to fit in memory
    "dt-tiny": (QUICK_MATTER, "time.dt = 0.01", "time.dt = 1e-12"),
    "n_points-huge-matter": (QUICK_MATTER, "grid.n_points = 256",
                             "grid.n_points = 10000000000000"),
    "n_points-huge-optics": (QUICK_OPTICS, "grid.n_points = 401",
                             "grid.n_points = 10000000000000"),
    "source_dx-tiny": (QUICK_OPTICS, "8 um", "1e-15 m"),
    "zplanes-count-huge": (QUICK_OPTICS, "0.5 : 2.0 : 4",
                           "0.5 : 2.0 : 1000000000000"),
    "n_points-beyond-float": (QUICK_MATTER, "grid.n_points = 256",
                              "grid.n_points = 1" + "0" * 400),
    "source_dx-subnormal": (QUICK_OPTICS, "8 um", "1e-320 m"),
    "default-source_dx-underflow": (
        QUICK_OPTICS.replace("quadrature.source_dx = 8 um\n", ""),
        "slit1.sigma = 0.3 mm", "slit1.sigma = 1e-322 m"),
    # count bounds: arrays too large to allocate
    "n_paths-huge": (QUICK_OPTICS, "paths.n_paths = 4",
                     "paths.n_paths = 1000000000000"),
    "n_trajectories-huge": (QUICK_MATTER, "ensemble.n_trajectories = 6",
                            "ensemble.n_trajectories = 1000000000000"),
    # memory bounds: each count passes alone, the product is far too large
    "path-points-huge": (
        QUICK_OPTICS.replace("paths.n_paths = 4", "paths.n_paths = 10000"),
        "paths.ds = 0.1 m", "paths.ds = 1e-12 m"),
    "path-points-default-ds": (
        QUICK_OPTICS.replace("paths.n_paths = 4", "paths.n_paths = 10000")
        .replace("paths.ds = 0.1 m\n", ""),
        "0.5 : 2.0 : 4", "0.5 : 2.0 : 10000"),
    "trajectory-points-huge": (QUICK_MATTER, "ensemble.dt_traj = 0.05",
                               "ensemble.dt_traj = 1e-12"),
    # a state stored every step: its series rows trip first
    "snapshot-points-huge": (
        QUICK_MATTER.replace("grid.n_points = 256", "grid.n_points = 8")
        .replace("time.snapshot_every = 5", "time.snapshot_every = 1")
        .replace("ensemble.dt_traj = 0.05", "ensemble.dt_traj = 1e-3"),
        "time.t_final = 0.5", "time.t_final = 1e6"),
    "series-rows-huge": (
        QUICK_MATTER.replace("grid.n_points = 256", "grid.n_points = 8")
        .replace("time.snapshot_every = 5", "time.snapshot_every = 1")
        .replace("ensemble.n_trajectories = 6", "ensemble.n_trajectories = 0"),
        "time.t_final = 0.5", "time.t_final = 1e5"),
}
# the product each memory-bound case exceeds, and each source-count case:
# a count beyond int, or a default spacing that underflows, fails there too
MEMORY_BOUND_KEYS = {
    "source_dx-tiny": "z planes * (grid.n_points + source points)",
    "source_dx-subnormal": "z planes * (grid.n_points + source points)",
    "default-source_dx-underflow":
        "z planes * (grid.n_points + source points)",
    "path-points-huge": "paths.n_paths * path steps",
    "path-points-default-ds": "paths.n_paths * path steps",
    "trajectory-points-huge": "ensemble.n_trajectories * RK4 steps",
    "snapshot-points-huge": "time steps / time.snapshot_every",
    "series-rows-huge": "time steps / time.snapshot_every",
}

# Files that cannot be read as scenario text: each must exit 2, not 1.
UNREADABLE = {
    "byte-0xff": lambda path: path.write_bytes(b"scenario.name = x\xff\n"),
    "directory": lambda path: path.mkdir(),
}


def bad_number_text(case):
    base, old, new = BAD_NUMBERS[case]
    assert old in base
    return base.replace(old, new)


# grammar -------------------------------------------------------------------

class TestParser:
    def test_round_trip_canonical_text(self):
        cfg = parse_scenario(QUICK_MATTER)
        again = parse_scenario(cfg.to_text())
        assert again.entries == cfg.entries
        assert again.sha256() == cfg.sha256()

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + QUICK_MATTER.replace(
            "time.dt = 0.01", "time.dt = 0.01   # trailing comment")
        cfg = parse_scenario(text)
        assert cfg.dt == 0.01

    def test_missing_assignment_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("scenario.name = x\nbogus line\n")
        assert err.value.line == 2

    def test_missing_section_prefix(self):
        with pytest.raises(ParseError):
            parse_scenario("name = x\n")

    def test_duplicate_key(self):
        text = QUICK_MATTER + "time.dt = 0.02\n"
        with pytest.raises(ParseError):
            parse_scenario(text)

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("# only a comment\n")
        assert err.value.line == 1

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            parse_scenario("scenario.name = x\nscenario.kind = fluid\n")

    def test_unknown_section(self):
        for base, extra in ((QUICK_MATTER, "sauce.level = 11\n"),
                            (QUICK_MATTER, "outputs.series = false\n"),
                            (QUICK_OPTICS, "outputs.profiles = false\n")):
            with pytest.raises(ValidationError, match="unknown section"):
                parse_scenario(base + extra)

    def test_kind_picks_the_type(self):
        matter = parse_scenario(QUICK_MATTER)
        optics = parse_scenario(QUICK_OPTICS)
        assert type(matter) is MatterScenario
        assert type(optics) is OpticsScenario
        assert (matter.kind, optics.kind) == ("matter_wave", "optics")

    def test_unknown_key(self):
        for extra in ("time.warp = 9\n", "ensemble.seed = 3\n"):
            with pytest.raises(ValidationError):
                parse_scenario(QUICK_MATTER + extra)

    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            parse_scenario(QUICK_MATTER.replace("model.type = standard",
                                                "model.type = frictional"))

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            parse_scenario(QUICK_MATTER + "ensemble.scheme = sobol\n")

    def test_unknown_check_name(self):
        bad = QUICK_MATTER.replace("norm_drift non_crossing", "vibes")
        with pytest.raises(ValidationError):
            parse_scenario(bad)

    def test_missing_required_key(self):
        bad = QUICK_MATTER.replace("time.t_final = 0.5\n", "")
        with pytest.raises(ValidationError) as err:
            parse_scenario(bad)
        assert "t_final" in str(err.value)

    def test_missing_packet(self):
        bad = QUICK_MATTER.replace("packet1.sigma0 = 1.0\n", "")
        with pytest.raises(ValidationError):
            parse_scenario(bad)

    def test_harmonic_requires_frequency(self):
        bad = QUICK_MATTER.replace("potential.kind = free",
                                   "potential.kind = harmonic")
        with pytest.raises(ValidationError):
            parse_scenario(bad)

    def test_length_units(self):
        cfg = parse_scenario(QUICK_OPTICS)
        assert cfg.scene.wavelength == pytest.approx(943e-9)
        assert cfg.scene.transverse_grid.x_max == pytest.approx(5e-3)
        assert cfg.source_dx == pytest.approx(8e-6)
        assert cfg.paths["ds"] == pytest.approx(0.1)

    def test_zplanes_linspace(self):
        cfg = parse_scenario(QUICK_OPTICS)
        assert np.allclose(cfg.scene.z_planes, [0.5, 1.0, 1.5, 2.0])

    def test_zplanes_explicit_list_with_units(self):
        text = QUICK_OPTICS.replace("0.5 : 2.0 : 4", "0.5 m 1500 mm 2 m")
        cfg = parse_scenario(text)
        assert np.allclose(cfg.scene.z_planes, [0.5, 1.5, 2.0])

    def test_bad_length_rejected(self):
        bad = QUICK_OPTICS.replace("943 nm", "943 furlongs")
        with pytest.raises(ValidationError):
            parse_scenario(bad)

    def test_window_key_unknown(self):
        # a slit's window is set by window_sigmas alone
        bad = QUICK_OPTICS + "slit1.window = 1 mm\n"
        with pytest.raises(ValidationError) as info:
            parse_scenario(bad)
        assert info.value.key == "slit1.window"
        assert info.value.constraint == "unknown key in section 'slit1'"

    @pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
    def test_bad_number_rejected(self, case):
        with pytest.raises(ValidationError):
            parse_scenario(bad_number_text(case))

    @pytest.mark.parametrize("case", sorted(MEMORY_BOUND_KEYS))
    def test_memory_bound_names_its_product(self, case):
        base = BAD_NUMBERS[case][0]
        parse_scenario(base)  # valid until the last value is replaced
        with pytest.raises(ValidationError,
                           match=re.escape(MEMORY_BOUND_KEYS[case])):
            parse_scenario(bad_number_text(case))

    @pytest.mark.parametrize("dt_traj, every, steps", [
        ("0.03", 5, 2),    # does not divide the 0.05 between states
        ("0.01", 1000, 50),  # states 0.5 apart, 50 dt_traj
        ("0.5", 1, 1),     # far above the 0.01 between states
    ])
    def test_any_dt_traj_validates_and_runs(self, tmp_path, dt_traj, every,
                                            steps):
        # each interval between stored states takes the fewest equal RK4
        # steps no longer than dt_traj
        text = (QUICK_MATTER
                .replace("ensemble.dt_traj = 0.05",
                         f"ensemble.dt_traj = {dt_traj}")
                .replace("time.snapshot_every = 5",
                         f"time.snapshot_every = {every}"))
        cfg = parse_scenario(text)
        spacing = min(every, 50) * cfg.dt
        assert qt.rk4_steps(spacing, cfg.ensemble["dt_traj"]) == steps
        art = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert art.manifest["failure_kind"] is None
        assert art.manifest["stages"][1]["mesh_steps"] == -(-50 // every)

    def test_trajectory_steps_bound_counts_the_rk4_steps(self, monkeypatch):
        # QUICK_MATTER: 10 intervals of 0.05; at dt_traj = 1e-4 each takes
        # 500 RK4 steps, so 6 x (5000 + 1) trajectory points
        text = QUICK_MATTER.replace("ensemble.dt_traj = 0.05",
                                    "ensemble.dt_traj = 1e-4")
        monkeypatch.setattr(scenarios, "MAX_TRAJECTORY_POINTS", 6 * 5001)
        parse_scenario(text)
        monkeypatch.setattr(scenarios, "MAX_TRAJECTORY_POINTS", 6 * 5001 - 1)
        with pytest.raises(ValidationError, match="RK4 steps"):
            parse_scenario(text)

    def test_run_without_ensemble_bounded_by_its_series_rows(self):
        # every state of an 8000-step fig2c is recorded, but with no
        # ensemble the run holds only its 8001 series rows
        cfg = parse_scenario(
            list_scenarios()["fig2c"][1]
            .replace("time.t_final = 4.0", "time.t_final = 8.0")
            .replace("time.snapshot_every = 40", "time.snapshot_every = 1")
            .replace("ensemble.n_trajectories = 20",
                     "ensemble.n_trajectories = 0")
            .replace("checks.required = norm_drift non_crossing",
                     "checks.required = norm_drift"))
        assert cfg.t_final == 8.0 and cfg.snapshot_every == 1
        assert cfg.ensemble["n_trajectories"] == 0

    def test_window_sigmas_scales_sigma(self):
        cfg = parse_scenario(QUICK_OPTICS + "slit1.window_sigmas = 1.5\n")
        assert cfg.scene.slits[0].window_halfwidth == pytest.approx(
            1.5 * 0.3e-3)


# key tables ----------------------------------------------------------------

# bases that hold a second key of each numbered section, so that dropping a
# required key of that section leaves the section in place
TABLE_BASE = {MatterScenario: QUICK_MATTER + "packet1.x0 = 0.0\n",
              OpticsScenario: QUICK_OPTICS + "slit1.center = 0.0 mm\n"}

# for every key with a rule, a value the rule rejects
REJECTED = {
    MatterScenario: {
        "scenario.name": "../outside",
        "model.type": "frictional",
        "model.gamma": "-1",
        "grid.n_points": "5000000000",
        "time.dt": "0",
        "time.snapshot_every": "0",
        "packet1.sigma0": "-0.5",
        "ensemble.n_trajectories": "1",
        "ensemble.scheme": "sobol",
        "ensemble.dt_traj": "0",
        "checks.required": "norm_drift vibes",
        "checks.norm_tol": "0",
        "checks.tube_tol": "-1",
    },
    OpticsScenario: {
        "scenario.name": "a/b",
        "paths.n_paths": "-3",
        "paths.ds": "0 m",
        "quadrature.source_dx": "-20 um",
        "checks.required": "tube",
    },
}

# keys whose default _build derives from other keys: what it derives for the
# table bases
DERIVED = {MatterScenario: {"ensemble.dt_traj": "0.05"},  # the state spacing
           OpticsScenario: {"paths.z_start": "0.5 m",    # the first plane
                            "paths.ds": "0.25 m"}}       # half a plane gap


def _table_rows(cls):
    """(key, row) for every row of cls's key table; a numbered section's
    keys are named as in its first section."""
    return [(f"{group.replace('*', '1')}.{key}", row)
            for group, rows in cls.keys.items() for key, row in rows.items()]


def _rows_where(pick):
    return [pytest.param(cls, key, row, id=f"{cls.kind}-{key}")
            for cls in (MatterScenario, OpticsScenario)
            for key, row in _table_rows(cls) if pick(cls, key, row)]


def _without(text, key):
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.split("=", 1)[0].strip() != key)


def _with(text, key, value):
    return _without(text, key) + f"{key} = {value}\n"


def _built(cfg):
    """What a config builds, apart from the entries it was written with."""
    return dataclasses.replace(cfg, entries=())


class TestKeyTables:
    def test_every_rule_has_a_rejected_value(self):
        for cls in REJECTED:
            ruled = {key for key, row in _table_rows(cls) if row.rule}
            assert ruled == set(REJECTED[cls])

    @pytest.mark.parametrize("cls, key, row",
                             _rows_where(lambda cls, key, row: row.rule))
    def test_rule_rejects_under_its_key(self, tmp_path, cls, key, row):
        text = _with(TABLE_BASE[cls], key, REJECTED[cls][key])
        with pytest.raises(ValidationError) as info:
            parse_scenario(text)
        assert info.value.key == key
        assert info.value.constraint == row.rule(
            row.conv(REJECTED[cls][key], key))
        path = tmp_path / "s.cfg"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 2

    # "" and () have no text that writes them
    @pytest.mark.parametrize("cls, key, row", _rows_where(
        lambda cls, key, row: key in DERIVED[cls] or row.default not in (
            scenarios._REQUIRED, None, "", ())))
    def test_leaving_out_a_default_writes_it(self, cls, key, row):
        value = DERIVED[cls].get(key, row.default)
        if isinstance(value, float):
            value = repr(value)
        written = parse_scenario(_with(TABLE_BASE[cls], key, value))
        omitted = parse_scenario(_without(TABLE_BASE[cls], key))
        assert _built(omitted) == _built(written)

    @pytest.mark.parametrize("cls, key, row", _rows_where(
        lambda cls, key, row: row.default is scenarios._REQUIRED))
    def test_required_key_missing(self, cls, key, row):
        with pytest.raises(ValidationError) as info:
            parse_scenario(_without(TABLE_BASE[cls], key))
        assert (info.value.key, info.value.constraint) == (
            key, "required key missing")

    @pytest.mark.parametrize("name", ["..", ".", "../up", "a/b", "/abs",
                                      "nul\0byte"])
    def test_name_must_be_one_path_component(self, tmp_path, monkeypatch,
                                             name):
        # an absolute name would have named this directory
        if name == "/abs":
            name = str(tmp_path / "outside")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "env" / "runs"))
        path = tmp_path / "s.cfg"
        path.write_text(_with(QUICK_MATTER, "scenario.name", name))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path)]) == 2
        assert os.listdir(tmp_path) == ["s.cfg"]

    @pytest.mark.parametrize("base, extra", [
        (QUICK_MATTER, "packet01.sigma0 = 2.0\n"),
        (QUICK_MATTER, "packet*.sigma0 = 2.0\n"),
        (QUICK_OPTICS, "slit01.sigma = 0.3 mm\n"),
        (QUICK_OPTICS, "slit*.sigma = 0.3 mm\n")])
    def test_section_numbers_name_one_section(self, base, extra):
        section = extra.split(".", 1)[0]
        with pytest.raises(ValidationError) as info:
            parse_scenario(base + extra)
        assert info.value.key == extra.split(" =", 1)[0]
        assert info.value.constraint == f"unknown section {section!r}"

    @pytest.mark.parametrize("case, key", [
        ("hbar-zero", "model.hbar"), ("mass-zero", "model.mass"),
        ("center-zero", "potential.center")])
    def test_unit_and_origin_keys_unknown(self, case, key):
        with pytest.raises(ValidationError) as info:
            parse_scenario(bad_number_text(case))
        assert info.value.key == key
        section = key.split(".", 1)[0]
        assert info.value.constraint == f"unknown key in section {section!r}"

    def test_numbered_sections_in_number_order(self):
        cfg = parse_scenario(QUICK_MATTER + "packet10.sigma0 = 3.0\n"
                             "packet2.sigma0 = 2.0\npacket0.sigma0 = 0.5\n")
        assert [p["sigma0"] for p in cfg.packets] == [0.5, 1.0, 2.0, 3.0]

    def test_cross_key_rules_name_their_key(self):
        for text, key in (
                (_with(QUICK_MATTER, "time.t0", "1.0"), "time.t_final"),
                (_with(QUICK_MATTER, "grid.n_points", "4"), "grid"),
                (_with(QUICK_MATTER, "potential.kind", "well"), "potential")):
            with pytest.raises(ValidationError) as info:
                parse_scenario(text)
            assert info.value.key == key


class TestCatalog:
    def test_every_builtin_parses(self):
        for name in list_scenarios():
            cfg = builtin_scenario(name)
            assert cfg.name == name

    def test_descriptions_present(self):
        for name, (desc, text) in list_scenarios().items():
            assert desc
            assert text.startswith(f"scenario.name = {name}")

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            builtin_scenario("fig99")

    def test_superposition_scenario_flags_invented_defaults(self):
        cfg = builtin_scenario("fig3-superposition")
        assert "not published" in cfg.notes
        assert len(cfg.packets) == 2


# work bound ----------------------------------------------------------------

def _load_workloads():
    """perfbench/workloads.py, executed from its source (nothing written)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "workloads.py")
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # dataclasses look it up by name
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


@pytest.fixture
def fiftieth_of_work_bounds(monkeypatch):
    """Divide every work, count and memory bound (each scenarios.MAX_*) by
    50: what validates then has 50x headroom."""
    for name in dir(scenarios):
        if name.startswith("MAX_"):
            monkeypatch.setattr(scenarios, name,
                                getattr(scenarios, name) / 50)


class TestWorkBound:
    @pytest.mark.usefixtures("fiftieth_of_work_bounds")
    @pytest.mark.parametrize("scale", ["full", "mini"])
    def test_benchmark_workloads_validate(self, scale):
        workloads = _load_workloads()
        types_ = {"matter_wave": MatterScenario, "optics": OpticsScenario}
        for workload in workloads.WORKLOADS:
            for seed in (1, 2, 3):
                scn = workloads.build(workload, seed, scale)
                cfg = parse_scenario(scn.text)
                assert type(cfg) is types_[scn.params["kind"]]

    @pytest.mark.usefixtures("fiftieth_of_work_bounds")
    def test_catalog_within_bound(self):
        for name in list_scenarios():
            builtin_scenario(name)


# property tests ------------------------------------------------------------

_LINES = [(text, i) for text in (QUICK_MATTER, QUICK_OPTICS)
          for i in range(len(text.splitlines()))]
_VALUES = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
            max_size=30),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats().map(lambda v: f"{v!r} mm"))


@st.composite
def _mutated(draw):
    """QUICK_MATTER or QUICK_OPTICS with one line's value replaced by drawn
    text or a drawn number, or with one line dropped or duplicated."""
    text, i = draw(st.sampled_from(_LINES))
    lines = text.splitlines()
    action = draw(st.sampled_from(["value", "drop", "duplicate"]))
    if action == "value":
        lines[i] = lines[i].split("=", 1)[0] + "= " + draw(_VALUES)
    elif action == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_mutated())
def test_validate_is_total_and_round_trips(tmp_path, text):
    path = tmp_path / "s.cfg"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", str(path)]) in (0, 2)
    try:
        cfg = parse_scenario(text)
    except (ParseError, ValidationError):
        return
    again = parse_scenario(cfg.to_text())
    assert again.entries == cfg.entries
    assert again.sha256() == cfg.sha256()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_WORDS = ("standard", "caldirola_kanai", "kostin", "free", "harmonic",
          "quantile", "equal_spacing", "norm_drift non_crossing tube",
          "paths_non_crossing", "matter_wave", "optics")
_SPECIALS = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "0 mm",
             "-2 mm", "0.5 m 0.5 m", "2.0 : 0.5 : 4")


def _scaled(value, factor):
    """value with every number in it multiplied by factor (integers stay
    integers), so that a drawn run is never much larger than its base."""
    def scale(m):
        tok = m.group(0)
        if re.fullmatch(r"[-+]?\d+", tok):
            return str(int(round(int(tok) * factor)))
        return repr(float(tok) * factor)
    return _NUMBER.sub(scale, value)


@st.composite
def _run_variant(draw):
    """QUICK_MATTER or QUICK_OPTICS with one value replaced by a scaled
    copy (factor in [-4, 4]), a special number, a known word or drawn
    letters; never by a number large enough to make a long run."""
    text, i = draw(st.sampled_from(_LINES))
    lines = text.splitlines()
    key, value = (part.strip() for part in lines[i].split("=", 1))
    new = draw(st.one_of(
        st.floats(-4.0, 4.0).map(lambda f: _scaled(value, f)),
        st.sampled_from(_SPECIALS + _WORDS),
        st.text(alphabet="abcxyz .:-_", max_size=8)))
    lines[i] = f"{key} = {new}"
    return "\n".join(lines) + "\n"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=_run_variant())
def test_run_exit_code_and_manifest(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("run")
    path = tmp / "s.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp / "out"
    code = cli.main(["run", str(path), "--out-dir", str(out)])
    assert code in (0, 2, 3, 4)
    if code != 2:
        manifest = strict_json((out / "manifest.json").read_text())
        assert manifest["failure_kind"] == {0: None, 3: "check",
                                            4: "numeric"}[code]


# orchestration -------------------------------------------------------------

class TestRunScenario:
    def test_matter_run_artifacts(self, tmp_path):
        cfg = parse_scenario(QUICK_MATTER)
        art = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert art.ok
        names = {os.path.basename(f) for f in art.files}
        assert names == {"series.txt", "snapshot_initial.txt",
                         "snapshot_final.txt", "bundle.txt", "manifest.json"}
        m = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert m["name"] == "quick"
        assert m["config_sha256"] == cfg.sha256()
        assert m["failure_kind"] is None
        assert m["out_dir_source"] == "argument"
        checks = {c["name"]: c for c in m["checks"]}
        assert checks["norm_drift"]["passed"]
        assert checks["non_crossing"]["passed"]
        assert checks["tube"]["passed"]
        assert [s["status"] for s in m["stages"]] == ["ok", "ok"]

    def test_optics_run_artifacts(self, tmp_path):
        cfg = parse_scenario(QUICK_OPTICS)
        art = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert art.ok
        names = {os.path.basename(f) for f in art.files}
        assert names == {"plane_000.txt", "plane_001.txt", "plane_002.txt",
                         "plane_003.txt", "paths.txt", "manifest.json"}
        checks = {c["name"] for c in art.manifest["checks"]}
        assert "paths_non_crossing" in checks

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envdir"))
        cfg = parse_scenario(QUICK_MATTER)
        art = run_scenario(cfg)
        assert art.out_dir == str(tmp_path / "envdir" / "quick")
        assert art.manifest["out_dir_source"] == "environment"

    def test_out_dir_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        cfg = parse_scenario(QUICK_MATTER)
        art = run_scenario(cfg)
        assert art.out_dir == os.path.join("runs", "quick")
        assert art.manifest["out_dir_source"] == "default"

    def test_required_check_never_run_fails(self, tmp_path):
        text = QUICK_MATTER.replace("ensemble.n_trajectories = 6",
                                    "ensemble.n_trajectories = 0")
        art = run_scenario(parse_scenario(text),
                           out_dir=str(tmp_path / "out"))
        assert art.failure_kind == "check"
        assert "non_crossing" in art.manifest["failed_checks"]

    def test_missing_required_check_is_null_in_strict_json(self, tmp_path,
                                                           capsys):
        # no ensemble, so the required tube check never runs: its value and
        # threshold are nan in memory and on the check line, null on disk
        text = (QUICK_MATTER.replace("ensemble.n_trajectories = 6",
                                     "ensemble.n_trajectories = 0")
                .replace("checks.required = norm_drift non_crossing",
                         "checks.required = norm_drift tube"))
        path = tmp_path / "s.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 3
        assert "check tube: FAIL  value=nan (required)" in (
            capsys.readouterr().out.splitlines())
        m = strict_json((out / "manifest.json").read_text())
        assert m["failed_checks"] == ["tube"]
        tube = {c["name"]: c for c in m["checks"]}["tube"]
        assert tube == {"name": "tube", "value": None, "threshold": None,
                        "passed": False, "required": True}

    def test_numeric_failure_still_writes_manifest(self, tmp_path):
        art = run_scenario(parse_scenario(UNSTABLE_MATTER),
                           out_dir=str(tmp_path / "out"))
        assert art.failure_kind == "numeric"
        m = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert m["stages"][-1]["status"] == "failed"
        assert "StabilityViolation" in m["stages"][-1]["error"]

    def test_step_count_overflow_is_numeric_failure(self, tmp_path):
        # validation rejects this step count; a library caller can still
        # build it, and the run must then fail as numeric
        cfg = dataclasses.replace(parse_scenario(QUICK_MATTER), dt=1e-300,
                                  t_final=1e300)
        art = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        assert art.failure_kind == "numeric"
        m = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "OverflowError" in m["stages"][-1]["error"]

    def test_interrupted_manifest_write_keeps_old_manifest(self, tmp_path,
                                                           monkeypatch):
        cfg = parse_scenario(QUICK_MATTER)
        out = tmp_path / "out"
        run_scenario(cfg, out_dir=str(out))
        before = (out / "manifest.json").read_text()

        def interrupted_dump(obj, fh, **kw):
            fh.write('{"name": ')
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted_dump)
        with pytest.raises(KeyboardInterrupt):
            run_scenario(cfg, out_dir=str(out))
        assert (out / "manifest.json").read_text() == before
        assert not [n for n in os.listdir(out) if n.endswith(".tmp")]

    @pytest.mark.parametrize("stage", ["propagate", "fresnel"])
    def test_memory_error_is_numeric_failure(self, tmp_path, monkeypatch,
                                             capsys, stage):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("cannot allocate")

        from qstream import optics, propagators
        module, name, text = {
            "propagate": (propagators, "propagate", QUICK_MATTER),
            "fresnel": (optics, "fresnel_propagate", QUICK_OPTICS)}[stage]
        monkeypatch.setattr(module, name, out_of_memory)
        path = tmp_path / "s.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 4
        m = json.loads((out / "manifest.json").read_text())
        assert m["failure_kind"] == "numeric"
        assert m["stages"][-1]["name"] == stage
        assert m["stages"][-1]["status"] == "failed"
        assert m["stages"][-1]["error"] == "MemoryError: cannot allocate"
        assert "MemoryError" in capsys.readouterr().err

    def test_manifest_telemetry(self, tmp_path):
        runs = ((QUICK_MATTER, ["propagate", "trajectories"]),
                (QUICK_OPTICS, ["fresnel", "paths"]))
        for text, stages in runs:
            out = tmp_path / stages[0]
            run_scenario(parse_scenario(text), out_dir=str(out))
            m = json.loads((out / "manifest.json").read_text())
            assert [s["name"] for s in m["stages"]] == stages
            times = [s["wall_time_s"] for s in m["stages"]]
            assert min(times) >= 0.0
            assert sum(times) <= m["wall_time_s"]
            assert m["peak_rss_mib"] > 0.0
            assert m["versions"] == {"numpy": np.__version__,
                                     "python": platform.python_version()}
            rss = [s["peak_rss_mib"] for s in m["stages"]]
            assert 0.0 < rss[0] <= rss[1] <= m["peak_rss_mib"]
            if stages[0] == "propagate":
                assert m["stages"][0]["steps"] == 50  # 0.5 / 0.01
                assert m["stages"][0]["fft_shape"] == [1, 256]  # plain
                traj = m["stages"][1]
                assert traj["mesh_steps"] == 10  # 0.5 / 0.05
                assert traj["fallback_rows"] == 0
                assert traj["halvings"] == 0
            else:
                fresnel, paths = m["stages"]
                assert fresnel["planes"] == 4
                # the retained (Sx, Sz, U) lattice: 4 planes x 401 points
                assert fresnel["lattice_mib"] == 3 * 4 * 401 * 8 / 2 ** 20
                assert paths["stagnated_paths"] == 0
                assert paths["escaped_paths"] == 0

    def test_optics_memory_grows_only_with_the_lattice(self, tmp_path):
        # each plane is built, filled into the (Sx, Sz, U) lattice (24 B a
        # point) and written before the next, so 11x the planes may raise
        # the traced peak by at most 32 B per added lattice point; holding
        # psi and its gradients for every plane cost about 127 B
        text = (QUICK_OPTICS.replace("grid.n_points = 401",
                                     "grid.n_points = 801")
                .replace("paths.n_paths = 4", "paths.n_paths = 0")
                .replace("checks.required = paths_non_crossing\n", ""))
        peaks = {}
        for n_planes in (4, 44):
            cfg = parse_scenario(text.replace("0.5 : 2.0 : 4",
                                              f"0.5 : 2.0 : {n_planes}"))
            tracemalloc.start()
            try:
                art = run_scenario(cfg, out_dir=str(tmp_path / str(n_planes)))
                peaks[n_planes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert art.ok
        assert peaks[44] - peaks[4] <= 32 * 40 * 801

    def test_manifest_records_blocked_fft_shape(self, tmp_path):
        text = (QUICK_MATTER.replace("grid.n_points = 256",
                                     "grid.n_points = 8192")
                .replace("time.t_final = 0.5", "time.t_final = 0.05")
                .replace("ensemble.n_trajectories = 6",
                         "ensemble.n_trajectories = 0")
                .replace("checks.required = norm_drift non_crossing",
                         "checks.required = norm_drift"))
        art = run_scenario(parse_scenario(text), out_dir=str(tmp_path))
        assert art.ok
        assert art.manifest["stages"][0]["fft_shape"] == [128, 64]

    @pytest.mark.parametrize("n, prime, warned",
                             [(8198, 4099, True), (2048, 2, False)])
    def test_manifest_records_largest_fft_prime(self, tmp_path, caplog, n,
                                                prime, warned):
        # 8198 = 2 * 4099 runs every transform on numpy.fft's slow path
        text = (QUICK_MATTER.replace("grid.n_points = 256",
                                     f"grid.n_points = {n}")
                .replace("time.t_final = 0.5", "time.t_final = 0.05")
                .replace("ensemble.n_trajectories = 6",
                         "ensemble.n_trajectories = 0")
                .replace("checks.required = norm_drift non_crossing",
                         "checks.required = norm_drift"))
        with caplog.at_level(logging.WARNING, logger="qstream"):
            art = run_scenario(parse_scenario(text), out_dir=str(tmp_path))
        assert art.ok
        assert art.manifest["stages"][0]["fft_largest_prime"] == prime
        warnings = [r for r in caplog.records
                    if r.levelno >= logging.WARNING]
        assert len(warnings) == warned
        if warned:
            assert str(prime) in warnings[0].getMessage()

    def test_manifest_counts_stagnated_and_escaped_paths(self, tmp_path,
                                                         monkeypatch):
        # one path past the last plane (z = 2.0 m), one frozen at a
        # stagnation point, one out across the side, one behind the first
        # plane
        def ends(x0s, z0, sampler, ds=None):
            s = np.arange(2.0)
            return [qo.PhotonPath(s, np.array([0.0, 1e-3]),
                                  np.array([z0, 2.05])),
                    qo.PhotonPath(s, np.array([0.0, 1e-3]),
                                  np.array([z0, 1.0]), stagnated=True),
                    qo.PhotonPath(s, np.array([0.0, 6e-3]),
                                  np.array([z0, 1.0])),
                    qo.PhotonPath(s, np.array([0.0, 1e-3]),
                                  np.array([z0, 0.4]))]

        monkeypatch.setattr(qo, "photon_path_bundle", ends)
        art = run_scenario(parse_scenario(QUICK_OPTICS),
                           out_dir=str(tmp_path))
        paths = art.manifest["stages"][1]
        assert paths["name"] == "paths"
        assert paths["stagnated_paths"] == 1
        assert paths["escaped_paths"] == 2

    def test_streamed_march_time_counts_for_the_trajectory_stage(
            self, tmp_path, monkeypatch):
        take = qt.BundleStream.__call__

        def slow(self, psi):
            time.sleep(0.02)
            take(self, psi)

        monkeypatch.setattr(qt.BundleStream, "__call__", slow)
        start = time.perf_counter()
        art = run_scenario(parse_scenario(QUICK_MATTER),
                           out_dir=str(tmp_path / "out"))
        elapsed = time.perf_counter() - start
        prop, traj = art.manifest["stages"]
        assert traj["wall_time_s"] >= 11 * 0.02  # 11 stored states
        assert prop["wall_time_s"] <= elapsed - 11 * 0.02

    def test_trajectory_error_fails_its_own_stage(self, tmp_path,
                                                  monkeypatch):
        # the march runs during the propagation, but an error in it fails
        # the trajectory stage, after the propagation wrote its files
        calls = []
        take = qt.BundleStream.__call__

        def failing(self, psi):
            calls.append(psi.time)
            if len(calls) == 3:
                raise NodeEncounter("no velocity")
            take(self, psi)

        monkeypatch.setattr(qt.BundleStream, "__call__", failing)
        art = run_scenario(parse_scenario(QUICK_MATTER),
                           out_dir=str(tmp_path / "out"))
        m = art.manifest
        assert [(s["name"], s["status"]) for s in m["stages"]] == [
            ("propagate", "ok"), ("trajectories", "failed")]
        assert m["stages"][1]["error"] == "NodeEncounter: no velocity"
        assert m["failure_kind"] == "numeric"
        assert m["files"] == ["series.txt", "snapshot_initial.txt",
                              "snapshot_final.txt"]
        assert len(calls) == 3  # no state is fed after the error

    def test_failed_stage_records_wall_time(self, tmp_path):
        art = run_scenario(parse_scenario(UNSTABLE_MATTER),
                           out_dir=str(tmp_path / "out"))
        stage = art.manifest["stages"][-1]
        assert stage["status"] == "failed"
        assert 0.0 <= stage["wall_time_s"] <= art.manifest["wall_time_s"]

    def test_required_checks_override(self, tmp_path):
        cfg = parse_scenario(QUICK_MATTER)
        art = run_scenario(cfg, out_dir=str(tmp_path / "out"),
                           required_checks=("tube",))
        assert art.manifest["required_checks"] == ["tube"]

    @pytest.mark.parametrize("text, name", [(QUICK_MATTER, "bogus"),
                                            (QUICK_OPTICS, "tube")])
    def test_unknown_required_checks_override_rejected(self, tmp_path, text,
                                                       name):
        # the config file's own rule, before anything runs
        with pytest.raises(ValidationError, match="unknown check"):
            run_scenario(parse_scenario(text), out_dir=str(tmp_path / "out"),
                         required_checks=(name,))
        assert not (tmp_path / "out").exists()


# command line --------------------------------------------------------------

class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in list_scenarios():
            assert name in out

    def test_validate_good_file(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text(QUICK_MATTER)
        assert cli.main(["validate", str(path)]) == 0
        assert "valid matter_wave scenario" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text("scenario.kind = matter_wave\nbroken\n")
        assert cli.main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_validate_missing_file(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "nope.cfg")]) == 2

    def test_emit_defaults(self, capsys):
        assert cli.main(["emit-defaults", "fig2a"]) == 0
        text = capsys.readouterr().out
        assert parse_scenario(text).name == "fig2a"

    def test_emit_defaults_unknown(self):
        assert cli.main(["emit-defaults", "fig99"]) == 2

    def test_run_unknown_scenario(self):
        assert cli.main(["run", "fig99"]) == 2

    def test_directory_does_not_hide_catalog_entry(self, tmp_path,
                                                   monkeypatch):
        # a run's output directory may bear its scenario's name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "oracle-gaussian-beam").mkdir()
        assert cli.main(["run", "oracle-gaussian-beam", "--out-dir",
                         str(tmp_path / "out")]) == 0

    def test_run_reports_checks(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text(QUICK_MATTER)
        code = cli.main(["run", str(path), "--out-dir",
                         str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "check norm_drift: pass" in out
        assert "check non_crossing: pass" in out
        assert "wrote" in out

    def test_run_required_check_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text(QUICK_MATTER.replace("ensemble.n_trajectories = 6",
                                             "ensemble.n_trajectories = 0"))
        code = cli.main(["run", str(path), "--out-dir",
                         str(tmp_path / "out")])
        assert code == 3
        assert "required checks failed" in capsys.readouterr().err

    def test_run_unknown_required_checks_exit_code(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text(QUICK_MATTER)
        out = tmp_path / "out"
        code = cli.main(["run", str(path), "--out-dir", str(out),
                         "--required-checks", "norm_drift,bogus"])
        assert code == 2
        assert "unknown check 'bogus'" in capsys.readouterr().err
        assert not out.exists()  # no stage ran

    def test_unresolved_optics_grid_exit_code(self, tmp_path, capsys):
        # dx = 25 um cannot resolve the finest fringe of a 6.6 mm aperture
        # support at 0.5 m (lambda z_min / (4 span) = 17.9 um); the rule
        # reads only the config, so it fails validation, not the run
        path = tmp_path / "s.cfg"
        path.write_text(TWO_SLIT_OPTICS.replace("grid.n_points = 801",
                                                "grid.n_points = 401"))
        assert cli.main(["validate", str(path)]) == 2
        assert "grid.n_points: grid dx = 2.5e-05 must be < " in (
            capsys.readouterr().err)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 2
        assert "grid.n_points: grid dx" in capsys.readouterr().err
        assert not out.exists()

    def test_run_numeric_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text(UNSTABLE_MATTER)
        code = cli.main(["run", str(path), "--out-dir",
                         str(tmp_path / "out")])
        assert code == 4
        assert "failed" in capsys.readouterr().err

    def test_run_non_finite_state_exit_code(self, tmp_path, capsys):
        # exp(gamma t) V overflows the first step's half-potential phase
        # on this wide grid; the run stops at that step, as a scan of the
        # state it would make stops, not at a later step's overflow of
        # exp(gamma t) itself
        path = tmp_path / "s.cfg"
        path.write_text(
            "scenario.name = ck-overflow\nscenario.kind = matter_wave\n"
            "model.type = caldirola_kanai\nmodel.gamma = 5.6e5\n"
            "potential.kind = harmonic\npotential.omega0 = 1.0\n"
            "grid.x_min = -2000\ngrid.x_max = 2000\ngrid.n_points = 256\n"
            "time.dt = 2.5e-3\ntime.t_final = 0.025\n"
            "time.snapshot_every = 5\npacket1.sigma0 = 1.0\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 4
        m = strict_json((out / "manifest.json").read_text())
        assert m["failure_kind"] == "numeric"
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: stage propagate failed: ValueError: wavefunction "
            "contains non-finite values")

    @pytest.mark.parametrize("weight, norm", [("1e308", "inf"),
                                              ("0", "0.0")])
    @pytest.mark.parametrize("n_traj", [0, 6])
    def test_initial_norm_not_finite_and_positive_exit_code(
            self, tmp_path, capsys, weight, norm, n_traj):
        # the weight overflows the superposition's norm, or zeroes it:
        # there is no state to normalize, and no trajectory stage runs
        path = tmp_path / "s.cfg"
        path.write_text(
            QUICK_MATTER.replace("packet1.sigma0 = 1.0",
                                 f"packet1.sigma0 = 1.0\n"
                                 f"packet1.weight = {weight}")
            .replace("ensemble.n_trajectories = 6",
                     f"ensemble.n_trajectories = {n_traj}"))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 4
        m = strict_json((out / "manifest.json").read_text())
        assert m["failure_kind"] == "numeric"
        assert [(s["name"], s["status"]) for s in m["stages"]] == [
            ("propagate", "failed")]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: stage propagate failed: ValueError: packet "
            f"superposition has norm {norm}: must be finite and > 0")

    def test_out_dir_that_cannot_be_made_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("a file\n")
        assert cli.main(["run", "oracle-gaussian-beam", "--out-dir",
                         str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.read_text() == "a file\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_manifest_that_cannot_be_written_exit_code(self, tmp_path,
                                                       capsys):
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        assert cli.main(["run", "oracle-gaussian-beam", "--out-dir",
                         str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "manifest.json" in err
        assert sorted(os.listdir(out)) == [
            "manifest.json", "plane_000.txt", "plane_001.txt",
            "plane_002.txt"]
        (out / "manifest.json").rmdir()  # no manifest left to parse

    def test_matter_grid_points_bounded(self, tmp_path, capsys):
        # 5e9 points x 2 steps is within MAX_MATTER_WORK, but one state
        # would take 80 GB
        path = tmp_path / "s.cfg"
        for n_points, code in ((scenarios.MAX_GRID_POINTS, 0),
                               (5_000_000_000, 2)):
            path.write_text(QUICK_MATTER
                            .replace("grid.n_points = 256",
                                     f"grid.n_points = {n_points}")
                            .replace("time.dt = 0.01", "time.dt = 0.001")
                            .replace("time.t_final = 0.5",
                                     "time.t_final = 0.002"))
            assert cli.main(["validate", str(path)]) == code
        assert "grid.n_points" in capsys.readouterr().err

    def test_file_error_in_a_stage_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "plane_000.txt").mkdir(parents=True)
        assert cli.main(["run", "oracle-gaussian-beam", "--out-dir",
                         str(out)]) == 4
        assert "stage fresnel failed" in capsys.readouterr().err
        m = strict_json((out / "manifest.json").read_text())
        assert m["failure_kind"] == "io"
        [stage] = m["stages"]
        assert stage["name"] == "fresnel" and stage["status"] == "failed"
        assert stage["error"].startswith("IsADirectoryError: ")
        assert "plane_000.txt" in stage["error"]
        assert m["files"] == []
        assert sorted(os.listdir(out)) == ["manifest.json", "plane_000.txt"]

    @pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
    def test_bad_number_exit_code(self, tmp_path, case):
        path = tmp_path / "s.cfg"
        path.write_text(bad_number_text(case))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out-dir",
                         str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_slits, n_paths",
                             [(2, 1), (2, 2), (2, 3), (2, 41), (1, 1)])
    def test_path_count_the_slits_cannot_share_exit_code(self, tmp_path,
                                                         n_slits, n_paths):
        # every slit launches n_paths / n_slits paths, and needs 2
        text = QUICK_OPTICS if n_slits == 1 else TWO_SLIT_OPTICS
        path = tmp_path / "s.cfg"
        path.write_text(text.replace("paths.n_paths = 4",
                                     f"paths.n_paths = {n_paths}"))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out-dir",
                         str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValidationError, match="paths.n_paths"):
            parse_scenario(path.read_text())
        # 2 paths per slit is a valid count
        assert parse_scenario(text).paths["n_paths"] == 4

    def test_paths_non_crossing_fails_when_no_two_paths_reach_last_plane(
            self, tmp_path, capsys):
        # on a grid of +/-0.4 mm every path leaves across the side before
        # the last plane, so there is no ordering left to compare
        path = tmp_path / "s.cfg"
        path.write_text(
            "scenario.name = escaping-paths\nscenario.kind = optics\n"
            "optics.wavelength = 943 nm\noptics.z_planes = 0.5 : 8.0 : 31\n"
            "grid.x_min = -0.4 mm\ngrid.x_max = 0.4 mm\n"
            "grid.n_points = 1601\n"
            "slit1.sigma = 0.1 mm\nslit1.center = 0.2 mm\n"
            "slit2.sigma = 0.1 mm\nslit2.center = -0.2 mm\n"
            "paths.n_paths = 4\npaths.ds = 0.05 m\n"
            "quadrature.source_dx = 8 um\n"
            "checks.required = paths_non_crossing\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 3
        assert "check paths_non_crossing: FAIL  value=nan (required)" in (
            capsys.readouterr().out)
        m = strict_json((out / "manifest.json").read_text())
        assert m["stages"][-1]["escaped_paths"] == 4
        assert m["paths_non_crossing"] == {"ok": False, "min_gap": None}
        [check] = m["checks"]
        assert check["name"] == "paths_non_crossing"
        assert not check["passed"] and check["value"] is None
        assert m["failed_checks"] == ["paths_non_crossing"]

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        text = list_scenarios()["fig4-symmetric"][1]
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert cli.main(["validate", str(marked)]) == 0
        assert "valid optics scenario 'fig4-symmetric'" in (
            capsys.readouterr().out)
        assert cli._read(str(marked)).sha256() == (
            cli._read(str(plain)).sha256())
        # bytes that are not UTF-8 after the mark are still unreadable
        marked.write_bytes(b"\xef\xbb\xbfscenario.name = x\xff\n")
        assert cli.main(["validate", str(marked)]) == 2

    def test_run_parse_failure_exit_code(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("gibberish\n")
        assert cli.main(["run", str(path)]) == 2

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_unreadable_file_exit_code(self, tmp_path, capsys, case):
        path = tmp_path / "s.cfg"
        UNREADABLE[case](path)
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out-dir",
                         str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert "error" in capsys.readouterr().err


def test_initial_state_superposition_normalized():
    from qstream.fields import norm
    from qstream.scenarios import initial_state
    text = QUICK_MATTER + "packet2.sigma0 = 0.5\npacket2.x0 = 3.0\n" \
        + "packet2.weight = 0.5\npacket2.phase = 0.7\n"
    cfg = parse_scenario(text)
    psi = initial_state(cfg)
    assert norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_stroboscopic_config_sha_stable():
    a = builtin_scenario("fig2a")
    b = builtin_scenario("fig2a")
    assert a.sha256() == b.sha256()
