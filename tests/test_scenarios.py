"""Scenario config grammar, built-in catalog, run orchestration, and the
command-line interface."""

import json
import math
import os

import numpy as np
import pytest

from qstream import cli
from qstream.errors import ParseError, ValidationError
from qstream.scenarios import (OUT_DIR_ENV, builtin_scenario, list_scenarios,
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

# Non-finite or out-of-range numbers, each of which must fail validation
# (exit 2) rather than escape from the run: (base text, old line, new line).
BAD_NUMBERS = {
    "t_final-inf": (QUICK_MATTER, "time.t_final = 0.5", "time.t_final = inf"),
    "dt-nan": (QUICK_MATTER, "time.dt = 0.01", "time.dt = nan"),
    "gamma-nan": (QUICK_MATTER, "model.type = standard",
                  "model.type = standard\nmodel.gamma = nan"),
    "x0-nan": (QUICK_MATTER, "packet1.sigma0 = 1.0",
               "packet1.sigma0 = 1.0\npacket1.x0 = nan"),
    "hbar-zero": (QUICK_MATTER, "model.type = standard",
                  "model.type = standard\nmodel.hbar = 0"),
    "gamma-negative": (QUICK_MATTER, "model.type = standard",
                       "model.type = standard\nmodel.gamma = -1"),
    "one-trajectory": (QUICK_MATTER, "ensemble.n_trajectories = 6",
                       "ensemble.n_trajectories = 1"),
    "dt_traj-zero": (QUICK_MATTER, "ensemble.dt_traj = 0.05",
                     "ensemble.dt_traj = 0"),
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
        with pytest.raises(ValidationError):
            parse_scenario(QUICK_MATTER + "sauce.level = 11\n")

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

    def test_window_and_window_sigmas_exclusive(self):
        bad = QUICK_OPTICS + "slit1.window = 1 mm\nslit1.window_sigmas = 2\n"
        with pytest.raises(ValidationError):
            parse_scenario(bad)

    @pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
    def test_bad_number_rejected(self, case):
        with pytest.raises(ValidationError):
            parse_scenario(bad_number_text(case))

    def test_window_sigmas_scales_sigma(self):
        cfg = parse_scenario(QUICK_OPTICS + "slit1.window_sigmas = 1.5\n")
        assert cfg.scene.slits[0].window_halfwidth == pytest.approx(
            1.5 * 0.3e-3)


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

    def test_numeric_failure_still_writes_manifest(self, tmp_path):
        text = QUICK_MATTER.replace("time.dt = 0.01", "time.dt = 5.0") \
                           .replace("time.t_final = 0.5",
                                    "time.t_final = 10.0") \
                           .replace("packet1.sigma0 = 1.0",
                                    "packet1.sigma0 = 0.05")
        art = run_scenario(parse_scenario(text),
                           out_dir=str(tmp_path / "out"))
        assert art.failure_kind == "numeric"
        m = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert m["stages"][-1]["status"] == "failed"
        assert "StabilityViolation" in m["stages"][-1]["error"]

    def test_step_count_overflow_is_numeric_failure(self, tmp_path):
        text = QUICK_MATTER.replace("time.dt = 0.01", "time.dt = 1e-300") \
                           .replace("time.t_final = 0.5",
                                    "time.t_final = 1e300")
        art = run_scenario(parse_scenario(text),
                           out_dir=str(tmp_path / "out"))
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

    def test_required_checks_override(self, tmp_path):
        cfg = parse_scenario(QUICK_MATTER)
        art = run_scenario(cfg, out_dir=str(tmp_path / "out"),
                           required_checks=("tube",))
        assert art.manifest["required_checks"] == ["tube"]


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

    def test_run_numeric_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text(QUICK_MATTER
                        .replace("time.dt = 0.01", "time.dt = 5.0")
                        .replace("time.t_final = 0.5", "time.t_final = 10.0")
                        .replace("packet1.sigma0 = 1.0",
                                 "packet1.sigma0 = 0.05"))
        code = cli.main(["run", str(path), "--out-dir",
                         str(tmp_path / "out")])
        assert code == 4
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
    def test_bad_number_exit_code(self, tmp_path, case):
        path = tmp_path / "s.cfg"
        path.write_text(bad_number_text(case))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out-dir",
                         str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_run_parse_failure_exit_code(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("gibberish\n")
        assert cli.main(["run", str(path)]) == 2


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
