"""The qstream benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload ck-ensemble --seed 1 --seconds 30 --trace 0

Run from a source checkout (it uses ../src, nothing installed). The
workload's scenario text is generated from the seed, then `qstream run` is
executed in fresh single-threaded child processes, one at a time, for about
`--seconds` (at least three runs). Each run's outputs are checked: exit code,
required checks, file set and a closed-form oracle.

--trace 0 prints the end-to-end metrics (medians over the runs).
--trace 1 first runs the same scenario once more with every public layer
function wrapped in a span, prints the per-layer metrics and the tracing
overhead, and fails unless the traced run's check values equal the
untraced runs' bit for bit.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Full records, provenance and spans go to
.perfbench/<workload>-s<seed>-t<trace>/ in the checkout.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
    "ok_ratio": "ratio", "check_ratio": "ratio", "oracle_err": "ratio",
}
PER_LAYER = {
    "fields.polar_decompose_us": "us",
    "fields.velocity_field_us": "us",
    "fields.write_snapshot_s": "s",
    "propagators.propagate_s": "s",
    "propagators.steps": "count",
    "propagators.point_steps_per_s": "1/s",
    "propagators.step_us": "us",
    "propagators.snapshot_mib": "MiB",
    "propagators.write_series_s": "s",
    "trajectories.sampler_build_s": "s",
    "trajectories.sample_us": "us",
    "trajectories.integrate_bundle_s": "s",
    "trajectories.mesh_steps": "count",
    "trajectories.failed_rows": "ratio",
    "trajectories.tube_s": "s",
    "trajectories.tube_calls": "count",
    "trajectories.non_crossing_s": "s",
    "trajectories.write_bundle_s": "s",
    "optics.fresnel_s": "s",
    "optics.fresnel_plane_ms": "ms",
    "optics.n_src": "count",
    "optics.kernel_mib": "MiB",
    "optics.poynting_build_s": "s",
    "optics.paths_s": "s",
    "optics.path_steps": "count",
    "optics.stagnated_paths": "count",
    "optics.write_profiles_s": "s",
    "optics.write_paths_s": "s",
    "scenarios.parse_s": "s",
    "scenarios.self_s": "s",
    "scenarios.out_mib": "MiB",
    "scenarios.files": "count",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

MIN_RUNS = 3
# Nothing new starts after this many seconds, and a child still running at
# it is killed, so one invocation ends well inside 180 s.
DEADLINE_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("QSTREAM_OUT_DIR", None)
    return env


def run_child(script, args, timeout):
    """Run a perfbench child script; returns (returncode, record, stderr,
    popen time). record is the child's last stdout line parsed as JSON,
    or None. A child still running at the timeout is killed."""
    t_popen = now()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, script),
                             *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(),
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s"
    record = None
    lines = out.strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, record, err[-2000:], t_popen


class Measurement:
    """Untraced runs of one scenario until the time budget is spent."""

    def __init__(self, scn, run_dir, corrupt=None):
        self.scn = scn
        self.run_dir = run_dir
        self.cfg = os.path.join(run_dir, "scenario.cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(scn.text)
        self.corrupt = corrupt      # self-test hook: damages the outputs
        self.samples = []           # successful runs
        self.attempted = 0
        self.failures = []
        self.reference = None       # (check values, config_sha256)
        self.child_s = []           # whole-child durations, for pacing

    def judge(self, out_dir, rc, record):
        """Check one run's outputs; returns its Outcome."""
        if self.corrupt is not None:
            self.corrupt(out_dir)
        outcome = workloads.check_outputs(self.scn, out_dir, rc)
        if outcome.ok and record is None:
            outcome.ok = False
            outcome.reasons.append("no timing record")
        if outcome.ok:
            ident = (outcome.check_values(),
                     outcome.manifest["config_sha256"])
            if self.reference is None:
                self.reference = ident
            elif ident != self.reference:
                outcome.ok = False
                outcome.reasons.append("outputs differ from the first run "
                                       "of the same scenario")
        return outcome

    def run_once(self, deadline):
        out_dir = os.path.join(self.run_dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        rc, record, err, t_popen = run_child(
            "child.py", [self.cfg, out_dir], deadline - now())
        self.child_s.append(now() - t_popen)
        self.attempted += 1
        outcome = self.judge(out_dir, rc, record)
        if outcome.ok:
            record["setup_s"] = record.pop("t_setup") - t_popen
            record["oracle_err"] = outcome.oracle_err
            record["check_ratio"] = outcome.check_ratio
            self.samples.append(record)
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            self.failures.append({"reasons": outcome.reasons, "rc": rc,
                                  "stderr": err})
            if len(self.failures) == 1 and os.path.isdir(out_dir):
                # keep the first failure's outputs for diagnosis
                os.replace(out_dir, os.path.join(self.run_dir, "failed"))

    def loop(self, start, seconds):
        deadline = start + DEADLINE_S
        while True:
            elapsed = now() - start
            pace = statistics.median(self.child_s) if self.child_s else 0.0
            if len(self.child_s) >= MIN_RUNS and elapsed + pace > seconds:
                break
            if elapsed + pace > DEADLINE_S:
                break
            self.run_once(deadline)

    def end_to_end(self):
        runs = self.samples
        if not runs:
            return None
        med = {k: statistics.median(r[k] for r in runs)
               for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")}
        med["ok_ratio"] = len(runs) / len(self.child_s)
        # deterministic per scenario; the worst is reported
        med["check_ratio"] = max(r["check_ratio"] for r in runs)
        med["oracle_err"] = max(r["oracle_err"] for r in runs)
        return med


def traced_run(meas, deadline):
    """The traced run; returns (record, reasons, identity of its outputs)."""
    out_dir = os.path.join(meas.run_dir, "traced")
    spans = os.path.join(meas.run_dir, "spans.json")
    rc, record, err, _ = run_child("traced.py", [meas.cfg, out_dir, spans],
                                   deadline - now())
    outcome = workloads.check_outputs(meas.scn, out_dir, rc)
    reasons = list(outcome.reasons)
    if record is None or record.get("rc") != 0:
        reasons.append(f"traced run failed: {err.strip()[-500:]}")
    ident = (outcome.check_values(), outcome.manifest["config_sha256"]) \
        if outcome.ok else None
    shutil.rmtree(out_dir, ignore_errors=True)
    return record, reasons, ident


def src_provenance():
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                             recursive=True))
    lines, digest = 0, hashlib.sha256()
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_lines": lines,
            "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, trace, scale="full", corrupt=None):
    """One benchmark invocation; returns (result, report)."""
    run_dir = os.path.join(ROOT, ".perfbench",
                           f"{workload}-s{seed}-t{trace}"
                           + ("" if scale == "full" else f"-{scale}"))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    scn = workloads.build(workload, seed, scale)
    meas = Measurement(scn, run_dir, corrupt)
    start = now()
    traced = None
    if trace:
        meas.attempted += 1
        traced, t_reasons, t_ident = traced_run(meas, start + DEADLINE_S)
    meas.loop(start, seconds)
    if trace:
        if t_ident is not None and t_ident != meas.reference:
            t_reasons.append("traced check values differ from the "
                             "untraced runs'")
        if t_reasons:
            meas.failures.append({"reasons": t_reasons, "traced": True})
    e2e = meas.end_to_end()
    if e2e is None:
        raise RuntimeError(f"no run of {workload} succeeded: "
                           f"{meas.failures[:2]}")
    if trace:
        layers = dict((traced or {}).get("metrics", {}))
        if traced is not None:
            layers["trace.overhead_s"] = traced["traced_s"] - e2e["wall_s"]
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items() if k in layers}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
    failed = len(meas.failures)
    result = {"correct": failed == 0, "attempted": meas.attempted,
              "failed": failed, "metrics": metrics}
    samples = meas.samples
    report = {
        "workload": workload, "seed": seed, "scale": scale,
        "seconds": seconds, "trace": trace,
        "config_sha256": (meas.reference[1] if meas.reference else None),
        "python": platform.python_version(),
        "numpy": samples[0]["numpy"], "scipy": samples[0]["scipy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_vars": {v: child_env()[v] for v in THREAD_VARS},
        **src_provenance(),
        "failed_ratio": failed / meas.attempted,
        "end_to_end": e2e, "runs": samples, "failures": meas.failures,
        "traced": traced, "result": result,
    }
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES),
                        default="full",
                        help="mini: the self-test's seconds-long miniature")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qstream", "cli.py")):
        print(f"error: no qstream sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    try:
        result, report = measure(args.workload, args.seed, args.seconds,
                                 args.trace, args.scale)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for failure in report["failures"]:
        print(f"failed run: {failure}", file=sys.stderr)
    print(json.dumps({k: report[k] for k in (
        "workload", "seed", "config_sha256", "python", "numpy", "scipy",
        "nproc", "thread_vars", "commit", "src_lines", "src_sha256")}))
    print(f"runs {report['result']['attempted']}  "
          f"failed_ratio {report['failed_ratio']}")
    if report["traced"] is not None and report["traced"]["missing"]:
        print(f"missing per-layer metrics: {report['traced']['missing']}")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
