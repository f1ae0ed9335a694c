"""One traced run in a fresh process, for the per-layer metrics.

    python3 perfbench/traced.py <scenario.cfg> <out-dir> <spans.json>

Runs the same `qstream run` as child.py, with the package's public layer
functions wrapped from here so that each call records a span (name, start,
end, parent) in memory. The spans are written to <spans.json> at the end.

Every `*_s` layer metric is a self time: the summed duration of a span's
calls minus the part covered by wrapped callees, so the `*_s` metrics and
the CLI's own share add up to the traced run. `*_us` metrics are the median
duration of one call. A function that no longer exists is reported under
"missing" and its metrics are left out; the untraced run does not use any
of these names.
"""

import contextlib
import functools
import io
import json
import os
import statistics
import sys
import time

# (module, attribute, span name, metric name, kind): kind "s" reports the
# summed self time, "us" the median duration of one call in microseconds.
SPANS = [
    ("qstream.scenarios", "parse_scenario", "scenarios.parse",
     "scenarios.parse_s", "s"),
    ("qstream.scenarios", "run_scenario", "scenarios.run",
     "scenarios.self_s", "s"),
    ("qstream.propagators", "propagate", "propagators.propagate",
     "propagators.propagate_s", "s"),
    ("qstream.propagators", "PropagationRun.write_series",
     "propagators.write_series", "propagators.write_series_s", "s"),
    ("qstream.fields", "polar_decompose", "fields.polar_decompose",
     "fields.polar_decompose_us", "us"),
    ("qstream.fields", "velocity_field", "fields.velocity_field",
     "fields.velocity_field_us", "us"),
    ("qstream.fields", "write_snapshot", "fields.write_snapshot",
     "fields.write_snapshot_s", "s"),
    ("qstream.trajectories", "VelocitySampler.__init__",
     "trajectories.sampler_build", "trajectories.sampler_build_s", "s"),
    ("qstream.trajectories", "VelocitySampler.sample",
     "trajectories.sample", "trajectories.sample_us", "us"),
    ("qstream.trajectories", "integrate_bundle",
     "trajectories.integrate_bundle", "trajectories.integrate_bundle_s", "s"),
    ("qstream.trajectories", "tube_probability", "trajectories.tube",
     "trajectories.tube_s", "s"),
    ("qstream.trajectories", "check_non_crossing",
     "trajectories.non_crossing", "trajectories.non_crossing_s", "s"),
    ("qstream.trajectories", "write_bundle", "trajectories.write_bundle",
     "trajectories.write_bundle_s", "s"),
    ("qstream.optics", "fresnel_propagate", "optics.fresnel",
     "optics.fresnel_s", "s"),
    ("qstream.optics", "PoyntingField.__init__", "optics.poynting_build",
     "optics.poynting_build_s", "s"),
    ("qstream.optics", "photon_path_bundle", "optics.paths",
     "optics.paths_s", "s"),
    ("qstream.optics", "write_plane_profile", "optics.write_profiles",
     "optics.write_profiles_s", "s"),
    ("qstream.optics", "write_paths", "optics.write_paths",
     "optics.write_paths_s", "s"),
]

MIB = 2.0 ** 20


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory spans [name, start, end, parent index]; -1 is the root."""

    def __init__(self):
        self.spans = []
        self.last = {}       # span name -> return value of its latest call
        self.active = True
        self._stack = []

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, now(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = now()
            self._stack.pop()
        self.last[name] = result
        return result

    def wrap(self, module_name, path, name):
        """Wrap `module.path` (a function, or Class.method); False if gone.

        A module-level function is rebound in every qstream module that
        imported it by name, so `from .x import f` callers are traced too.
        """
        module = sys.modules.get(module_name)
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs)

        if owner is not module:
            setattr(owner, attr, wrapper)
            return True
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("qstream"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return True

    def aggregate(self):
        """span name -> {"self", "incl", "calls", "durations"}."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            a = out.setdefault(name, {"self": 0.0, "incl": 0.0, "calls": 0,
                                      "durations": []})
            a["self"] += end - start - covered[i]
            a["incl"] += end - start
            a["calls"] += 1
            a["durations"].append(end - start)
        return out


def _step_us(config, repeats=5):
    """Median time of one split step, from short `propagate` calls of k
    steps from the initial state (outside the traced run)."""
    from qstream import propagators, scenarios
    n_steps = int(round((config.t_final - config.t0) / config.dt))
    k = max(1, min(n_steps, 400_000 // config.grid.n_points))
    psi0 = scenarios.initial_state(config)
    pconf = scenarios.propagator_config(config)
    times = []
    for _ in range(repeats):
        t0 = now()
        propagators.propagate(psi0, pconf, psi0.time + k * config.dt,
                              snapshot_every=k)
        times.append((now() - t0) / k)
    return statistics.median(times) * 1e6


def layer_metrics(tracer, installed, out_dir):
    agg = tracer.aggregate()
    metrics = {}
    for _mod, _path, span, metric, kind in SPANS:
        if span not in installed:
            continue
        a = agg.get(span)
        if kind == "s":
            metrics[metric] = a["self"] if a else 0.0
        else:
            metrics[metric] = (statistics.median(a["durations"]) * 1e6
                               if a else 0.0)

    config = tracer.last.get("scenarios.parse")
    matter = config is not None and config.kind == "matter_wave"
    if "propagators.propagate" in installed:
        run = tracer.last.get("propagators.propagate")
        steps, per_s, mib = 0, 0.0, 0.0
        if run is not None:
            steps = int(round((run.times[-1] - run.times[0]) / run.config.dt))
            per_s = (steps * run.snapshots[0].grid.n_points
                     / agg["propagators.propagate"]["incl"])
            mib = sum(s.values.nbytes for s in run.snapshots) / MIB
        metrics.update({"propagators.steps": steps,
                        "propagators.point_steps_per_s": per_s,
                        "propagators.snapshot_mib": mib})
        try:
            metrics["propagators.step_us"] = _step_us(config) if matter \
                else 0.0
        except AttributeError:
            pass  # a scenarios helper it needs is gone: reads as missing
    if "trajectories.integrate_bundle" in installed:
        bundle = tracer.last.get("trajectories.integrate_bundle")
        metrics["trajectories.mesh_steps"] = (
            len(bundle.times) - 1 if bundle is not None else 0)
        metrics["trajectories.failed_rows"] = (
            len(bundle.errors) / bundle.xs.shape[0]
            if bundle is not None else 0.0)
    if "trajectories.tube" in installed:
        a = agg.get("trajectories.tube")
        metrics["trajectories.tube_calls"] = a["calls"] if a else 0
    if "optics.fresnel" in installed:
        a = agg.get("optics.fresnel")
        optics = a is not None and config is not None
        metrics["optics.fresnel_plane_ms"] = (
            a["incl"] / len(config.scene.z_planes) * 1e3 if optics else 0.0)
        try:
            from qstream.optics import FresnelEvaluator
        except ImportError:
            pass  # the dense evaluator is gone: these read as missing
        else:
            n_src = n_x = 0
            if optics:
                n_src = FresnelEvaluator(
                    config.scene, source_dx=config.source_dx).x_src.size
                n_x = config.scene.transverse_grid.n_points
            metrics["optics.n_src"] = n_src
            # one complex128 n_x x n_src kernel matrix (computed, not
            # measured); evaluate() holds several arrays of this size
            metrics["optics.kernel_mib"] = n_x * n_src * 16 / MIB
    if "optics.paths" in installed:
        paths = tracer.last.get("optics.paths") or []
        metrics["optics.path_steps"] = sum(len(p.s) - 1 for p in paths)
        metrics["optics.stagnated_paths"] = sum(bool(p.stagnated)
                                                for p in paths)
    names = os.listdir(out_dir)
    metrics["scenarios.files"] = len(names)
    metrics["scenarios.out_mib"] = sum(
        os.path.getsize(os.path.join(out_dir, n)) for n in names) / MIB
    return metrics


def main(cfg, out_dir, spans_path):
    t_import = now()
    from qstream import cli
    import_s = now() - t_import
    tracer = Tracer()
    installed = {span for mod, path, span, _m, _k in SPANS
                 if tracer.wrap(mod, path, span)}
    missing = [metric for _mod, _path, span, metric, _k in SPANS
               if span not in installed]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = tracer.call("cli.run", cli.main,
                         (["run", cfg, "--out-dir", out_dir],), {})
    tracer.active = False
    root = tracer.spans[0]
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
        fh.write("\n")
    metrics = layer_metrics(tracer, installed, out_dir) if rc == 0 else {}
    metrics["cli.import_s"] = import_s
    print(json.dumps({
        "rc": rc, "traced_s": root[2] - root[1], "spans": len(tracer.spans), "missing": missing, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
