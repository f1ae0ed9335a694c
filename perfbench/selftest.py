"""Self-test of the benchmark, on seconds-long miniatures of each workload.

    python3 perfbench/selftest.py

Checks that
* run.py prints every metric BENCHMARK.json names, with its unit, for each
  workload, untraced and traced, and that the seed reports no failure;
* a corrupted oracle input (series.txt or the last plane profile) makes
  that run count as failed;
* in a directory holding only BENCHMARK.json and perfbench/ the benchmark
  exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads


def bench_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def last_json(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def check_printed(workload, trace, expected, problems):
    rc, result = last_json([sys.executable, os.path.join(run.HERE, "run.py"),
                            "--workload", workload, "--seed", "1",
                            "--seconds", "0", "--trace", str(trace),
                            "--scale", "mini"], run.ROOT)
    where = f"{workload} --trace {trace}"
    if rc != 0 or result is None:
        problems.append(f"{where}: exit {rc}, result {result}")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: failed {result['failed']} "
                        f"of {result['attempted']}")
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ set(expected))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} = {m['value']!r}")


class CorruptSecondRun:
    """Damages the oracle input of the second run only."""

    def __init__(self):
        self.calls = 0

    def __call__(self, out_dir):
        self.calls += 1
        if self.calls != 2:
            return
        names = sorted(os.listdir(out_dir))
        target = "series.txt" if "series.txt" in names else \
            [n for n in names if n.startswith("plane_")][-1]
        path = os.path.join(out_dir, target)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        col = 2 if target == "series.txt" else 1  # x_mean or intensity
        for i, line in enumerate(lines):
            if line and not line.startswith("#"):
                cols = line.split()
                cols[col] = repr(float(cols[col]) * 1.01)
                lines[i] = "  ".join(cols)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def main():
    problems = []
    e2e, layers, names = bench_spec()
    if e2e != run.END_TO_END or layers != run.PER_LAYER:
        problems.append("run.py metric tables differ from BENCHMARK.json")
    if tuple(names) != workloads.WORKLOADS:
        problems.append(f"workloads differ: {names}")
    for workload in workloads.WORKLOADS:
        check_printed(workload, 0, e2e, problems)
        check_printed(workload, 1, layers, problems)
        result, _ = run.measure(workload, 1, 0, 0, "mini",
                                corrupt=CorruptSecondRun())
        if result["failed"] != 1 or result["correct"] or \
                result["metrics"]["ok_ratio"]["value"] >= 1.0:
            problems.append(f"{workload}: corrupted oracle input not "
                            f"counted as failed: {result}")
        print(f"{workload}: checked", flush=True)
    bare = os.path.join(run.ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    rc, result = last_json([sys.executable, "perfbench/run.py", "--workload",
                            "two-slit", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], bare)
    if rc == 0 or result is not None:
        problems.append(f"bare directory: exit {rc}, result {result}")
    shutil.rmtree(bare)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
