"""Every demo script runs to completion, and every qstream name it imports
exists."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# dissipative_oscillator is left out of the runs: its three catalog
# propagations take about 14 s, four times the other demos together
DEMOS = ("photon_paths", "gaussian_oracles", "two_packet_trajectories",
         "friction_relaxation")
ALL_DEMOS = sorted(f[:-3] for f in os.listdir(os.path.join(ROOT, "demos"))
                   if f.endswith(".py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", ALL_DEMOS)
def test_demo_imports_resolve(name):
    with open(os.path.join(ROOT, "demos", f"{name}.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "qstream"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
