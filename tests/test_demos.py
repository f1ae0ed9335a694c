"""Every demo script runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# dissipative_oscillator is left out: its three catalog propagations take
# about 14 s, four times the other demos together
DEMOS = ("photon_paths", "gaussian_oracles", "two_packet_trajectories",
         "friction_relaxation")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
