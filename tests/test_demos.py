"""Every demo script runs to the end against this checkout."""

import glob
import os
import subprocess
import sys

import pytest

import tiltbench

DEMOS = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "demos"))
# The directory holding the tiltbench this process imported, first on the
# child's path so that the demos run this checkout.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(tiltbench.__file__)))


@pytest.mark.parametrize("script", sorted(glob.glob(os.path.join(DEMOS, "*.py"))), ids=os.path.basename)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, cwd=DEMOS, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
