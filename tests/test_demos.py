"""Every narrative script in demos/ runs to completion through the public
API."""

import os
import pathlib
import subprocess
import sys

import pytest

import mhdes

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mhdes.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
