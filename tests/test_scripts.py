"""Smoke runs of the experiment drivers under scripts/ on tiny grids: each
must exit 0 and print its CSV header first."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
POWER = "setting,n,p,reps,level,method,power,runtime_seconds"
TIDY = "setting,n,p,reps,level,method,series,param,power"


@pytest.mark.parametrize("script,args,header", [
    ("run_size_table.py", ["--settings", "s5_1", "--n", "20", "--p", "3"], POWER),
    ("run_power_settings.py", ["--settings", "s1_1", "--n", "20", "--p", "3"], POWER),
    ("run_k_sweep.py", ["--setting", "tune_i", "--n", "50", "--p", "3", "--alphas", "0.3", "0.5"],
     TIDY),
    ("run_component_analysis.py", ["--settings", "s1_1", "--n", "20", "--p", "3"], TIDY),
])
def test_driver_writes_csv(script, args, header):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args, "--reps", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
