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


def run_script(script, args) -> str:
    """stdout of a successful run of ``scripts/<script>``."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script,args,header", [
    ("run_size_table.py", ["--settings", "s5_1", "--n", "20", "--p", "3"], POWER),
    ("run_power_settings.py", ["--settings", "s1_1", "--n", "20", "--p", "3"], POWER),
    ("run_k_sweep.py", ["--setting", "tune_i", "--n", "50", "--p", "3", "--alphas", "0.3", "0.5"],
     TIDY),
    ("run_component_analysis.py", ["--settings", "s1_1", "--n", "20", "--p", "3"], TIDY),
])
def test_driver_writes_csv(script, args, header):
    assert run_script(script, [*args, "--reps", "2"]).splitlines()[0] == header


def test_scaling_writes_one_row_per_n():
    lines = run_script("run_scaling.py", ["--n", "40", "--p", "3"]).splitlines()
    assert lines[0] == "n,p,seconds,peak_rss_mib"
    n, p, seconds, peak = lines[1].split(",")
    assert (n, p) == ("40", "3") and len(lines) == 2
    assert float(seconds) > 0 and float(peak) > 0
