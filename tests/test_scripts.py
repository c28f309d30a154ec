"""Smoke run of the scaling script under scripts/ on a tiny input."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(script, args) -> str:
    """stdout of a successful run of ``scripts/<script>``."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scaling_writes_one_row_per_n():
    lines = run_script("run_scaling.py", ["--n", "40", "--p", "3"]).splitlines()
    assert lines[0] == "n,p,seconds,peak_rss_mib"
    n, p, seconds, peak = lines[1].split(",")
    assert (n, p) == ("40", "3") and len(lines) == 2
    assert float(seconds) > 0 and float(peak) > 0
