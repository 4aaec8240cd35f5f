"""The scripts run end to end against the tested package tree."""

import os
import subprocess
import sys
from pathlib import Path

import grasshodge

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    src = str(Path(grasshodge.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_scan_margins_csv():
    proc = run_script("scan_margins.py", "--Tmin", "3", "--Tmax", "12", "--csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "T,n,s,max_abs,max_abs_approx,gap"
    assert len(lines) == 11
    assert lines[-1] == "12,1,1,139/143,0.972027972028,4/143"


def test_branch_census():
    proc = run_script("branch_census.py", "--Tmin", "3", "--Tmax", "12")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 13  # header, ten T lines, blank, summary
    assert lines[-1] == "every degree covered by some route for T in [3, 12]"
