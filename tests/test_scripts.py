"""Smoke tests: each experiment script runs to completion on a small case."""
import os
import subprocess
import sys
from pathlib import Path

from mfdyn.harness import make_config, records_csv, run_simulation

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env,
    )


def test_envelope_check_runs(tmp_path):
    out = tmp_path / "run.csv"
    proc = run_script(
        "envelope_check.py", "--sites", "6", "--particles", "3",
        "--tfinal", "0.05", "--dt", "0.005", "--stride", "5", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2] == "envelope violated: False"
    assert lines[-1].startswith("fitted-K for the beta envelope: ")
    cfg = make_config(sites=6, particles=3, tfinal=0.05, dt=0.005, stride=5)
    assert out.read_text() == records_csv(run_simulation(cfg).records)


def test_envelope_check_rejects_particles_list():
    proc = run_script("envelope_check.py", "--particles-list", "2,3,4")
    assert proc.returncode == 2
    assert "--particles-list" in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr


def test_eta_table_runs():
    proc = run_script("eta_table.py", "--points", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["2", "1/2", "2.000000", "0.500000"]
