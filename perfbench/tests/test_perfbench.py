"""Self-tests of the benchmark on a tiny configuration.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
from freeze import freeze  # noqa: E402

TINY = dict(sites=4, tfinal=0.02, dt=1e-3, stride=5, interaction="gaussian:1,1")


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    sim = run.Workload("tiny-sim", "run_simulation", dict(particles=2, **TINY), 1, str(tmp_path))
    sweep = run.Workload(
        "tiny-sweep", "sweep_N", dict(particles_list=[2, 3, 4], **TINY), 1, str(tmp_path)
    )
    freeze(sim)
    freeze(sweep)
    return sim, sweep


def bench(wl, seed=run.DEFAULT_SEED, trace=False) -> dict:
    return run.report(wl, seed, run.run_workload(wl, seed, 0.1, trace), trace)


def test_every_metric_is_emitted_with_its_unit(tiny):
    sim, sweep = tiny
    for wl in (sim, sweep):
        out = bench(wl)
        assert (out["correct"], out["failed"], out["attempted"]) == (True, 0, 2)
        assert {k: m["unit"] for k, m in out["metrics"].items()} == declared("end_to_end")
        assert all(m["value"] > 0 for m in out["metrics"].values())

        reps = run.run_workload(wl, run.DEFAULT_SEED, 0.1, True)
        assert reps["traced"][0]["absent"] == []
        out = run.report(wl, run.DEFAULT_SEED, reps, True)
        assert out["correct"]
        assert {k: m["unit"] for k, m in out["metrics"].items()} == declared("per_layer")


def test_traced_counts(tiny):
    _, sweep = tiny
    traced = run.run_workload(sweep, run.DEFAULT_SEED, 0.1, True)["traced"]
    layers = run.summarize({"run": [], "traced": traced}, True)[0]
    n_records = 3 * 5  # three values of N, t = 0, 0.005, ..., 0.02
    assert layers["harness.records"]["value"] == n_records
    assert layers["propagate.step.calls"]["value"] == 3 * 20
    assert layers["condensate.occupation_weights.calls"]["value"] == n_records
    # moment path N products plus Lagrange path N (N + 1) products per call
    per_call = sum(N + N * (N + 1) for N in (2, 3, 4))
    assert layers["condensate.occupation_weights.matvecs"]["value"] == 5 * per_call
    assert layers["fock.basis_dim"]["value"] == 10 + 20 + 35


@pytest.mark.parametrize("which", ["csv", "slopes"])
def test_perturbed_reference_fails_every_run(tiny, which):
    _, sweep = tiny
    if which == "csv":
        path = Path(sweep.ref_csv())
        lines = path.read_text().splitlines()
        row = lines[-1].split(",")
        row[5] = repr(float(row[5]) + 1e-9)  # E1 at the final time
        lines[-1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
    else:
        path = Path(sweep.ref_slopes())
        slopes = json.loads(path.read_text())
        slopes["e_slope"] += 1e-9
        path.write_text(json.dumps(slopes))
    reps = run.run_workload(sweep, run.DEFAULT_SEED, 0.1, False)
    out = run.report(sweep, run.DEFAULT_SEED, reps, False)
    assert not out["correct"]
    assert out["failed"] == len(reps["run"]) >= 1
    assert all("reference" in r["error"] for r in reps["run"])

    # another seed is gated by the invariants only
    assert bench(sweep, seed=5)["correct"]


def test_invariant_violation_is_reported():
    header = "t,N,M,alpha,beta,E1,E2,R1,R2,EPsi,Ephi,phi_t,alpha_bound,beta_bound,slack_alpha"
    good = "0.5,4,8,0.01,0.05,0.01,0.02,0.02,0.03,1.0,1.0,0.1,0.2,0.3,0.19"
    assert child.invariant_problems(f"{header}\n{good}\n") == []
    bad = {
        "slack_alpha": "-1e-8",  # envelope violated
        "alpha": "0.0101",  # alpha != E1
        "R1": "0.5",  # R1 > sqrt(8 E1)
        "R2": "0.001",  # R2 < E2
    }
    for name, value in bad.items():
        row = good.split(",")
        row[header.split(",").index(name)] = value
        assert child.invariant_problems(f"{header}\n{','.join(row)}\n"), name


def test_wrong_blas_pool_size_fails(tiny):
    sim, _ = tiny
    spec = run.child_spec(sim, run.DEFAULT_SEED, "setup")
    spec["blas"] = 3
    out = run.run_child(spec, run.child_env(sim), 60)
    assert not out["ok"] and "BLAS pool sizes" in out["error"]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-M8N4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
