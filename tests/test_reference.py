"""Frozen-reference trajectories for run paths the benchmark never takes:
a harmonic trap with a ground-state orbital under an inverse-square kernel
with q1 != q2, and a soft-Coulomb kernel propagated by the dense method.

The envelope columns grow like e^{phi(t)}, so they are compared relative to
their size; every other column is compared in absolute terms. Re-freeze the
data with `PYTHONPATH=src python tests/test_reference.py`.

One more case runs the first records of the benchmark's `sim-M8N4`
workload against the benchmark's own reference, so that a last-bit change
in alpha(0) or phi(t) fails here first. The header, record 0 and the
columns that depend only on the initial state and the Hartree flow
(`BITWISE_COLUMNS`) must match byte for byte; the columns that follow the
propagated N-body state are compared at the benchmark's 1e-10 absolute
tolerance.
"""
import math
import os

import pytest

from mfdyn.harness import make_config, records_csv, run_simulation

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
BENCH_REF = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "ref"
)

CASES = {
    "harmonic_invsquare": dict(
        sites=6, particles=3, tfinal=0.2, dt=1e-3, stride=20,
        potential="harmonic:1", initial="groundstate", interaction="invsquare:1",
        p1=4, p2=math.inf,
    ),
    "softcoulomb_dense": dict(
        sites=6, particles=4, tfinal=0.2, dt=2e-3, stride=10,
        interaction="softcoulomb:1,0.5", p1=2, p2=6, method="dense",
    ),
}

ENVELOPE_COLUMNS = ("phi_t", "alpha_bound", "beta_bound", "slack_alpha")
ENVELOPE_RTOL = 1e-12
ABS_TOL = 1e-10
BITWISE_COLUMNS = ("t", "N", "M", "Ephi", "phi_t", "alpha_bound", "beta_bound")


def _path(name: str) -> str:
    return os.path.join(DATA, f"{name}.csv")


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_frozen_reference(name):
    header, rows = _rows(records_csv(run_simulation(make_config(**CASES[name])).records))
    with open(_path(name)) as fh:
        ref_header, ref_rows = _rows(fh.read())
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        for col, got, want in zip(header, row, ref):
            if col in ("N", "M"):
                assert got == want, col
            elif col in ENVELOPE_COLUMNS:
                assert float(got) == pytest.approx(float(want), rel=ENVELOPE_RTOL, abs=0), col
            else:
                assert abs(float(got) - float(want)) <= ABS_TOL, (col, got, want)


def test_run_matches_benchmark_reference_bitwise():
    cfg = make_config(
        sites=8, particles=4, tfinal=0.1, stride=10, dt=1e-3, interaction="gaussian:1,1"
    )
    header, rows = _rows(records_csv(run_simulation(cfg).records))
    with open(os.path.join(BENCH_REF, "sim-M8N4.csv")) as fh:
        ref_header, ref_rows = _rows(fh.read())
    ref_rows = ref_rows[:11]
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    assert rows[0] == ref_rows[0]
    for row, ref in zip(rows, ref_rows):
        for col, got, want in zip(header, row, ref):
            if col in BITWISE_COLUMNS:
                assert got == want, (col, got, want)
            else:
                assert abs(float(got) - float(want)) <= ABS_TOL, (col, got, want)


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for name, kwargs in CASES.items():
        with open(_path(name), "w") as fh:
            fh.write(records_csv(run_simulation(make_config(**kwargs)).records))
        print(f"froze {_path(name)}")
