"""Freeze the reference outputs of the benchmark workloads at the default seed.

    python3 perfbench/freeze.py [workload ...]

Writes perfbench/ref/<workload>.csv (the CSV records) and, for sweeps,
perfbench/ref/<workload>.json (the fitted e_slope and r_slope). Run it only
at a commit whose outputs are the accepted reference.
"""
from __future__ import annotations

import os
import sys

from run import DEFAULT_SEED, WORKLOADS, child_env, child_spec, run_child


def freeze(wl) -> None:
    os.makedirs(wl.ref_dir, exist_ok=True)
    spec = child_spec(wl, DEFAULT_SEED, "run")
    spec.update(ref_csv=None, ref_slopes=None, write_csv=wl.ref_csv())
    out = run_child(spec, child_env(wl), timeout=600)
    if not out.get("ok"):
        raise SystemExit(f"{wl.name}: {out.get('error')}")
    print(f"{wl.name}: {out['records']} records -> {wl.ref_csv()}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        freeze(WORKLOADS[name])
