"""Benchmark of mfdyn: cold-process wall time, set-up time and peak memory
per workload, or, with --trace 1, per-layer figures from a traced run.

Run from the root of a checkout (pure Python; nothing is built):

    python3 perfbench/run.py --workload sim-M8N4 --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60 --trace 0

Every repetition is a fresh interpreter (perfbench/child.py), started one at
a time from this process, because the CLI pays mfdyn's cached basis and hop
maps cold on every invocation. Untraced runs alternate a timed end-to-end
child with a set-up child; traced runs alternate an untraced child with a
traced one, and the difference of their median wall times is the tracing
overhead. Each child gates its output against the frozen references in
perfbench/ref (default seed) and the invariants (every seed); a child that
fails either, runs on the wrong BLAS pool size or raises is a failed
operation. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF_DIR = os.path.join(HERE, "ref")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
# A run, including its last child, ends well inside the 180 s allowed.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "fock.enumerate_basis.busy_s": "s",
    "fock.build_HN.busy_s": "s",
    "fock.product_state.busy_s": "s",
    "fock.basis_dim": "count",
    "fock.HN_nnz": "count",
    "onebody.evolve_hartree.busy_s": "s",
    "propagate.NBodyStepper.init_s": "s",
    "propagate.step.calls": "count",
    "propagate.step.busy_s": "s",
    "propagate.step.p50_ms": "ms",
    "propagate.step.p90_ms": "ms",
    "propagate.step.matvecs": "count",
    "reduce.gamma1.busy_s": "s",
    "reduce.gamma2.busy_s": "s",
    "reduce.indicators.busy_s": "s",
    "condensate.occupation_weights.busy_s": "s",
    "condensate.occupation_weights.calls": "count",
    "condensate.occupation_weights.matvecs": "count",
    "bounds.energies.busy_s": "s",
    "bounds.envelopes.busy_s": "s",
    "harness.self_s": "s",
    "harness.records": "count",
    "harness.sweep_N.concurrency": "ratio",
    "process.import_s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "blas.threads": "count",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "run_simulation" or "sweep_N"
    config: dict
    blas_threads: int | None  # None: the library default, with the variables cleared
    ref_dir: str = REF_DIR

    def ref_csv(self) -> str:
        return os.path.join(self.ref_dir, self.name + ".csv")

    def ref_slopes(self) -> str | None:
        if self.entry != "sweep_N":
            return None
        return os.path.join(self.ref_dir, self.name + ".json")


GAUSSIAN = dict(interaction="gaussian:1,1", dt=1e-3)
WORKLOADS = {
    w.name: w
    for w in [
        # README `simulate` example at the default BLAS thread count: the only
        # workload on which threaded OpenBLAS applied to tiny matvecs shows.
        Workload(
            "sim-M8N4", "run_simulation",
            dict(sites=8, particles=4, tfinal=1.0, stride=10, **GAUSSIAN),
            blas_threads=None,
        ),
        # The pinned `sweep5` rate experiment of the acceptance tests, through
        # sweep_N's thread pool; the plain single-threaded-BLAS baseline.
        Workload(
            "sweep5-1t", "sweep_N",
            dict(sites=8, particles_list=[2, 3, 4, 5, 6], tfinal=1.0, stride=10, **GAUSSIAN),
            blas_threads=1,
        ),
        # Large basis (dim 12376): set-up and sector weights dominate. Kept for
        # runs by hand but not listed in BENCHMARK.json: three workloads do
        # not fit 60 s runs into the time a comparison of two commits gets.
        Workload(
            "wide-M12N6-1t", "run_simulation",
            dict(sites=12, particles=6, tfinal=0.1, stride=10, **GAUSSIAN),
            blas_threads=1,
        ),
    ]
}


def seeded_config(wl: Workload, seed: int) -> dict:
    """The workload's configuration; a seed other than the default shifts
    the initial Gaussian's centre and width at the same problem size."""
    cfg = dict(wl.config)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        x0 = cfg["sites"] * cfg.get("dx", 1.0) / 2.0 + rng.uniform(-0.5, 0.5)
        sigma = rng.uniform(0.9, 1.1)
        cfg["initial"] = f"gaussian:{x0!r},{sigma!r}"
    return cfg


def expected_blas_threads(wl: Workload) -> int:
    return wl.blas_threads or len(os.sched_getaffinity(0))


def child_env(wl: Workload) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if wl.blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(wl.blas_threads)
    return env


def run_child(spec: dict, env: dict, timeout: float) -> dict:
    """One cold repetition; a crash, a timeout or unreadable output is
    reported as a failed repetition."""
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr or proc.stdout).strip()[-400:]
        return {"ok": False, "error": f"exit {proc.returncode}, no result: {tail}"}
    if proc.returncode != 0:
        out["ok"] = False
        out["error"] = out.get("error") or f"exit {proc.returncode}"
    return out


def child_spec(wl: Workload, seed: int, mode: str, trace: bool = False) -> dict:
    gated = seed == DEFAULT_SEED
    return {
        "root": ROOT,
        "mode": mode,
        "entry": wl.entry,
        "config": seeded_config(wl, seed),
        "blas": expected_blas_threads(wl),
        "trace": trace,
        "ref_csv": wl.ref_csv() if gated else None,
        "ref_slopes": wl.ref_slopes() if gated else None,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Alternate pairs of cold children until `seconds` would be exceeded
    (at least one pair); return {kind: [child results]}."""
    env = child_env(wl)
    kinds = ("run", "traced") if trace else ("run", "setup")
    reps: dict[str, list] = {k: [] for k in kinds}
    start = time.perf_counter()
    while True:
        for kind in kinds:
            spec = child_spec(wl, seed, "setup" if kind == "setup" else "run", kind == "traced")
            if kind == "traced":
                os.makedirs(OUT_DIR, exist_ok=True)
                spec["spans_path"] = os.path.join(
                    OUT_DIR, f"spans-{wl.name}-seed{seed}-rep{len(reps[kind])}.json"
                )
            timeout = RUN_LIMIT_S - (time.perf_counter() - start)
            reps[kind].append(run_child(spec, env, max(timeout, 1.0)))
        elapsed = time.perf_counter() - start
        pair = elapsed / len(reps["run"])
        if elapsed + pair > min(seconds, RUN_LIMIT_S):
            return reps


def median_of(results: list, key) -> tuple[float, int, float, float]:
    vals = [v for v in (key(r) for r in results) if v is not None]
    if not vals:
        return 0.0, 0, 0.0, 0.0
    return statistics.median(vals), len(vals), min(vals), max(vals)


def summarize(reps: dict, trace: bool) -> tuple[dict, list[str]]:
    """Medians over the repetitions, and a human-readable line per metric."""
    stats: dict[str, tuple] = {}
    runs = reps["run"]
    if not trace:
        stats["wall_s"] = median_of(runs, lambda r: r.get("wall_s"))
        stats["setup_s"] = median_of(reps["setup"], lambda r: r.get("setup_s"))
        stats["peak_rss_mb"] = median_of(
            runs, lambda r: r["maxrss_kb"] / 1024.0 if "maxrss_kb" in r else None
        )
        units = END_TO_END
    else:
        traced = reps["traced"]
        for name in PER_LAYER:
            stats[name] = median_of(traced, lambda r, n=name: r.get("layers", {}).get(n))
        # whole-process figures come from the untraced children
        stats["process.import_s"] = median_of(runs, lambda r: r.get("import_s"))
        stats["process.cpu_s"] = median_of(runs, lambda r: r.get("cpu_s"))
        stats["process.cpu_util"] = median_of(
            runs, lambda r: r["cpu_s"] / r["wall_s"] if "cpu_s" in r else None
        )
        stats["blas.threads"] = median_of(runs, lambda r: r.get("blas", {}).get("numpy"))
        untraced_wall = median_of(runs, lambda r: r.get("wall_s"))
        traced_wall = median_of(traced, lambda r: r.get("wall_s"))
        stats["trace.overhead_s"] = (
            traced_wall[0] - untraced_wall[0], min(untraced_wall[1], traced_wall[1]), None, None,
        )
        units = PER_LAYER
    metrics = {name: {"value": stats[name][0], "unit": units[name]} for name in units}
    lines = []
    for name, (value, n, lo, hi) in stats.items():
        spread = f"; min {lo:.6g}, max {hi:.6g}" if lo is not None else ""
        lines.append(f"  {name:<40} {value:.6g} {units[name]}  (median of n={n}{spread})")
    return metrics, lines


def describe_environment(reps: dict) -> str:
    first = next((r for rs in reps.values() for r in rs if "blas" in r), {})
    return (
        f"nproc={first.get('nproc')} versions={first.get('versions')} "
        f"blas_pools={first.get('blas')} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')!r} (caller)"
    )


def report(wl: Workload, seed: int, reps: dict, trace: bool) -> dict:
    children = [r for rs in reps.values() for r in rs]
    failed = [r for r in children if not r.get("ok")]
    metrics, lines = summarize(reps, trace)
    gate = "frozen references + invariants" if seed == DEFAULT_SEED else "invariants only"
    print(f"workload {wl.name} seed={seed} trace={int(trace)} gate: {gate}")
    print("  " + describe_environment(reps))
    for line in lines:
        print(line)
    absent = sorted({a for r in reps.get("traced", []) for a in r.get("absent", [])})
    if absent:
        print(f"  absent layers (reported as 0): {', '.join(absent)}")
    for r in failed[:5]:
        print(f"  FAILED repetition: {r.get('error')}")
    return {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mfdyn", "harness.py")):
        print(f"no mfdyn sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        wl = WORKLOADS[name]
        reps = run_workload(wl, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report(wl, args.seed, reps, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
