"""One cold benchmark repetition, run in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

Spec keys:
  root        checkout root; `<root>/src/mfdyn` is imported
  mode        "run" (end-to-end call + CSV) or "setup" (N-body problem set-up)
  entry       "run_simulation" or "sweep_N"
  config      keyword arguments for `mfdyn.harness.make_config`
  blas        expected size of both OpenBLAS thread pools
  trace       wrap the layer boundaries and report per-layer figures
  ref_csv     frozen CSV to compare against (null: invariants only)
  ref_slopes  frozen {"e_slope", "r_slope"} for sweeps (null: not compared)
  write_csv   if the gate passes, write the CSV (and slopes, for sweeps) here
  spans_path  where a traced repetition writes its spans

Prints one JSON line: {"ok", "error", "wall_s", ...}. A repetition whose
output deviates from the reference, breaks an invariant, runs on the wrong
BLAS pool size or raises reports ok=false.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

REF_TOL = 1e-10
SLACK_TOL = -1e-9
ALPHA_E1_TOL = 1e-8
INEQ_TOL = 1e-10

# (package, library glob in <package>.libs, thread-count getter)
BLAS_GETTERS = [
    ("numpy", "libscipy_openblas64_*.so*", "scipy_openblas_get_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*", "scipy_openblas_get_num_threads"),
]


def blas_pool_sizes() -> dict:
    """Size of the thread pool of the OpenBLAS bundled with numpy and scipy,
    read from the loaded libraries; -1 where a getter cannot be found."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    out = {}
    for pkg, pattern, getter in BLAS_GETTERS:
        mod = sys.modules[pkg]
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), pkg + ".libs")
        count = -1
        for path in sorted(glob.glob(os.path.join(libdir, pattern))):
            fn = getattr(ctypes.CDLL(path), getter, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                count = int(fn())
                break
        out[pkg] = count
    return out


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def invariant_problems(text: str) -> list[str]:
    header, rows = parse_csv(text)
    col = {name: i for i, name in enumerate(header)}
    problems = []
    if not rows:
        return ["no records"]
    for row in rows:
        v = {name: float(row[i]) for name, i in col.items()}
        where = f"N={row[col['N']]} t={row[col['t']]}"
        if not all(math.isfinite(x) for x in v.values()):
            problems.append(f"{where}: nonfinite value")
            continue
        if v["slack_alpha"] < SLACK_TOL:
            problems.append(f"{where}: slack_alpha {v['slack_alpha']:.3e} < {SLACK_TOL}")
        if abs(v["alpha"] - v["E1"]) > ALPHA_E1_TOL:
            problems.append(f"{where}: |alpha - E1| = {abs(v['alpha'] - v['E1']):.3e}")
        for k in ("1", "2"):
            E, R = v["E" + k], v["R" + k]
            if E - R > INEQ_TOL or R - math.sqrt(8.0 * max(E, 0.0)) > INEQ_TOL:
                problems.append(f"{where}: E{k}={E:.3e} R{k}={R:.3e} break E <= R <= sqrt(8E)")
    return problems


def reference_problems(text: str, ref_text: str) -> list[str]:
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref_text)
    if header != ref_header:
        return [f"CSV header {header} differs from the reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} records, reference has {len(ref_rows)}"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for name, a, b in zip(header, row, ref):
            if name in ("N", "M"):
                bad = a != b
            else:
                bad = not abs(float(a) - float(b)) <= REF_TOL
            if bad:
                problems.append(f"record {r} {name}: {a} vs reference {b}")
    return problems


def slope_problems(slopes: dict, ref: dict) -> list[str]:
    return [
        f"{key}: {slopes[key]!r} vs reference {ref[key]!r}"
        for key in ("e_slope", "r_slope")
        if slopes[key] is None or not abs(slopes[key] - ref[key]) <= REF_TOL
    ]


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_call(spec: dict, harness, tracer) -> dict:
    cfg = harness.make_config(**spec["config"])
    entry = getattr(harness, spec["entry"])
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    if tracer is not None:
        tracer.root = tracer.open("bench.call")
    result = entry(cfg)
    text = harness.records_csv(result.records)
    if tracer is not None:
        tracer.close(tracer.root)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    slopes = None
    if spec["entry"] == "sweep_N":
        slopes = {"e_slope": result.e_slope, "r_slope": result.r_slope}
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": maxrss_kb,
        "records": len(result.records),
    }
    problems = invariant_problems(text)
    if spec.get("ref_csv"):
        with open(spec["ref_csv"]) as fh:
            problems += reference_problems(text, fh.read())
    if spec.get("ref_slopes"):
        with open(spec["ref_slopes"]) as fh:
            problems += slope_problems(slopes, json.load(fh))
    if spec.get("write_csv") and not problems:
        with open(spec["write_csv"], "w") as fh:
            fh.write(text)
        if slopes is not None:
            with open(spec["write_csv"][: -len(".csv")] + ".json", "w") as fh:
                json.dump(slopes, fh, indent=1)
                fh.write("\n")
    if problems:
        out["error"] = f"{len(problems)} deviation(s); first: " + "; ".join(problems[:3])
    if tracer is not None:
        out["layers"] = layer_figures(tracer, wall, len(result.records))
    return out


def layer_figures(tracer, wall: float, records: int) -> dict:
    steps = sorted(s[2] - s[1] for s in tracer.by_name("propagate.step"))

    def pct(q: float) -> float:
        if not steps:
            return 0.0
        return 1e3 * steps[min(len(steps) - 1, int(q * len(steps)))]

    return {
        "fock.enumerate_basis.busy_s": tracer.busy("fock.enumerate_basis"),
        "fock.build_HN.busy_s": tracer.busy("fock.build_HN"),
        "fock.product_state.busy_s": tracer.busy("fock.product_state"),
        "fock.basis_dim": tracer.values.get("fock.basis_dim", 0),
        "fock.HN_nnz": tracer.values.get("fock.HN_nnz", 0),
        "onebody.evolve_hartree.busy_s": tracer.busy("onebody.evolve_hartree"),
        "propagate.NBodyStepper.init_s": tracer.busy("propagate.NBodyStepper.init"),
        "propagate.step.calls": len(steps),
        "propagate.step.busy_s": sum(steps),
        "propagate.step.p50_ms": pct(0.5),
        "propagate.step.p90_ms": pct(0.9),
        "propagate.step.matvecs": tracer.matvecs("propagate.step"),
        "reduce.gamma1.busy_s": tracer.busy("reduce.gamma1"),
        "reduce.gamma2.busy_s": tracer.busy("reduce.gamma2"),
        "reduce.indicators.busy_s": tracer.busy("reduce.indicators"),
        "condensate.occupation_weights.busy_s": tracer.busy("condensate.occupation_weights"),
        "condensate.occupation_weights.calls": len(tracer.by_name("condensate.occupation_weights")),
        "condensate.occupation_weights.matvecs": tracer.matvecs("condensate.occupation_weights"),
        "bounds.energies.busy_s": tracer.busy("bounds.energies"),
        "bounds.envelopes.busy_s": tracer.busy("bounds.envelopes"),
        "harness.self_s": tracer.self_time(("harness.run_simulation", "harness.records_csv")),
        "harness.records": records,
        "harness.sweep_N.concurrency": tracer.busy("harness.run_simulation") / wall,
    }


def run_setup(spec: dict, harness) -> dict:
    """Build the N-body problem for every N of the workload, as
    `run_simulation` does before its first step."""
    base = dict(spec["config"])
    Ns = base.pop("particles_list", None) or [base["particles"]]
    total = 0.0
    problems = []
    for N in Ns:
        cfg = harness.make_config(**{**base, "particles": N})
        grid = harness.Grid(cfg.sites, cfg.dx)
        v = harness.potential_field(cfg, grid)
        w = harness.interaction_field(cfg, grid)
        h = harness.build_h(grid, v)
        phi0 = harness.initial_orbital(cfg, grid, h)
        pcfg = harness.PropagatorConfig(
            dt=cfg.dt, steps=cfg.steps, method="krylov", krylov_tol=1e-12
        )

        t0 = time.perf_counter()
        basis = harness.enumerate_basis(cfg.sites, N)
        H = harness.build_HN(h, w, basis)
        psi = harness.product_state(phi0, basis)
        harness.NBodyStepper(H, pcfg)
        total += time.perf_counter() - t0

        dim = math.comb(N + cfg.sites - 1, N)
        if basis.dim != dim or H.shape != (dim, dim) or abs(psi.norm - 1.0) > 1e-12:
            problems.append(f"N={N}: dim {basis.dim} (want {dim}), H {H.shape}, |psi| {psi.norm}")
    out = {"setup_s": total, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if problems:
        out["error"] = "; ".join(problems)
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    out: dict = {"ok": False, "error": None}
    tracer = None
    try:
        src = os.path.join(spec["root"], "src")
        sys.path.insert(0, src)
        import mfdyn.condensate
        import mfdyn.harness as harness
        import numpy
        import scipy

        out["import_s"] = time.perf_counter() - T_START
        if not os.path.abspath(harness.__file__).startswith(os.path.abspath(src) + os.sep):
            raise RuntimeError(f"imported mfdyn from {harness.__file__}, not from {src}")
        out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        out["nproc"] = os.cpu_count()
        out["blas"] = blas_pool_sizes()
        want = spec["blas"]
        if any(n != want for n in out["blas"].values()):
            raise RuntimeError(f"BLAS pool sizes {out['blas']}, expected {want} each")

        if spec["mode"] == "setup":
            out.update(run_setup(spec, harness))
        else:
            if spec.get("trace"):
                from tracer import Tracer

                tracer = Tracer()
                tracer.install(harness, mfdyn.condensate)
                out["absent"] = tracer.absent
            out.update(run_call(spec, harness, tracer))
        out["ok"] = out["error"] is None
    except Exception:
        out["error"] = traceback.format_exc(limit=4)
    finally:
        if tracer is not None and spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    print(json.dumps(out), flush=True)
    # Skip interpreter teardown (module finalisers, BLAS pool shutdown): it
    # is not measured and would only lengthen every repetition.
    os._exit(0)


if __name__ == "__main__":
    main()
