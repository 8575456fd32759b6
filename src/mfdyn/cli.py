"""Command-line interface.

Subcommands: simulate, sweep, eta-curve, check.
Exit codes: 0 success, 1 invalid configuration, 2 numerical failure,
3 invariant-suite failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .checks import SUITES, run_suite
from .errors import ConfigError, NumericalFailure
from .harness import (
    eta_curve,
    make_config,
    parse_config_file,
    records_csv,
    run_simulation,
    sweep_N,
)

_FLOAT_KEYS = {"dx", "tfinal", "dt", "K"}
_INT_KEYS = {"sites", "particles", "stride", "dim", "seed"}


def _parse_pnorm(s: str) -> float:
    if s in ("inf", "Inf", "INF"):
        return math.inf
    return float(s)


def _add_common_flags(sp):
    sp.add_argument("--config", help="optional `key = value` file; flags override it")
    sp.add_argument("--sites", type=int)
    sp.add_argument("--particles", type=int)
    sp.add_argument("--particles-list", dest="particles_list",
                    help="comma-separated, e.g. 2,3,4,5,6")
    sp.add_argument("--dx", type=float)
    sp.add_argument("--tfinal", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--stride", type=int)
    sp.add_argument("--potential", help="none | harmonic:<omega>")
    sp.add_argument(
        "--interaction",
        help="constant:<c> | gaussian:<lam>,<sigma> | softcoulomb:<lam>,<eps> | invsquare:<lam>",
    )
    sp.add_argument("--initial", help="gaussian:<x0>,<sigma> | groundstate")
    sp.add_argument("--p1", type=_parse_pnorm)
    sp.add_argument("--p2", type=_parse_pnorm)
    sp.add_argument("--p", help="exponent for eta, e.g. 3/2 or 1.5")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--K", type=float)
    sp.add_argument("--method", choices=("krylov", "dense"))
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int)


def _coerce(key: str, value: str):
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _INT_KEYS:
        return int(value)
    if key in ("p1", "p2"):
        return _parse_pnorm(value)
    if key == "particles_list":
        return tuple(int(s) for s in value.split(",") if s)
    return value


def _build_config(args) -> "RunConfig":
    kwargs = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            kwargs[key] = _coerce(key, raw)
    for key in (
        "sites", "particles", "particles_list", "dx", "tfinal", "dt", "stride",
        "potential", "interaction", "initial", "p1", "p2", "p", "dim", "K",
        "method", "out", "seed",
    ):
        val = getattr(args, key, None)
        if val is not None:
            if key == "particles_list" and isinstance(val, str):
                val = tuple(int(s) for s in val.split(",") if s)
            kwargs[key] = val
    return make_config(**kwargs)


def _emit(csv_text: str, out: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    result = run_simulation(cfg)
    _emit(records_csv(result.records), cfg.out)
    print(f"# fitted-K = {result.fitted_K()!r}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    if not cfg.particles_list:
        raise ConfigError("sweep requires --particles-list")
    result = sweep_N(cfg)
    _emit(records_csv(result.records), cfg.out)
    if result.degenerate:
        print("# fit: degenerate (all E1 below 1e-12)", file=sys.stderr)
    else:
        print(
            f"# fit: E1 slope = {result.e_slope!r}, R1 slope = {result.r_slope!r}",
            file=sys.stderr,
        )
    for N, K in sorted(result.fitted_Ks().items()):
        print(f"# fitted-K(N={N}) = {K!r}", file=sys.stderr)
    return 0


def cmd_eta_curve(args) -> int:
    ps = [Fraction(s) for s in args.p_grid.split(",") if s]
    rows, skipped = eta_curve(args.dim, ps)
    for p in skipped:
        print(f"# warning: p={p} outside (p0, 2], skipped", file=sys.stderr)
    lines = ["p,eta"] + [f"{float(p):.12f},{float(e):.12f}" for p, e in rows]
    _emit("\n".join(lines) + "\n", args.out or "")
    return 0


def cmd_check(args) -> int:
    results = run_suite(args.suite)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mfdyn",
        description="Exact N-boson vs Hartree dynamics on a periodic 1-D lattice",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="single run, CSV records")
    _add_common_flags(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sweep", help="N-sweep with convergence-rate fit")
    _add_common_flags(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("eta-curve", help="rate exponent eta over a p grid")
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--p-grid", dest="p_grid", required=True,
                    help="comma-separated p values, fractions allowed (3/2)")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_eta_curve)

    sp = sub.add_parser("check", help="run an invariant suite")
    sp.add_argument("suite", choices=SUITES)
    sp.set_defaults(fn=cmd_check)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
