"""Command-line interface.

Subcommands: simulate, sweep, eta-curve, check.
Exit codes: 0 success, 1 invalid configuration, 2 numerical failure,
3 invariant-suite failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from fractions import Fraction

from .checks import SUITES, run_suite
from .errors import ConfigError, NumericalFailure
from .harness import (
    INITIALS,
    INTERACTIONS,
    POTENTIALS,
    RunConfig,
    eta_curve,
    make_config,
    parse_config_file,
    parse_setting,
    records_csv,
    run_simulation,
    sweep_N,
)


def _spec_help(kinds: dict) -> str:
    return " | ".join(
        kind + (":" + ",".join(f"<{n}>" for n in names) if names else "")
        for kind, names in kinds.items()
    )


_HELP = {
    "particles_list": "comma-separated, e.g. 2,3,4,5,6",
    "potential": _spec_help(POTENTIALS),
    "interaction": _spec_help(INTERACTIONS),
    "initial": _spec_help(INITIALS),
    "p": "exponent for eta, e.g. 3/2 or 1.5",
    "method": "krylov | dense",
}


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """`--config` plus one text flag per `RunConfig` field."""
    parser.add_argument("--config", help="optional `key = value` file; flags override it")
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            help=_HELP.get(f.name))


def config_from_args(args) -> RunConfig:
    """Merge the config file and the flags as text, flags winning, then
    convert each setting with `parse_setting`."""
    text = parse_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        if getattr(args, f.name) is not None:
            text[f.name] = getattr(args, f.name)
    return make_config(**{key: parse_setting(key, val) for key, val in text.items()})


def _emit(csv_text: str, out: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)


def cmd_simulate(args) -> int:
    cfg = config_from_args(args)
    result = run_simulation(cfg)
    _emit(records_csv(result.records), cfg.out)
    print(f"# fitted-K = {result.fitted_K()!r}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = config_from_args(args)
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
    try:
        d = int(args.dim)
    except ValueError as exc:
        raise ConfigError(f"dim: {exc}") from None
    try:
        ps = [Fraction(s) for s in args.p_grid.split(",") if s]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"p-grid: {exc}") from None
    rows, skipped = eta_curve(d, ps)
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
    add_run_flags(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sweep", help="N-sweep with convergence-rate fit")
    add_run_flags(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("eta-curve", help="rate exponent eta over a p grid")
    sp.add_argument("--dim", default="3", help="spatial dimension d of the rate exponent")
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
