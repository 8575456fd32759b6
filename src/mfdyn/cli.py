"""Command-line interface.

Subcommands: simulate, sweep, envelope, eta-curve, check.
Exit codes: 0 success, 1 invalid configuration (a run too large for
memory, or whose child was killed, included), 2 numerical failure,
3 invariant-suite failure or violated alpha envelope.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from fractions import Fraction

from .errors import ChildLost, ConfigError, NumericalFailure
from .harness import (
    INITIALS,
    INTERACTIONS,
    POTENTIALS,
    RunConfig,
    comma_fields,
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
}


# every flag of every subcommand takes exactly one value
VALUE_FLAGS = ("--config", *("--" + f.name.replace("_", "-") for f in fields(RunConfig)),
               "--dim", "--p-grid")


def add_run_command(sub, name: str, fn, summary: str) -> None:
    """Subcommand `name`, run by `fn`: `--config` plus a flag per `RunConfig` field."""
    sp = sub.add_parser(name, help=summary)
    sp.add_argument("--config", help="optional `key = value` file; flags override it")
    for f in fields(RunConfig):
        sp.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                        help=_HELP.get(f.name))
    sp.set_defaults(fn=fn)


def join_flag_values(argv: list[str]) -> list[str]:
    """`--flag value` -> `--flag=value` for each of `VALUE_FLAGS`: the next
    token is the value, even when it starts with `-` (`--dt -1e-3`,
    `--p -3/2`), which argparse would read as another flag."""
    out = []
    for arg in argv:
        if out and out[-1] in VALUE_FLAGS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def config_from_args(args) -> RunConfig:
    """Merge the config file and the flags as text, flags winning, then
    convert each setting with `parse_setting`; refuse an `out` that cannot
    be written before anything runs."""
    text = parse_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        if getattr(args, f.name) is not None:
            text[f.name] = getattr(args, f.name)
    cfg = make_config(**{key: parse_setting(key, val) for key, val in text.items()})
    _check_out(cfg.out)
    return cfg


def _check_out(out: str) -> None:
    """Refuse an `out` that is a directory or whose directory cannot be
    written. The file is left unopened, so a failed run leaves none; `_emit`
    reports later failures."""
    folder = os.path.dirname(out) or "."
    if out and os.path.isdir(out):
        raise ConfigError(f"cannot write {out}: it is a directory")
    if out and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write {out}: {folder} is not a writable directory")


def _emit(csv_text: str, out: str) -> None:
    if not out:
        sys.stdout.write(csv_text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(csv_text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from None


def cmd_simulate(args) -> int:
    cfg = config_from_args(args)
    result = run_simulation(cfg)
    _emit(records_csv(result.records), cfg.out)
    print(f"# fitted-K = {result.fitted_K()!r}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = config_from_args(args)
    result = sweep_N(cfg)
    _emit(records_csv(result.records), cfg.out)
    if result.degenerate:
        low = result.below_floor
        at = f" at N = {', '.join(map(str, low))}" if len(low) < len(result.runs) else ""
        print(f"# fit: degenerate ({'' if at else 'all '}E1 below 1e-12{at})", file=sys.stderr)
    else:
        print(
            f"# fit: E1 slope = {result.e_slope!r}, R1 slope = {result.r_slope!r}",
            file=sys.stderr,
        )
    for N, K in sorted(result.fitted_Ks().items()):
        print(f"# fitted-K(N={N}) = {K!r}", file=sys.stderr)
    return 0


def cmd_envelope(args) -> int:
    cfg = config_from_args(args)
    result = run_simulation(cfg)
    if cfg.out:
        _emit(records_csv(result.records), cfg.out)
    print(f"{'t':>6} {'alpha':>12} {'envelope':>12} {'slack':>12} {'beta':>12}")
    for r in result.records:
        print(
            f"{r.t:6.2f} {r.alpha:12.3e} {r.alpha_bound:12.3e} "
            f"{r.slack_alpha:12.3e} {r.beta:12.3e}"
        )
    violated = any(r.slack_alpha < -1e-9 for r in result.records)
    print(f"envelope violated: {violated}")
    print(f"fitted-K for the beta envelope: {result.fitted_K():.6g}")
    return 3 if violated else 0


def cmd_eta_curve(args) -> int:
    d = parse_setting("dim", args.dim)
    try:
        ps = [Fraction(s) for s in comma_fields(args.p_grid, "p-grid")]
        if not ps:
            raise ValueError("no p values")
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"p-grid: {exc}") from None
    _check_out(args.out)
    rows, skipped = eta_curve(d, ps)
    for p in skipped:
        print(f"# warning: p={p} outside (p0, 2], skipped", file=sys.stderr)
    lines = ["p,eta"] + [f"{float(p):.12f},{float(e):.12f}" for p, e in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_check(args) -> int:
    from .checks import run_suite  # the reference module; no run loads it

    results = run_suite(args.suite)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's 2 (numerical failure)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="mfdyn",
        description="Exact N-boson vs Hartree dynamics on a periodic 1-D lattice",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    add_run_command(sub, "simulate", cmd_simulate, "single run, CSV records")
    add_run_command(sub, "sweep", cmd_sweep, "N-sweep with convergence-rate fit")
    add_run_command(sub, "envelope", cmd_envelope, "single run, alpha against its envelope")

    sp = sub.add_parser("eta-curve", help="rate exponent eta over a p grid")
    sp.add_argument("--dim", default=str(RunConfig.dim),
                    help="spatial dimension d of the rate exponent")
    sp.add_argument("--p-grid", dest="p_grid", required=True,
                    help="comma-separated p values, fractions allowed (3/2)")
    sp.add_argument("--out", default="")
    sp.set_defaults(fn=cmd_eta_curve)

    sp = sub.add_parser("check", help="run an invariant suite")
    sp.add_argument("suite", help="a suite of mfdyn.checks, or all (an unknown name lists them)")
    sp.set_defaults(fn=cmd_check)

    return ap


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser().parse_args(join_flag_values(argv))
        return args.fn(args)
    # a run too large to allocate is bad input too, and so is one whose
    # child the out-of-memory killer ended
    except (ConfigError, MemoryError, ChildLost) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
