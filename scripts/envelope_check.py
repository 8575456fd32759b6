#!/usr/bin/env python3
"""Single-run envelope experiment: co-evolve the exact N-body state and the
Hartree orbital, then print how much room the closed-form alpha envelope
(alpha(0) + 1/N) e^{phi(t)} leaves above the measured alpha(t).

Takes the run flags of `mfdyn simulate` (with `--stride` defaulting to 100)
except `--particles-list`; `--out run.csv` also writes the run's CSV records.
Exit codes: 0 envelope held, 1 envelope violated, 2 invalid configuration
(argparse's usage line) or numerical failure (one `numerical failure:` line).

Usage:
    python scripts/envelope_check.py [--particles 4] [--interaction gaussian:1,1]
"""
import argparse
import sys

from mfdyn.cli import add_run_flags, config_from_args
from mfdyn.errors import ConfigError, NumericalFailure
from mfdyn.harness import records_csv, run_simulation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    add_run_flags(ap)
    ap.set_defaults(stride="100")
    args = ap.parse_args()
    try:
        cfg = config_from_args(args)
        result = run_simulation(cfg)
    except ConfigError as exc:
        ap.error(str(exc))
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(records_csv(result.records))
    print(f"{'t':>6} {'alpha':>12} {'envelope':>12} {'slack':>12} {'beta':>12}")
    for r in result.records:
        print(
            f"{r.t:6.2f} {r.alpha:12.3e} {r.alpha_bound:12.3e} "
            f"{r.slack_alpha:12.3e} {r.beta:12.3e}"
        )
    violated = any(r.slack_alpha < -1e-9 for r in result.records)
    print(f"envelope violated: {violated}")
    print(f"fitted-K for the beta envelope: {result.fitted_K():.6g}")
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
