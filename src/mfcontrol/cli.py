"""Command-line interface.

Subcommands:
  run <cfg>                         run the configured solver, write artifacts
  sweep <cfg> --policy <csv>        robustness sweep of a frozen policy
  sparsity <policy.csv>             per-time-slice zero fraction of a policy
  validate <cfg>                    check the problem's derivative callbacks

Exit codes: 0 success, 1 runtime failure (partial artifacts written where
possible), 2 invalid configuration or arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, parse_config
from .experiments import (
    robustness_sweep,
    run_experiment,
    sparsity_report,
    sparsity_to_csv,
)
from .grids import field_from_csv
from .nag import METHODS
from .problem import validate_derivatives


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcontrol",
        description="iterative PDE-based solver for mean-field control problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured solver")
    p_run.add_argument("config", help="path to a run configuration file")
    p_run.add_argument("--method", choices=METHODS,
                       help="override the configured method")
    p_run.add_argument("--output", help="override the configured output directory")

    p_sweep = sub.add_parser("sweep", help="robustness sweep of a frozen policy")
    p_sweep.add_argument("config", help="path to a run configuration file")
    p_sweep.add_argument("--policy", required=True, help="frozen policy CSV")
    p_sweep.add_argument("--output", help="override the configured output directory")

    p_spar = sub.add_parser("sparsity", help="zero fraction of a policy per time slice")
    p_spar.add_argument("policy", help="policy CSV")
    p_spar.add_argument("--threshold", type=float, default=0.0,
                        help="magnitude below which a control counts as zero")

    p_val = sub.add_parser("validate", help="finite-difference check of derivatives")
    p_val.add_argument("config", help="path to a run configuration file")
    return parser


def _load_config(path: str, method=None, output=None):
    cfg = parse_config(path)
    if method is not None:
        cfg = replace(cfg, method=method)
    if output is not None:
        cfg = replace(cfg, output=output)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args.config, method=args.method, output=args.output)
            return run_experiment(cfg)

        if args.command == "sweep":
            cfg = _load_config(args.config, output=args.output)
            policy = field_from_csv(args.policy, policy=True)
            result = robustness_sweep(cfg, policy)
            out_dir = Path(cfg.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            out = out_dir / "sweep.csv"
            result.to_csv(out)
            print(f"wrote {out}")
            return 0

        if args.command == "sparsity":
            policy = field_from_csv(args.policy, policy=True)
            fractions = sparsity_report(policy, threshold=args.threshold)
            sparsity_to_csv(policy.grid.times, fractions, sys.stdout)
            return 0

        if args.command == "validate":
            cfg = _load_config(args.config)
            problem, _ = cfg.build()
            report = validate_derivatives(problem)
            for name, err in sorted(report.max_rel_error.items()):
                status = "ok" if name not in report.flagged else "FLAGGED"
                print(f"{name:14s} max rel error {err:.3e}  {status}")
            if not report.ok:
                print(f"derivatives exceed tolerance {report.tolerance:g}")
                return 1
            print("all derivatives within tolerance")
            return 0
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
