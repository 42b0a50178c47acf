"""Command-line driver: run scenario files or built-ins end to end.

Exit codes: 0 success, 2 insufficient data, 1 any other error (an
invalid scenario, flag or persisted document, or an unwritable output
path).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigurationError, InsufficientDataError, SesameError
from .experiments import AdaptationResult, ErrorReport, run_scenario
from .scenarios import (
    BUILTIN_SCENARIOS,
    REGRESSOGRAM,
    ScenarioConfig,
    builtin,
    load_scenario,
    save_scenario,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sesame",
        description="Reconstruct system energy models from simulated "
                    "battery-interface readings.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario end to end")
    run.add_argument("scenario",
                     help="built-in scenario name or path to a scenario JSON")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="output directory (default: out/<scenario name>)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    run.add_argument("--rate-grid", default=None, metavar="LIST",
                     help="comma-separated rates in Hz, e.g. 0.1,1,100")
    run.add_argument("--threshold", type=float, default=None,
                     help="monitor error threshold (fraction)")
    run.add_argument("--l", dest="pca_l", type=int, default=None,
                     help="transformed predictors the linear model keeps "
                          "(regressogram-compare runs only)")
    run.add_argument("--tlow", type=float, default=None, metavar="SECONDS",
                     help="stretched training interval")

    listing = sub.add_parser("list", help="list built-in scenarios")

    export = sub.add_parser("export", help="write a built-in scenario file")
    export.add_argument("scenario")
    export.add_argument("path")
    return parser


def _load(name_or_path: str) -> ScenarioConfig:
    if name_or_path in BUILTIN_SCENARIOS:
        return builtin(name_or_path)
    if os.path.exists(name_or_path):
        return load_scenario(name_or_path)
    raise ConfigurationError(
        f"{name_or_path!r} is neither a built-in scenario nor a file; "
        f"built-ins: {', '.join(sorted(BUILTIN_SCENARIOS))}")


def _apply_overrides(sc: ScenarioConfig, args) -> ScenarioConfig:
    import dataclasses

    if args.seed is not None:
        sc = sc.with_seed(args.seed)
    updates = {}
    if args.rate_grid is not None:
        try:
            updates["rate_grid"] = tuple(
                float(r) for r in args.rate_grid.split(",") if r)
        except ValueError as exc:
            raise ConfigurationError(f"bad rate grid: {exc}") from exc
    if args.threshold is not None:
        updates["threshold"] = args.threshold
    if args.pca_l is not None:
        if sc.experiment != REGRESSOGRAM:
            raise ConfigurationError(
                f"--l applies to {REGRESSOGRAM} runs only; {sc.name} is a "
                f"{sc.experiment} experiment")
        updates["pca_l"] = args.pca_l
    if args.tlow is not None:
        updates["t_low_s"] = args.tlow
    return dataclasses.replace(sc, **updates) if updates else sc


def _summarize(result, out_dir: str) -> None:
    if isinstance(result, ErrorReport):
        print(f"report: {os.path.join(out_dir, 'report.csv')}")
        for row in result.rows:
            err = "unsupported" if row.rms_rel_error is None else (
                f"rms={row.rms_rel_error:.4f} acc={row.accuracy:.4f}")
            print(f"  {row.rate_hz:>8g} Hz  {row.estimator:<18s} {err}")
    elif isinstance(result, AdaptationResult):
        print(f"adaptation: {os.path.join(out_dir, 'adaptation.csv')}")
        monitored = result.monitored()
        print(f"  windows monitored: {len(monitored)}")
        print(f"  rebuilds: {result.rebuild_count}")
        if monitored:
            tail = [e for _, e in monitored[-5:]]
            print(f"  final errors: {', '.join(f'{e:.4f}' for e in tail)}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "list":
            for name in sorted(BUILTIN_SCENARIOS):
                sc = builtin(name)
                print(f"{name:<20s} {sc.experiment:<22s} seed={sc.seed}")
            return 0
        if args.command == "export":
            sc = builtin(args.scenario)
            save_scenario(sc, args.path)
            print(f"wrote {args.path}")
            return 0
        sc = _apply_overrides(_load(args.scenario), args)
        out_dir = args.out or os.path.join("out", sc.name)
        print(f"running {sc.name} ({sc.experiment}), seed {sc.seed}")
        result = run_scenario(sc, out_dir)
        _summarize(result, out_dir)
        return 0
    except InsufficientDataError as exc:
        print(f"error: insufficient data: {exc}", file=sys.stderr)
        return 2
    except (SesameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
