"""Command line entry point.

    qwhydro run <config-file>        execute the configured experiment
    qwhydro validate <config-file>   parse and validate the config only
    qwhydro list-experiments         print the experiment names

Exit codes: 0 success, 2 validation failure (bad config, a config file
that is not UTF-8 text, a diagnostic beyond its configured tolerance, such
as a Pearcey map whose quadrature error estimate exceeds pearcey_tol, or a
diagnostic that is not finite), 1 unexpected error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import EXPERIMENTS, ConfigError, parse_config
from .experiments import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwhydro",
        description="Quantum-walk hydrodynamics experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", type=Path)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config", type=Path)

    sub.add_parser("list-experiments", help="list available experiments")
    return parser


def _load(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except UnicodeDecodeError as exc:
        print(f"config error: {path} is not UTF-8 text (byte {exc.start})", file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.command == "validate":
        _load(args.config)
        print("config OK")
        return 0

    cfg = _load(args.config)
    try:
        result = run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in result.paths:
        print(path)
    if not result.ok:
        print("diagnostics exceeded configured tolerances", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
