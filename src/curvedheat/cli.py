"""Command-line front end: geometry | eigen | barrier | simulate | sweep.

Each subcommand reads a config (--config PATH or --preset NAME), writes
deterministic artifacts under --out, prints a short summary, and with
--strict exits nonzero unless every verification verdict passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import PRESETS, parse_config, preset_text
from .errors import ConfigError
from .experiments import run_barrier, run_eigen, run_geometry, run_simulate, run_sweep


def _add_common(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", type=Path, help="experiment config file")
    group.add_argument(
        "--preset", choices=sorted(PRESETS), help="built-in experiment preset"
    )
    sub.add_argument("--out", type=Path, required=True, help="output directory")
    sub.add_argument(
        "--strict", action="store_true",
        help="exit nonzero unless all verification verdicts pass",
    )


def _worker_count(text: str) -> int:
    """The --threads value: an integer of at least 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"need an integer of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedheat",
        description=(
            "numerical laboratory for semilinear heat flow on negatively curved "
            "model manifolds"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("geometry", "curvature hypothesis checks and drift tables"),
        ("eigen", "Dirichlet spectral bottom on balls"),
        ("barrier", "construct and verify a stationary supersolution"),
        ("simulate", "run the semilinear evolution (single ball or exhaustion)"),
        ("sweep", "parameter sweep producing a verdict map"),
    ):
        _add_common(subs.add_parser(name, help=text))
    subs.choices["sweep"].add_argument(
        "--threads", type=_worker_count, default=1,
        help="worker processes, at most one per cell",
    )
    return parser


COMMANDS = {
    "geometry": run_geometry,
    "eigen": run_eigen,
    "barrier": run_barrier,
    "simulate": run_simulate,
    "sweep": run_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            text = args.config.read_text()
        else:
            text = preset_text(args.preset)
        cfg = parse_config(text)
        if args.command == "sweep":
            ok, lines = run_sweep(cfg, args.out, threads=args.threads)
        else:
            ok, lines = COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(f"artifacts written to {args.out}")
    if args.strict and not ok:
        print("strict mode: verification FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
