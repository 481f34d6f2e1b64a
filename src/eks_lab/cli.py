"""Command-line front end.

    eks-lab <subcommand> --config <path> --out <dir> [--seed <u64>]

Subcommands name the study kind (sample, study-j, study-time,
study-coupling, demo-nonlinear, validate); the config file's own "kind"
must match.  --seed overrides the config's base seed.  Outputs land in
--out: report.json plus the study CSVs.  --out is created, parents
included, before any compute; a path that cannot be a directory is a
usage error.

Exit codes: 0 success, 1 a pre-registered acceptance band failed (or a
validate check did), 2 usage or configuration error, 3 a runtime error
(the dynamics overflowed, a solve failed, memory ran out).
"""

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import EksError
from .studies import (STUDY_KINDS, ConfigError, load_config, parse_config,
                      run_study)

EXIT_OK = 0
EXIT_BAND_FAILURE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_HELP = ("exit codes: 0 success, 1 an acceptance band failed, "
             "2 usage or config error, 3 runtime error")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eks-lab",
        description="Ensemble Kalman sampling studies: run a configured "
                    "experiment and write report.json + CSVs.",
        epilog=EXIT_HELP)
    parser.add_argument("--version", action="version",
                        version=f"eks-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in STUDY_KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' study",
                           epilog=EXIT_HELP)
        p.add_argument("--config", required=True,
                       help="JSON study configuration")
        p.add_argument("--out", required=True,
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's base seed")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.kind != args.command:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand "
                f"{args.command!r}")
        if args.seed is not None:
            try:
                cfg = parse_config(dict(cfg.echo, seed=args.seed))
            except ConfigError as err:
                raise ConfigError(f"--seed: {err}") from None
    except ConfigError as err:
        print(f"eks-lab: config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    # before any compute: an --out that cannot be a directory (an existing
    # file, a path below one, no permission) is a usage error, not a
    # traceback with the band-failure exit code
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"eks-lab: cannot create output directory {args.out!r}: "
              f"{err.strerror or err}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = run_study(cfg, out_dir=args.out)
    except EksError as err:
        print(f"eks-lab: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as err:
        # numpy raises a private subclass; name the public class
        print(f"eks-lab: MemoryError: {err}", file=sys.stderr)
        return EXIT_RUNTIME

    for name, ok in sorted(report.flags.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if report.kind == "validate":
        for cell in report.cells:
            status = "ok" if cell.value == 1.0 else "FAILED"
            print(f"  check {cell.metric}: {status}")
        for name, detail in report.summary.get("failures", {}).items():
            print(f"  {name}: {detail}", file=sys.stderr)
    if not report.passed:
        print("eks-lab: one or more acceptance bands failed",
              file=sys.stderr)
        return EXIT_BAND_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
