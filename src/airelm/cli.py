"""Command-line entry point.

Subcommands map one-to-one onto the experiment runners:

    airelm sweep-nr    --config exp.ini --out results.csv
    airelm sweep-snr   --config exp.ini --seeds 50
    airelm sweep-kappa --config exp.ini
    airelm online      --config exp.ini
    airelm single      --seed 7 --baseline

Without --config, built-in defaults run the synthetic two-Gaussians dataset.
Exit codes: 0 success, 1 configuration error, 2 data error, 3 output error
(the --out directory does not exist, --out or its manifest path is the
dataset file, the CSV cannot be written, or stdout's reader closed it
before the summary was printed; the CSV and the manifest are written by
then).  The --out path checks run before any trial.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import KINDS, ExperimentConfig, manifest_path, parse_config
from .errors import ConfigError, DataError, OutputError
from .experiments import SUMMARY_COLUMNS, run, summarize

_SUBCOMMANDS = {kind.replace("_", "-"): kind for kind in KINDS}

# flag -> (the config field it overrides, argparse options)
_FLAGS = {
    "--seed": ("master_seed", dict(type=int,
                                   help="master seed (overrides config)")),
    "--seeds": ("seeds", dict(type=int, help="number of trial seeds")),
    "--out": ("out", dict(help="CSV output path")),
    "--baseline": ("baseline", dict(action=argparse.BooleanOptionalAction,
                                    help="also run the digital-ELM baseline")),
    "--threads": ("threads", dict(type=int,
                                  help="seed workers, the calling thread "
                                       "one of them; one BLAS thread each")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airelm",
        description="Over-the-air ELM experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} experiment")
        p.add_argument("--config", help="INI experiment config file")
        for flag, (dest, options) in _FLAGS.items():
            p.add_argument(flag, dest=dest, **options)
    return parser


def _print_summary(results) -> None:
    table = summarize(results)
    keep = [c for c in SUMMARY_COLUMNS
            if any(row.get(c) is not None for row in table)]
    header = "  ".join(f"{c:>12}" for c in keep)
    print(header)
    for row in table:
        print("  ".join(format("" if v is None else v,
                               ">12.4f" if isinstance(v, float) else ">12")
                        for v in map(row.get, keep)))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind = _SUBCOMMANDS[args.command]
    try:
        overrides = {dest: getattr(args, dest) for dest, _ in _FLAGS.values()
                     if getattr(args, dest) is not None}
        cfg = replace(ExperimentConfig(kind=kind) if args.config is None
                      else parse_config(args.config, kind=kind), **overrides)
        results = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    try:
        _print_summary(results)
        if cfg.out is not None:
            print(f"results: {cfg.out}")
            print(f"manifest: {manifest_path(cfg.out)}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered, and the flush
        # at interpreter exit, to devnull instead of a second traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output error: stdout was closed before the summary was "
              "printed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
