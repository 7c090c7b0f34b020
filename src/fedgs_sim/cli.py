"""Command-line entry point.

Subcommands:
  run            run an experiment from a config file, write results CSV
  curve          export the difficulty transform over a geometric grid
  gen-data       generate and dump the synthetic federation as PGM files
  print-defaults print the full default config file

Exit codes: 0 success, 1 config/validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import default_config, parse_config, render_config
from .data import build_federation, dump_federation
from .harness import emit_difficulty_curve, fedgs_overhead, run_experiment, write_curve_csv, write_results_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedgs-sim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a multi-seed strategy sweep")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", default=None, help="output directory (default: config's out_dir)")

    curve = sub.add_parser("curve", help="export difficulty-factor curve data")
    curve.add_argument("--l", type=float, required=True, help="log base of the transform")
    curve.add_argument("--tau", type=float, required=True, help="small-lesion threshold")
    curve.add_argument("--out", required=True, help="output CSV path")

    gen = sub.add_parser("gen-data", help="dump the synthetic federation as PGM files")
    gen.add_argument("--config", required=True, help="experiment config file")
    gen.add_argument("--out", required=True, help="output directory")

    sub.add_parser("print-defaults", help="print the default config file")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    out_dir = Path(args.out if args.out is not None else cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the sweep: a bad path fails at once
    rows = run_experiment(cfg)
    out_path = out_dir / "results.csv"
    write_results_csv(rows, out_path)
    print(f"wrote {len(rows)} rows to {out_path}")

    final = [r for r in rows if r.round == cfg.rounds - 1]
    for strategy in cfg.strategies:
        rs = [r for r in final if r.strategy == strategy]
        dice = sum(r.dice for r in rs) / len(rs)
        dice_s = [r.dice_s for r in rs if r.dice_s is not None]
        small = sum(dice_s) / len(dice_s) if dice_s else float("nan")
        print(f"{strategy}: final-round mean dice={dice:.4f} dice_s={small:.4f} over {len(rs)} seeds")
    overhead = fedgs_overhead(rows)
    if overhead is not None:
        print(f"fedgs wall-time overhead vs fedavg: {overhead * 100.0:+.1f}% per round")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    points = emit_difficulty_curve(args.l, args.tau)
    write_curve_csv(points, args.out)
    print(f"wrote {len(points)} curve points to {args.out}")
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    federation = build_federation(list(cfg.client_specs), cfg.seeds[0])
    dump_federation(args.out, federation)
    n = sum(len(c) for c in federation.clients) + len(federation.test_set)
    print(f"wrote {n} samples (seed {cfg.seeds[0]}) under {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "curve":
            return _cmd_curve(args)
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        print(render_config(default_config()), end="")
        return 0
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
