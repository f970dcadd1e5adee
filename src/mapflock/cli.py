"""Command-line front end.

Subcommands:

* ``run <config>``            -- single run: metrics CSV + summary
* ``sweep-maps <config>``     -- fleet-size sweep, seed-replicated means
* ``sweep-failure <config>``  -- failure-ratio sweep at a fixed injection time
* ``plot <csv>``              -- SVG line chart of selected CSV columns

Exit codes: 0 success, 1 config/IO error, a diverged simulation or a run
too large for memory (one-line diagnostic on stderr), 2 usage error.
"""

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .outputs import (fmt, make_dirs, open_early, read_csv, write_line_svg,
                      write_run_outputs, write_trajectories_csv)
from .sim import SimulationDiverged, run
from .world import ConfigError, load_config

DEFAULT_REPLICATES = 5


@functools.cache
def _build_parser():
    """The command-line parser, built once per process: argparse leaves
    reference cycles behind each parser it builds."""
    parser = argparse.ArgumentParser(prog="mapflock",
                                     description="Flocking-based aerial coverage simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("config")
    scenario.add_argument("--seed", type=int, default=None,
                          help="override the config seed (a sweep's first replicate seed)")
    scenario.add_argument("--out-dir", default="out")
    sweep = argparse.ArgumentParser(add_help=False, parents=[scenario])
    sweep.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)

    p_run = sub.add_parser("run", parents=[scenario], help="execute one scenario")
    p_run.add_argument("--trajectories", action="store_true",
                       help="also write a per-step trajectory CSV")
    p_run.set_defaults(handler=_cmd_run)

    p_maps = sub.add_parser("sweep-maps", parents=[sweep],
                            help="coverage/connectivity vs fleet size")
    p_maps.add_argument("--counts", type=int, nargs="+", required=True)
    p_maps.set_defaults(handler=lambda args: _sweep(
        args, "maps", args.counts,
        lambda base, count, seed: replace(base, map_count=count, seed=seed)))

    p_fail = sub.add_parser("sweep-failure", parents=[sweep], help="resilience vs failure ratio")
    p_fail.add_argument("--fractions", type=float, nargs="+", required=True)
    p_fail.add_argument("--at", type=float, required=True, help="injection time [s]")
    p_fail.set_defaults(handler=lambda args: _sweep(
        args, "failure", args.fractions,
        lambda base, frac, seed: replace(base, seed=seed, failures=((args.at, frac),))))

    p_plot = sub.add_parser("plot", help="render CSV columns as an SVG line chart")
    p_plot.add_argument("csv")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--cols", default=None,
                        help="comma-separated column names (default: all but t)")
    p_plot.set_defaults(handler=_cmd_plot)
    return parser


def _sweep(args, label, values, make_config):
    """Run replicate seeds per sweep point of the config file and write per-run
    + mean outputs; `make_config(base, value, seed)` gives a point's config, and
    every config is built first, so a bad point stops the sweep unwritten."""
    base = load_config(args.config)
    names = [f"{label}_{value:g}" for value in values]
    if len(set(names)) < len(names):
        print(f"error: sweep point names must be distinct, got {' '.join(names)}", file=sys.stderr)
        return 2
    first = base.seed if args.seed is None else args.seed
    seeds = [first + k for k in range(args.replicates)]
    configs = [[make_config(base, value, seed) for seed in seeds] for value in values]
    make_dirs(args.out_dir)
    path = os.path.join(args.out_dir, "sweep_summary.txt")
    with open_early(path) as write:
        for name, point in zip(names, configs):
            finals_rc, finals_lam = [], []
            for seed, config in zip(seeds, point):
                result = run(config)
                write_run_outputs(result, os.path.join(args.out_dir, name, f"seed_{seed}"))
                finals_rc.append(result.final.coverage_ratio)
                finals_lam.append(result.final.fiedler)
            write(f"{name}.mean_final_coverage_ratio = {fmt(np.mean(finals_rc))}\n"
                  f"{name}.mean_final_fiedler = {fmt(np.mean(finals_lam))}\n"
                  f"{name}.seeds = {','.join(str(s) for s in seeds)}\n")
    print(f"sweep summary -> {path}")
    return 0


def _cmd_run(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    trajectories = [os.path.join(args.out_dir, "trajectories.csv")] if args.trajectories else []
    if trajectories:
        make_dirs(args.out_dir)
        result = write_trajectories_csv(trajectories[0], functools.partial(run, config))
    else:
        result = run(config)
    paths = write_run_outputs(result, args.out_dir) + trajectories
    print(f"final coverage_ratio={fmt(result.final.coverage_ratio)} "
          f"fiedler={fmt(result.final.fiedler)} -> {', '.join(paths)}")
    return 0


def _cmd_plot(args):
    names, cols = read_csv(args.csv)
    if args.cols:
        wanted = [c.strip() for c in args.cols.split(",")]
        missing = [c for c in wanted if c not in cols]
        if missing:
            raise ConfigError(f"unknown columns: {', '.join(missing)}")
    else:
        wanted = [n for n in names if n != names[0]]
    x = cols[names[0]]
    write_line_svg(args.out, x, {name: cols[name] for name in wanted},
                   x_label=names[0])
    print(f"plot -> {args.out}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "replicates", 1) < 1:
        print(f"error: --replicates must be at least 1, got {args.replicates}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (OSError, ValueError, SimulationDiverged, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())

