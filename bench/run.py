"""Benchmark of the mapflock simulator: one workload per invocation.

    python3 bench/run.py --workload failure_half --seed 1 --seconds 50 --trace 0

Runs the workload's job -- ``mapflock.cli.cli_main(["run", <config>,
"--seed", <seed>, "--out-dir", <dir>])`` -- in this process, one job at a
time, and checks every job's outputs. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from one traced job. The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload with
tracing off and on and prints every metric by name. See README.md.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """One BLAS thread: the simulator is single-threaded Python, and a second
    BLAS thread only adds CPU time and jitter. Must run before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the BLAS thread pin")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_mapflock():
    """Import mapflock from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import mapflock
    if SRC not in Path(mapflock.__file__).resolve().parents:
        raise ImportError(f"mapflock imported from {mapflock.__file__}, not {SRC}")


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
    }


def print_metrics(prefix, metrics):
    for name, m in metrics.items():
        print(f"{prefix}{name} = {m['value']:.6g} {m['unit']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    try:
        import_mapflock()
    except ImportError as exc:
        print(f"error: cannot import mapflock from {SRC}: {exc}", file=sys.stderr)
        return 2
    import harness

    print("environment " + json.dumps(environment()))
    if args.workload != "all":
        report, result = harness.bench(WORKLOADS[args.workload], args.seed,
                                       args.seconds, args.trace)
        print_metrics("", result["metrics"])
        print("report " + json.dumps(report))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            report, result = harness.bench(workload, args.seed, args.seconds, trace)
            print_metrics(f"{name}.", result["metrics"])
            print("report " + json.dumps(report))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}.{key}": value
                                     for key, value in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
