"""Checks on a job's output files, and a brute-force oracle for its samples.

The oracle uses numpy only, never mapflock's kernels, so it stays an
independent reference when those kernels are replaced.
"""

import hashlib
import os
from collections import deque

import numpy as np

from mapflock.outputs import config_from_summary, metrics_header

OUTPUT_FILES = ("metrics.csv", "summary.txt", "trajectories.csv")
FIEDLER_ABS_TOL = 1e-7
FIEDLER_REL_TOL = 1e-6
RANGE_REL_TOL = 1e-9           # users this close to the range edge may go either way


def digests(out_dir):
    """sha256 of each output file the job wrote."""
    out = {}
    for name in OUTPUT_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def summary_value(out_dir, key):
    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        for line in fh:
            name, _, value = line.partition("=")
            if name.strip() == key:
                return float(value)
    raise ValueError(f"summary.txt has no {key}")


def check_outputs(out_dir, expected, n_steps, trajectories):
    """Problems found in one job's files; an empty list means they pass."""
    problems = []
    n_clusters = len(expected.cluster_centers)
    with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != metrics_header(n_clusters):
        problems.append(f"metrics.csv header {lines[0]!r} != metrics_header({n_clusters})")
    names = lines[0].split(",")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    if len(rows) != n_steps + 1:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {n_steps + 1}")
    if not np.isfinite(rows).all():
        problems.append("metrics.csv holds a non-finite value")
    if rows[0, 0] != 0.0:
        problems.append("metrics.csv does not start at t = 0")
    coverage = rows[:, [j for j, n in enumerate(names)
                        if n == "coverage_ratio" or n.startswith("rg_")]]
    if ((coverage < 0) | (coverage > 1)).any():
        problems.append("a coverage lies outside [0, 1]")
    if (rows[:, names.index("fiedler")] < 0).any():
        problems.append("a Fiedler value is negative")
    if config_from_summary(os.path.join(out_dir, "summary.txt")) != expected:
        problems.append("config_from_summary does not reproduce the generated config")
    path = os.path.join(out_dir, "trajectories.csv")
    if trajectories:
        with open(path, encoding="utf-8") as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows != expected.map_count * (n_steps + 1):
            problems.append(f"trajectories.csv has {n_rows} rows, expected "
                            f"{expected.map_count * (n_steps + 1)}")
    elif os.path.exists(path):
        problems.append("trajectories.csv written without --trajectories")
    return problems


def component_count(adjacency):
    """Connected components of a boolean adjacency matrix, by breadth-first search."""
    neighbours = [np.flatnonzero(row).tolist() for row in adjacency]
    seen = [False] * len(neighbours)
    count = 0
    for start in range(len(neighbours)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            for nb in neighbours[queue.popleft()]:
                if not seen[nb]:
                    seen[nb] = True
                    queue.append(nb)
    return count


def _covered_bounds(dist, comm_range):
    """Users surely in range, and users possibly in range at the range edge."""
    return (int(np.count_nonzero(dist <= comm_range * (1 - RANGE_REL_TOL))),
            int(np.count_nonzero(dist <= comm_range * (1 + RANGE_REL_TOL))))


def check_sample(world, sample, comm_range):
    """Problems in a MetricsSample against brute-force recomputation from the
    world it was measured on: coverage by pairwise distances, connectivity by
    breadth-first search, and the Fiedler value by a dense eigensolve."""
    problems = []
    alive = np.asarray(world.alive, dtype=bool)
    if sample.alive_count != int(alive.sum()):
        problems.append(f"alive count {sample.alive_count} != {int(alive.sum())}")
    agents = world.map_pos[alive]

    # coverage: a user is served iff some alive agent is within 3-D range
    planar = ((world.msd_pos[:, None, :] - agents[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(planar.min(axis=1, initial=np.inf) + world.map_height ** 2)
    groups = [("coverage_ratio", np.ones(len(dist), dtype=bool), sample.coverage_ratio)]
    groups += [(f"rg_{k}", world.msd_cluster == k, value)
               for k, value in enumerate(sample.cluster_coverage)]
    for label, members, reported in groups:
        lo, hi = _covered_bounds(dist[members], comm_range)
        count = round(reported * int(members.sum()))
        if not lo <= count <= hi:
            problems.append(f"{label} {reported} covers {count} users, oracle {lo}..{hi}")

    # connectivity: the Fiedler value is exactly 0 iff the graph is disconnected
    diff = agents[:, None, :] - agents[None, :, :]
    adjacency = (diff ** 2).sum(axis=2) <= comm_range * comm_range
    np.fill_diagonal(adjacency, False)
    components = component_count(adjacency)
    if components != 1 or len(agents) < 2:
        if sample.fiedler != 0.0:
            problems.append(f"fiedler {sample.fiedler} != 0 with {components} components "
                            f"over {len(agents)} agents")
    else:
        a = adjacency.astype(float)
        expected = float(np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)[1])
        if abs(sample.fiedler - expected) > FIEDLER_ABS_TOL + FIEDLER_REL_TOL * expected:
            problems.append(f"fiedler {sample.fiedler} != dense eigvalsh {expected}")
    return problems
