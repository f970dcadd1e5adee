"""User-to-access-point matching and coverage accounting.

Each ground user connects to the nearest alive aerial agent, by the
horizontal distance, provided that agent lies within communication range
over the 3-D distance (horizontal offset plus the fixed flight height).
Ties break to the lowest agent id so reruns are identical. No capacity
limit is applied at matching time -- overload is handled by the control
forces.

The model's received power ``rho * dist^(-eta)`` is strictly decreasing
in distance, so its best in-range agent is this nearest one; the matcher
compares squared distances and never evaluates the power. ``rho`` and
``eta`` are still validated and echoed in the run summary, but they do
not affect the dynamics.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class Assignment:
    """Result of one matching pass over a world snapshot."""

    owner: np.ndarray           # (M,) agent id per user, -1 if unassigned
    loads: np.ndarray           # (L,) users served per agent
    coverage_ratio: float       # assigned / M (0 for an empty user set)


def assign_msds(msd_pos, map_pos, map_height, alive, rho, eta, comm_range):
    """Match every user to its nearest alive agent, if that one is in range."""
    if rho <= 0 or eta <= 0 or comm_range <= 0:
        raise ValueError("rho, eta and comm_range must be positive")
    n_msds = len(msd_pos)
    n_maps = len(map_pos)
    owner = np.full(n_msds, -1, dtype=int)
    alive_ids = np.flatnonzero(alive)
    if alive_ids.size and n_msds:
        diff = msd_pos[:, None, :] - map_pos[None, alive_ids, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        best = np.argmin(d2, axis=1)             # first index wins ties -> lowest id
        # the nearest agent is out of range only if every agent is
        nearest = d2[np.arange(n_msds), best]
        reachable = np.sqrt(nearest + map_height * map_height) <= comm_range
        owner[reachable] = alive_ids[best[reachable]]
    loads = np.bincount(owner[owner >= 0], minlength=n_maps)
    coverage = float(np.count_nonzero(owner >= 0)) / n_msds if n_msds else 0.0
    return Assignment(owner=owner, loads=loads, coverage_ratio=coverage)


def cluster_coverages(assignment: Assignment, msd_cluster, n_clusters):
    """Per-cluster coverage fractions, indexed by cluster id.

    `msd_cluster` is the cluster id of each user; every cluster has at
    least one user.
    """
    covered = np.bincount(msd_cluster[assignment.owner >= 0], minlength=n_clusters)
    return covered / np.bincount(msd_cluster, minlength=n_clusters)
