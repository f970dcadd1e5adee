"""User-to-access-point matching and coverage accounting.

Each ground user connects to the nearest alive aerial agent, by the
horizontal distance, provided that agent lies within communication range
over the 3-D distance (horizontal offset plus the fixed flight height).
Ties break to the lowest agent id so reruns are identical. No capacity
limit is applied at matching time -- overload is handled by the control
forces.

The matcher never forms all user-agent pairs. Each alive agent looks up the
users in the 3x3 block of grid cells around it (``grid.candidate_pairs``,
cells at least the horizontal reach ``sqrt(r^2 - h^2)`` wide, so no user in
range is missed). Each candidate pair gets the squared horizontal distance
``d2`` and the range test ``sqrt(d2 + h^2) <= r``. Among its in-range
pairs, a user takes the smallest ``d2``, and on a tie the lowest agent id.
That is the nearest alive agent whenever the nearest is in range. A user
with no pair in range has no agent in range, and stays unassigned.

The model's received power ``rho * dist^(-eta)`` is strictly decreasing
in distance, so its best in-range agent is this nearest one; the matcher
compares squared distances and never evaluates the power. ``rho`` and
``eta`` are still validated and echoed in the run summary, but they do
not affect the dynamics.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import candidate_pairs


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
        # the 1e-9 widening keeps every pair the rounded test admits a candidate,
        # even at a height just below the range
        reach2 = comm_range * comm_range * (1.0 + 1e-9) - map_height * map_height
        agent, user = candidate_pairs(map_pos[alive_ids], msd_pos, math.sqrt(max(reach2, 0.0)))
        # np.take gathers rows of an (n, 2) array far faster than fancy indexing
        diff = np.take(msd_pos, user, axis=0) - np.take(map_pos, alive_ids[agent], axis=0)
        d2 = np.einsum("ij,ij->i", diff, diff)
        near = np.sqrt(d2 + map_height * map_height) <= comm_range
        agent, user, d2 = agent[near], user[near], d2[near]
        nearest = np.full(n_msds, np.inf)
        np.minimum.at(nearest, user, d2)
        tied = d2 == nearest[user]
        best = np.full(n_msds, alive_ids.size)
        np.minimum.at(best, user[tied], agent[tied])   # lowest id wins ties
        reachable = best < alive_ids.size
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
