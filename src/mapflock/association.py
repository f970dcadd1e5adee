"""User-to-access-point matching and coverage accounting.

Each ground user connects to the nearest alive aerial agent, by the
horizontal distance, provided that agent lies within communication range
over the 3-D distance (horizontal offset plus the fixed flight height).
Ties break to the lowest agent id so reruns are identical. No capacity
limit is applied at matching time -- overload is handled by the control
forces.

The matcher never forms all user-agent pairs. The users go once per run
into a k-d tree (:func:`user_table`, ``scipy.spatial.cKDTree``; the world
holds it, and it serves any height and range), the alive agents once per
observation into another. The pairs within the horizontal reach
``sqrt(r^2 - h^2)`` of the two trees are the candidates. Each candidate
pair gets the squared horizontal distance ``d2``, at the positions the
trees hold, and the range test ``sqrt(d2 + h^2) <= r``. Among its
in-range pairs, a user takes the smallest ``d2``, and on a tie the lowest
agent id, so the order of the candidates does not matter. That is the
nearest alive agent whenever the nearest is in range. A user with no pair
in range has no agent in range, and stays unassigned.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


@dataclass
class Assignment:
    """Result of one matching pass over a world snapshot."""

    owner: np.ndarray           # (M,) agent id per user, -1 if unassigned
    loads: np.ndarray           # (L,) users served per agent
    coverage_ratio: float       # assigned / M (0 for an empty user set)


def _reach(map_height, comm_range):
    """The horizontal distance within which a user can be in range."""
    # the 1e-9 widening keeps every pair the rounded test admits a candidate,
    # even at a height just below the range
    reach2 = comm_range * comm_range * (1.0 + 1e-9) - map_height * map_height
    return math.sqrt(max(reach2, 0.0))


def user_table(msd_pos):
    """The users' k-d tree, for matching at any height and range; built with
    sliding-midpoint splits and unshrunk nodes, as ``world.agent_tree`` is."""
    return cKDTree(msd_pos, balanced_tree=False, compact_nodes=False)


def squared_distances(p, ip, q, iq):
    """The squared distances of the rows ``p[ip]`` of an (N, 2) array from the
    rows ``q[iq]``, ``square(dx) + square(dy)`` per coordinate, built in place:
    the one rounding that the matcher, the graph and the force kernel share."""
    d2 = p[:, 0].take(ip)                # dx, squared in place
    d2 -= q[:, 0].take(iq)
    np.square(d2, out=d2)
    dy = p[:, 1].take(ip)
    dy -= q[:, 1].take(iq)
    d2 += np.square(dy, out=dy)
    return d2


def assign_msds(users, agents, alive, map_height, comm_range):
    """Match every user to its nearest alive agent, if that one is in range.

    `users` is the users' :func:`user_table` and `agents` the alive agents'
    ``world.agent_tree``; distances are taken at the positions they hold.
    """
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
    n_msds = users.n
    alive_ids = alive.nonzero()[0]
    pairs = agents.sparse_distance_matrix(users, _reach(map_height, comm_range),
                                          output_type="ndarray")
    agent, user = pairs["i"], pairs["j"]
    d2 = squared_distances(users.data, user, agents.data, agent)
    near = np.sqrt(d2 + map_height * map_height) <= comm_range
    agent, user, d2 = agent[near], user[near], d2[near]
    nearest = np.full(n_msds, np.inf)
    np.minimum.at(nearest, user, d2)
    tied = d2 == nearest[user]
    del d2, nearest
    best = np.full(n_msds, alive_ids.size)
    np.minimum.at(best, user[tied], agent[tied])   # lowest id wins ties
    # best = alive_ids.size (none in range) maps to owner -1, counted in slot 0
    owner = np.concatenate((alive_ids, [-1])).take(best)
    loads = np.bincount(owner + 1, minlength=alive.size + 1)
    coverage = (n_msds - int(loads[0])) / n_msds if n_msds else 0.0
    return Assignment(owner=owner, loads=loads[1:], coverage_ratio=coverage)


def cluster_coverages(assignment: Assignment, msd_cluster, cluster_users):
    """Per-cluster coverage fractions, indexed by cluster id.

    `msd_cluster` is the cluster id of each user and `cluster_users` the
    number of users in each cluster; every cluster has at least one user.
    """
    covered = np.bincount(msd_cluster[assignment.owner >= 0], minlength=len(cluster_users))
    return covered / cluster_users
