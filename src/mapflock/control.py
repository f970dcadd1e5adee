"""Per-agent control law and the mode-switching machine.

Each aerial access point (MAP) accelerates according to the sum of three
terms:

* ``f``  -- pairwise attract/repulse spacing force, plus an extra pull
  toward overloaded neighbors (load balancing),
* ``g``  -- velocity consensus with neighbors, gated by the agent's own
  spare serving capacity,
* ``h``  -- goal term: a PD pull toward a cluster centroid (Dynamic /
  Static modes) or a smoothed two-endpoint pull onto the segment between
  two cluster centroids (Connectivity mode, i.e. relay bridges).

The mode machine moves agents between Dynamic (travel to an uncovered
cluster), Connectivity (serve as a bridge relay), and Static (stay and
serve); Connectivity and Static are absorbing. Each decision is the one
rule written out in :func:`mode_switch`.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial

import numpy as np

from .association import squared_distances
from .netgraph import cluster_mst
from .potentials import bump, phi_action, sigma_grad_scale, sigma_scalar

MODE_DYNAMIC = 0   # travel to nearest uncovered cluster
MODE_BRIDGE = 1    # relay on an inter-cluster bridge edge
MODE_STATIC = 2    # stay and serve the goal cluster

MODE_NAMES = {MODE_DYNAMIC: "M0", MODE_BRIDGE: "M1", MODE_STATIC: "M2"}


def _check_finite(params):
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ControlParams:
    """All controller constants (defaults follow the nominal experiment set).

    The sigmoid offset `c` is always derived from `a` and `b` (never stored
    independently) so that the sigmoid root is at 0, i.e. the action
    potential vanishes exactly at the desired spacing `d`. `c`, `d_sigma`
    and `r_sigma` are computed on first use and kept on the instance.
    """

    d: float = 20.0          # desired MAP spacing [m], in (0, r)
    r: float = 24.0          # communication range [m] (1.2 * d)
    epsilon: float = 0.1     # sigma-norm parameter, positive
    a: float = 5.0           # sigmoid force scale (also load-pull coefficient), positive
    b: float = 5.0           # sigmoid force scale, positive
    gamma: float = 0.2       # lower cutoff of the range gate, in (0, 1)
    c1: float = 0.3          # goal position gain, positive
    c2: float = 0.6          # goal velocity gain, positive
    k: float = 10.0          # connectivity (bridge) gain, positive
    n_max: int = 80          # per-MAP serving capacity [users], at least 1

    def __post_init__(self):
        _check_finite(self)
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.c1 <= 0 or self.c2 <= 0 or self.k <= 0:
            raise ValueError("gains c1, c2, k must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if not (0.0 < self.d < self.r):
            raise ValueError("need 0 < d < r")

    @cached_property
    def c(self):
        return (self.b - self.a) / np.sqrt(4.0 * self.a * self.b)

    @cached_property
    def d_sigma(self):
        return sigma_scalar(self.d, self.epsilon)

    @cached_property
    def r_sigma(self):
        return sigma_scalar(self.r, self.epsilon)


@dataclass(frozen=True)
class ModeThresholds:
    """Mode-switch constants: coverage gate and serving-load bands."""

    r0: float = 0.95   # per-goal coverage needed before a switch is considered, in (0, 1]
    n0: int = 3        # [users] below: keep roaming; at/above: eligible for bridge duty
    n1: int = 10       # [users] at/above: settle as a static server; 0 < n0 < n1

    def __post_init__(self):
        _check_finite(self)
        if not (0.0 < self.r0 <= 1.0):
            raise ValueError("r0 must lie in (0, 1]")
        if not (0 < self.n0 < self.n1):
            raise ValueError("need 0 < n0 < n1")


# ---------------------------------------------------------------------------
# vectorized force evaluation (used by the simulation loop)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def load_tables(params: ControlParams, size):
    """The load coefficients ``(pull, weight)`` at the loads 0..size-1.

    pull = a * (1 - bump(sigma((load - n_max)^+) / sigma(n_max), 0, 1)) draws
    agents toward a neighbour serving beyond capacity, saturating at `a`;
    weight = 1 - bump(sigma((n_max - load)^+) / sigma(n_max), 0, 1) gates an
    agent's velocity consensus: 1 when idle, 0 at capacity.
    """
    loads = np.arange(size, dtype=float)
    scale = sigma_scalar(params.n_max, params.epsilon)
    excess = sigma_scalar(np.maximum(loads - params.n_max, 0.0), params.epsilon) / scale
    headroom = sigma_scalar(np.maximum(params.n_max - loads, 0.0), params.epsilon) / scale
    return params.a * (1.0 - bump(excess, 0.0, 1.0)), 1.0 - bump(headroom, 0.0, 1.0)


def flock_accelerations(world, adjacency, loads, params: ControlParams):
    """Accelerations u = f + g + h of every agent of `world`; dead agents get +0.0.

    `adjacency` is the alive agents' graph as the int32 pairs ``(rows,
    cols)``, ``rows < cols``, of :func:`world.adjacency_matrix`, `loads` the
    users each agent serves; the load coefficients come from one
    :func:`load_tables`, at the loads clipped to 2 * n_max, past which both
    are constant. Each pair is taken once, as agent ids i < j: its distance,
    phi and 1/root serve both its terms. Each agent sums its pushes, then
    its velocity differences, in neighbour id order, as the per-agent law in
    ``tests/oracles.py`` does: ``bincount`` over j adds the lower
    neighbours' terms, negated, then ``add.at`` over i the upper ones'. As
    (-a)^2 = a^2, (-a) c = -(a c) and a sum from +0.0 absorbs a zero's sign,
    the result is that law's bit for bit. The goal terms are added last.
    Each coordinate is summed in its own (n,) array; u is filled from the
    two at the end.
    """
    positions, velocities = world.map_pos, world.map_vel
    n, eps = len(positions), params.epsilon
    ids = world.alive.nonzero()[0]
    i, j = ids.take(adjacency[0]), ids.take(adjacency[1])
    del ids

    def pair_diff(x):
        """x_j - x_i over the pairs, for a column x of every agent."""
        d = x.take(j)
        d -= x.take(i)
        return d

    def pair_sums(lower, upper):
        """Per agent in id order: the `lower` terms of its pairs as j, then the
        `upper` as i; float, also when there is no pair."""
        out = np.bincount(j, lower, minlength=n).astype(float, copy=False)
        np.add.at(out, i, upper)
        return out

    root = np.sqrt(1.0 + eps * squared_distances(positions, j, positions, i))
    phi = phi_action((root - 1.0) / eps, params)        # at the sigma distance
    inv = np.divide(1.0, root, out=root)                # grad = diff / root
    del root
    # sized by the largest load, never by n_max alone: the next power of two
    # above it, at most 2 * n_max + 1 entries; take clips the loads into it
    last = min(1 << int(loads.max(initial=0)).bit_length(), 2 * params.n_max + 1) - 1
    pull, weight = load_tables(params, last + 1)
    pull = pull.take(loads, mode="clip")
    c_ij, c_ji = (phi + pull.take(j)) * inv, (phi + pull.take(i)) * inv
    del phi, pull, inv
    columns = []
    for k in range(2):
        d = pair_diff(positions[:, k])
        lower = np.multiply(d, c_ji)
        columns.append(pair_sums(np.negative(lower, out=lower),
                                 np.multiply(d, c_ij, out=d)))
        del d, lower
    del c_ij, c_ji
    gain = weight.take(loads, mode="clip")
    for k, col in enumerate(columns):
        d = pair_diff(velocities[:, k])
        col += gain * pair_sums(np.negative(d), d)
    del i, j, d, gain

    # the goal terms of the alive agents: c1 (c_a - q), or on a bridge
    # k (da sa + db sb) with d = c - q, then the damping - c2 v
    ids = world.alive.nonzero()[0]
    h = world.centroids.take(world.goal_a.take(ids), axis=0)
    h -= positions.take(ids, axis=0)
    bridge = (world.mode.take(ids) == MODE_BRIDGE).nonzero()[0]
    da = h.take(bridge, axis=0)
    h *= params.c1
    if bridge.size:
        db = world.centroids.take(world.goal_b.take(ids.take(bridge)), axis=0)
        db -= positions.take(ids.take(bridge), axis=0)
        sa = sigma_grad_scale(np.einsum("ij,ij->i", da, da), eps)[:, None]
        sb = sigma_grad_scale(np.einsum("ij,ij->i", db, db), eps)[:, None]
        h[bridge] = params.k * (da * sa + db * sb)
    h -= params.c2 * velocities.take(ids, axis=0)
    for col, h_col in zip(columns, h.T):
        col[ids] += h_col
    del h, ids
    u = np.empty((n, 2))
    u[:, 0], u[:, 1] = columns
    return u


# ---------------------------------------------------------------------------
# mode machine
# ---------------------------------------------------------------------------

def required_relays(edge_length, comm_range):
    """Relays needed to span an inter-centroid edge: max(0, ceil(len/r) - 1)."""
    return max(0, math.ceil(edge_length / comm_range) - 1)


def select_bridge_edge(pos_i, mst_edges, bridge_counts, centroids, comm_range):
    """Pick the bridge edge an agent should staff: the least
    ``(-max(deficit, 0), midpoint distance, (id_a, id_b))``.

    The deficit is the relays an edge requires minus those assigned to it:
    the largest deficit wins, ties go to the nearest edge midpoint, then to
    the lower edge id. If no edge is under-staffed, the nearest edge is
    returned (redundancy is allowed).
    """
    if not mst_edges:
        raise ValueError("cannot select a bridge edge from an empty tree")
    keys = ((-max(required_relays(length, comm_range) - bridge_counts[ia, ib], 0),
             float(np.hypot(*(0.5 * (centroids[ia] + centroids[ib]) - pos_i))), (ia, ib))
            for ia, ib, length in mst_edges)
    return min(keys)[2]


def mode_switch(goal_a, n_served, achieved, centroids, pos_i, mst_lookup, bridge_counts,
                thresholds: ModeThresholds, comm_range):
    """One mode-machine decision for a roaming agent whose goal is covered above r0.

    `achieved` is the agent's (K,) bool row of known covered goals, a view
    into ``World.achieved``; the goal is marked in it before `mst_lookup`,
    from the sorted tuple of achieved goal ids to their centroid spanning
    tree, is queried. `bridge_counts` is a ``Counter`` of the relays per
    edge ``(id_a, id_b)``; the agent is counted on the edge it adopts.

    Returns the new ``(mode, goal_a, goal_b)`` by one rule. A load of n1 or
    more goes Static. A bridge is worthwhile when the tree has an edge and
    either an edge lacks relays or no cluster is uncovered: agents are not
    spent on redundant relays while exploration is useful. While clusters
    are uncovered, a load below n0 (an unused agent included) or no
    worthwhile bridge retargets to the nearest one. Otherwise the agent
    bridges if that is worthwhile, and keeps its goal if not.
    """
    achieved[goal_a] = True
    if n_served >= thresholds.n1:
        return MODE_STATIC, goal_a, -1
    mst_edges = mst_lookup(tuple(achieved.nonzero()[0].tolist()))
    uncovered = (~achieved).nonzero()[0].tolist()
    bridge = mst_edges and (not uncovered or any(
        required_relays(length, comm_range) > bridge_counts[ia, ib]
        for ia, ib, length in mst_edges))
    if uncovered and (n_served < thresholds.n0 or not bridge):
        dists = [float(np.hypot(*(centroids[c] - pos_i))) for c in uncovered]
        return MODE_DYNAMIC, uncovered[int(np.argmin(dists))], -1
    if bridge:
        edge = select_bridge_edge(pos_i, mst_edges, bridge_counts, centroids, comm_range)
        bridge_counts[edge] += 1
        return MODE_BRIDGE, edge[0], edge[1]
    return MODE_DYNAMIC, goal_a, -1


def switch_modes(world, loads, coverage, thresholds: ModeThresholds, comm_range):
    """Phase 3 of a step, in place: :func:`mode_switch` for the alive roaming
    agents whose goal is covered above r0, in id order; returns the mode changes.

    Connectivity and Static are absorbing, and a static agent's goal is
    already marked in its row. Each adoption is counted before the next
    agent decides, so simultaneous switchers spread over the edges.
    """
    gated = (world.alive & (world.mode == MODE_DYNAMIC)
             & (coverage.take(world.goal_a) > thresholds.r0)).nonzero()[0]
    if not gated.size:
        return 0
    bridge = world.alive & (world.mode == MODE_BRIDGE)
    bridge_counts = Counter(zip(world.goal_a[bridge].tolist(), world.goal_b[bridge].tolist()))
    mst_lookup = cache(partial(cluster_mst, centroids=world.centroids))
    changes = 0
    for i in gated:
        new_mode, ga, gb = mode_switch(
            int(world.goal_a[i]), int(loads[i]), world.achieved[i], world.centroids,
            world.map_pos[i], mst_lookup, bridge_counts, thresholds, comm_range)
        changes += new_mode != MODE_DYNAMIC
        world.mode[i], world.goal_a[i], world.goal_b[i] = new_mode, ga, gb
    return changes
