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

    d: float = 20.0          # desired MAP spacing [m]
    r: float = 24.0          # communication range [m] (1.2 * d)
    epsilon: float = 0.1     # sigma-norm parameter
    a: float = 5.0           # sigmoid force scale (also load-pull coefficient)
    b: float = 5.0           # sigmoid force scale
    gamma: float = 0.2       # lower cutoff of the range gate
    n_max: int = 80          # per-MAP serving capacity
    c1: float = 0.3          # goal position gain
    c2: float = 0.6          # goal velocity gain
    k: float = 10.0          # connectivity (bridge) gain

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

    r0: float = 0.95   # per-goal coverage needed before a switch is considered
    n0: int = 3        # below: keep roaming; at/above: eligible for bridge duty
    n1: int = 10       # at/above: settle as a static server

    def __post_init__(self):
        _check_finite(self)
        if not (0.0 < self.r0 <= 1.0):
            raise ValueError("r0 must lie in (0, 1]")
        if not (0 < self.n0 < self.n1):
            raise ValueError("need 0 < n0 < n1")


# ---------------------------------------------------------------------------
# force coefficients
# ---------------------------------------------------------------------------

def load_pull_coeff(load_j, params: ControlParams):
    """Extra attraction toward neighbor j when it serves beyond capacity.

    Coefficient a * (1 - bump(sigma((load_j - n_max)^+) / sigma(n_max), 0, 1));
    zero while the neighbor is at or under capacity, saturating at `a`.
    """
    excess = np.maximum(np.asarray(load_j, dtype=float) - params.n_max, 0.0)
    ratio = sigma_scalar(excess, params.epsilon) / sigma_scalar(params.n_max, params.epsilon)
    return params.a * (1.0 - bump(ratio, 0.0, 1.0))


def consensus_weight(load_i, params: ControlParams):
    """Own-capacity gate on velocity consensus.

    1 - bump(sigma((n_max - load_i)^+) / sigma(n_max), 0, 1): an idle agent
    fully matches neighbor velocities, a fully loaded one ignores them.
    """
    headroom = np.maximum(params.n_max - np.asarray(load_i, dtype=float), 0.0)
    ratio = sigma_scalar(headroom, params.epsilon) / sigma_scalar(params.n_max, params.epsilon)
    return 1.0 - bump(ratio, 0.0, 1.0)


@lru_cache(maxsize=64)
def load_tables(params: ControlParams, size):
    """`load_pull_coeff` and `consensus_weight` at the loads 0..size-1."""
    return load_pull_coeff(np.arange(size), params), consensus_weight(np.arange(size), params)


# ---------------------------------------------------------------------------
# vectorized force evaluation (used by the simulation loop)
# ---------------------------------------------------------------------------

def flock_accelerations(positions, velocities, loads, alive, modes,
                        goal_a, goal_b, centroids, adjacency,
                        params: ControlParams):
    """Accelerations for all agents at once; dead agents get zero.

    `adjacency` holds the graph of the alive agents as the int32 CSR arrays
    ``(indptr, indices)`` that :func:`world.adjacency_matrix` gives. The
    spacing, load and velocity-consensus terms are evaluated on its pairs
    only, in row-major order, and summed per agent in neighbour id order, so
    the result equals, bit for bit, the reference law u = f + g + h summed
    agent by agent in ``tests/oracles.py``. The load coefficients are read
    from :func:`load_tables` at the loads clipped to 2 * n_max, past which
    both are constant.
    """
    n = len(positions)
    eps = params.epsilon
    # sized by the largest load, never by n_max alone: the next power of two
    # above it, at most 2 * n_max + 1 entries
    last = min(1 << int(loads.max(initial=0)).bit_length(), 2 * params.n_max + 1) - 1
    pull, weight = load_tables(params, last + 1)
    clipped = np.minimum(loads, last)
    indptr, indices = adjacency
    # int32 agent ids: the pair arrays take half the memory; take and bincount
    # convert them to intp one at a time, each copy freed after its call
    ids = np.flatnonzero(alive).astype(np.int32)
    i, j = np.repeat(ids, np.diff(indptr)), ids[indices]    # as agent ids, row-major
    # each pair-sized temporary is updated in place, or freed after its last use
    diff = np.take(positions, j, axis=0).astype(float, copy=False)
    diff -= np.take(positions, i, axis=0)               # q_j - q_i
    root = 1.0 + eps * np.einsum("ij,ij->i", diff, diff)
    np.sqrt(root, out=root)
    coeff = phi_action((root - 1.0) / eps, params)      # phi at the sigma distance
    coeff += pull[clipped][j]
    coeff *= np.divide(1.0, root, out=root)             # grad = diff / root
    diff *= coeff[:, None]                              # the spacing and load pushes
    del root, coeff
    # bincount sums each agent's pairs in j order, as the per-agent loop does;
    # the pushes are summed and freed before the velocity differences exist
    f = [np.bincount(i, diff[:, k], minlength=n) for k in range(2)]
    del diff
    dv = np.take(velocities, j, axis=0)
    dv -= np.take(velocities, i, axis=0)                # v_j - v_i
    gain = weight[clipped]
    u = np.empty((n, 2))
    for k in range(2):
        u[:, k] = f[k] + gain * np.bincount(i, dv[:, k], minlength=n)
    del f, dv

    point = alive & (modes != MODE_BRIDGE)
    if np.any(point):
        tgt = centroids[goal_a[point]]
        u[point] += params.c1 * (tgt - positions[point]) - params.c2 * velocities[point]
    bridge = alive & (modes == MODE_BRIDGE)
    if np.any(bridge):
        da = centroids[goal_a[bridge]] - positions[bridge]
        db = centroids[goal_b[bridge]] - positions[bridge]
        sa = sigma_grad_scale(np.einsum("ij,ij->i", da, da), eps)[:, None]
        sb = sigma_grad_scale(np.einsum("ij,ij->i", db, db), eps)[:, None]
        u[bridge] += params.k * (da * sa + db * sb) - params.c2 * velocities[bridge]

    u[~alive] = 0.0
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
    mst_edges = mst_lookup(tuple(np.flatnonzero(achieved).tolist()))
    uncovered = np.flatnonzero(~achieved).tolist()
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
    bridge = world.alive & (world.mode == MODE_BRIDGE)
    bridge_counts = Counter(zip(world.goal_a[bridge].tolist(), world.goal_b[bridge].tolist()))
    mst_lookup = cache(partial(cluster_mst, centroids=world.centroids))
    gated = world.alive & (world.mode == MODE_DYNAMIC) & (coverage[world.goal_a] > thresholds.r0)
    changes = 0
    for i in np.flatnonzero(gated):
        new_mode, ga, gb = mode_switch(
            int(world.goal_a[i]), int(loads[i]), world.achieved[i], world.centroids,
            world.map_pos[i], mst_lookup, bridge_counts, thresholds, comm_range)
        changes += new_mode != MODE_DYNAMIC
        world.mode[i], world.goal_a[i], world.goal_b[i] = new_mode, ga, gb
    return changes
