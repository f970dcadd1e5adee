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
serve); Connectivity and Static are absorbing.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    potential vanishes exactly at the desired spacing `d`.
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
    # received power rho * dist^-eta: validated and echoed in the summary,
    # but matching picks the nearest agent, so neither affects the dynamics
    rho: float = 1.0         # transmit power [W]
    eta: float = 3.5         # path-loss exponent

    def __post_init__(self):
        _check_finite(self)
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.c1 <= 0 or self.c2 <= 0 or self.k <= 0:
            raise ValueError("gains c1, c2, k must be positive")
        if self.rho <= 0 or self.eta <= 0:
            raise ValueError("rho and eta must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if not (0.0 < self.d < self.r):
            raise ValueError("need 0 < d < r")

    @property
    def c(self):
        return (self.b - self.a) / np.sqrt(4.0 * self.a * self.b)

    @property
    def d_sigma(self):
        return sigma_scalar(self.d, self.epsilon)

    @property
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


# ---------------------------------------------------------------------------
# vectorized force evaluation (used by the simulation loop)
# ---------------------------------------------------------------------------

def flock_accelerations(positions, velocities, loads, alive, modes,
                        goal_a, goal_b, centroids, adjacency,
                        params: ControlParams):
    """Accelerations for all agents at once; dead agents get zero.

    `adjacency` is the boolean alive-and-in-range matrix over all agent
    ids (dead rows/columns all False). The pairwise terms are evaluated on
    its nonzero entries only; the consensus term keeps the dense product
    ``adjacency @ velocities``. Agrees with summing, agent by agent, the
    reference law u = f + g + h kept in ``tests/oracles.py``.
    """
    n = len(positions)
    eps = params.epsilon
    # the adjacent pairs (i, j) in row-major order; one flat scan is several
    # times faster than np.nonzero on a 2-D array
    i, j = np.divmod(np.flatnonzero(adjacency), n)
    diff = np.take(positions, j, axis=0) - np.take(positions, i, axis=0)   # q_j - q_i
    nsq = np.einsum("ij,ij->i", diff, diff)
    root = np.sqrt(1.0 + eps * nsq)
    scale = 1.0 / root                                     # grad = diff * scale
    z_sigma = (root - 1.0) / eps

    phi = phi_action(z_sigma, params)
    push = ((phi + load_pull_coeff(loads, params)[j]) * scale)[:, None] * diff
    # bincount sums each agent's pairs in j order, as a row sum would
    f = np.stack([np.bincount(i, push[:, k], minlength=n) for k in range(2)], axis=1)

    deg = np.bincount(i, minlength=n)
    g = consensus_weight(loads, params)[:, None] * (adjacency @ velocities
                                                    - deg[:, None] * velocities)

    h = np.zeros_like(positions)
    point = alive & (modes != MODE_BRIDGE)
    if np.any(point):
        tgt = centroids[goal_a[point]]
        h[point] = params.c1 * (tgt - positions[point]) - params.c2 * velocities[point]
    bridge = alive & (modes == MODE_BRIDGE)
    if np.any(bridge):
        da = centroids[goal_a[bridge]] - positions[bridge]
        db = centroids[goal_b[bridge]] - positions[bridge]
        sa = sigma_grad_scale(np.einsum("ij,ij->i", da, da), eps)[:, None]
        sb = sigma_grad_scale(np.einsum("ij,ij->i", db, db), eps)[:, None]
        h[bridge] = params.k * (da * sa + db * sb) - params.c2 * velocities[bridge]

    u = f + g + h
    u[~alive] = 0.0
    return u


# ---------------------------------------------------------------------------
# mode machine
# ---------------------------------------------------------------------------

def required_relays(edge_length, comm_range):
    """Relays needed to span an inter-centroid edge: max(0, ceil(len/r) - 1)."""
    return max(0, math.ceil(edge_length / comm_range) - 1)


def select_bridge_edge(pos_i, mst_edges, bridge_counts, centroids, comm_range):
    """Pick the bridge edge an agent should staff.

    Priority: largest relay deficit (required minus currently assigned);
    ties broken by nearest edge midpoint, then lexicographic edge id. If
    no edge is under-staffed, the nearest edge is returned (redundancy is
    allowed).
    """
    if not mst_edges:
        raise ValueError("cannot select a bridge edge from an empty tree")
    rows = []
    for ia, ib, length in mst_edges:
        deficit = required_relays(length, comm_range) - bridge_counts.get((ia, ib), 0)
        mid = 0.5 * (centroids[ia] + centroids[ib])
        dist = float(np.hypot(*(mid - pos_i)))
        rows.append((deficit, dist, (ia, ib)))
    max_deficit = max(row[0] for row in rows)
    if max_deficit > 0:
        rows = [row for row in rows if row[0] == max_deficit]
    return min(rows, key=lambda row: (row[1], row[2]))[2]


def mode_switch(mode, goal_a, goal_b, n_served, achieved, cluster_coverage,
                centroids, pos_i, mst_lookup, bridge_counts,
                thresholds: ModeThresholds, comm_range):
    """One mode-machine evaluation for one alive agent.

    Mutates `achieved` (the agent's achieved-goal set) in place and
    returns the new ``(mode, goal_a, goal_b)``. Nothing changes unless the
    agent holds a cluster goal whose coverage strictly exceeds `r0`;
    Connectivity and Static modes are absorbing. `mst_lookup` maps an
    achieved-goal set to its centroid spanning tree; it is queried after
    the newly achieved goal is folded in, so the tree is always current.

    Bridge duty requires an existing tree edge, and while uncovered
    clusters remain it also requires an actual relay deficit: agents are
    not spent on redundant relays while exploration is still useful. Once
    every known cluster is covered, surplus agents take (possibly
    redundant) bridge duty instead of parking.
    """
    if mode == MODE_BRIDGE:
        return mode, goal_a, goal_b
    if cluster_coverage[goal_a] <= thresholds.r0:
        return mode, goal_a, goal_b
    achieved.add(int(goal_a))
    if mode != MODE_DYNAMIC:
        return mode, goal_a, goal_b
    mst_edges = mst_lookup(frozenset(achieved))

    def to_bridge():
        edge = select_bridge_edge(pos_i, mst_edges, bridge_counts, centroids, comm_range)
        bridge_counts[edge] = bridge_counts.get(edge, 0) + 1
        return MODE_BRIDGE, edge[0], edge[1]

    def retarget():
        dists = [float(np.hypot(*(centroids[c] - pos_i))) for c in uncovered]
        return MODE_DYNAMIC, uncovered[int(np.argmin(dists))], -1

    uncovered = [c for c in range(len(centroids)) if c not in achieved]
    understaffed = any(required_relays(length, comm_range) > bridge_counts.get((ia, ib), 0)
                       for ia, ib, length in mst_edges)
    bridge_worthwhile = mst_edges and (understaffed or not uncovered)

    if n_served < thresholds.n0:
        # includes n_served == 0: an unused agent keeps roaming rather than parking
        if uncovered:
            return retarget()
        if bridge_worthwhile:
            return to_bridge()
        return mode, goal_a, goal_b
    if n_served < thresholds.n1:
        if bridge_worthwhile:
            return to_bridge()
        if uncovered:
            return retarget()
        return mode, goal_a, goal_b
    return MODE_STATIC, goal_a, -1
