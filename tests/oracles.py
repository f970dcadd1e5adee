"""Reference implementations kept as test oracles, not as library code.

* :func:`power_score_assign` -- the original matcher: argmax of the
  received power ``rho * dist ** -eta`` over in-range agents.
* :func:`recompute_run` -- the original step loop, which recomputes the
  matching, the adjacency and the connected components in every phase
  that needs them instead of carrying one observation forward, and visits
  every alive agent with the mode machine's rule written out per agent
  before it calls ``control.mode_switch``; it calls the dense kernels
  below, not the library's pair kernels, and :func:`masked_euler_update`,
  not the library's integrator.
* :func:`masked_euler_update` -- semi-implicit Euler by boolean-mask
  gathers and scatters of the alive rows; the library updates in place
  with masked ufuncs.
* :func:`scan_cluster_coverages` -- per-cluster coverage by one scan of
  the users per cluster.
* :func:`brute_force_spanning_tree` -- the clusters' spanning tree as the
  least, by its sorted ``(length, id_a, id_b)`` keys, of every acyclic
  edge subset of the complete graph; the library grows it by Prim's
  algorithm. :func:`brute_force_mst_weight` -- the least total length
  over every labelled spanning tree, decoded from its Pruefer sequence.
* :func:`dense_assign_msds`, :func:`dense_adjacency_matrix`,
  :func:`dense_flock_accelerations` -- the matcher, the adjacency matrix
  and the force kernel over all M x L user-agent and L x L agent pairs,
  which the library now evaluates over the candidate pairs of k-d trees
  only; :func:`scan_connected_components`, the component labelling that
  scans one adjacency row per node; :func:`loop_share_achieved_goals`, the
  goal sharing that scans every label once per component and unions the
  members' goals as Python sets, read from and written back to their rows.
* :func:`dense_fiedler_value` -- the Fiedler value of a dense 0/1 matrix,
  through :func:`dense_laplacian` ``np.diag(A.sum(1)) - A``; the library
  builds the Laplacian from the graph's pairs, and reads its component
  labels only when the pairs do not prove it disconnected.
* :func:`directed_pairs` -- the graph's pairs in both directions, expanded
  from the int32 pairs ``(rows, cols)``, ``rows < cols``, that the library
  holds, and :func:`upper_pairs`, those pairs of a dense 0/1 matrix, so that
  tests can hand dense oracles' graphs to the library and back.
* :func:`closed_form_bump`, :func:`closed_form_phi_uneven` and
  :func:`closed_form_phi_action` -- the range gate as two nested
  ``np.where``s, the uneven sigmoid as one expression and the action
  potential as gate times sigmoid; the library computes each in place.
  :func:`closed_form_load_pull` and :func:`closed_form_consensus_weight`
  -- the two load coefficients, each one expression over
  :func:`closed_form_bump`; the library reads them from tables at integer
  loads. The force oracles below call these, never ``bump`` or
  ``phi_action`` of ``mapflock.potentials``.
* :func:`kernel_world` -- a ``World`` that holds only the arrays the force
  kernel reads, so that tests can hand the array oracles' inputs to
  ``control.flock_accelerations``.
* :func:`control_input` and its terms :func:`attract_repulse`,
  :func:`velocity_consensus`, :func:`goal_term_point` and
  :func:`goal_term_bridge` -- the control law u = f + g + h for one agent,
  written term by term; ``control.flock_accelerations`` evaluates it for
  every agent at once. :func:`sigma_norm` is the vector sigma-norm and
  its gradient.
"""

import bisect
import itertools
import math
from collections import Counter

import numpy as np

from mapflock import control as ctl
from mapflock.association import Assignment, cluster_coverages
from mapflock.control import MODE_BRIDGE, ControlParams
from mapflock.netgraph import cluster_mst
from mapflock.potentials import sigma_grad_scale, sigma_scalar
from mapflock.sim import (
    MetricsSample,
    RunResult,
    SimulationDiverged,
    detect_convergence,
    inject_failures,
)
from mapflock.world import World, generate_scenario


def power_score_assign(msd_pos, map_pos, map_height, alive, rho, eta, comm_range):
    """Match every user to the in-range alive agent of highest received power."""
    n_msds = len(msd_pos)
    owner = np.full(n_msds, -1, dtype=int)
    alive_ids = np.flatnonzero(alive)
    if alive_ids.size and n_msds:
        diff = msd_pos[:, None, :] - map_pos[None, alive_ids, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff) + map_height * map_height)
        score = rho * dist ** (-eta)
        score[dist > comm_range] = -np.inf
        best = np.argmax(score, axis=1)          # first index wins ties -> lowest id
        reachable = np.isfinite(score[np.arange(n_msds), best])
        owner[reachable] = alive_ids[best[reachable]]
    loads = np.bincount(owner[owner >= 0], minlength=len(map_pos))
    coverage = float(np.count_nonzero(owner >= 0)) / n_msds if n_msds else 0.0
    return Assignment(owner=owner, loads=loads, coverage_ratio=coverage)


def dense_assign_msds(msd_pos, map_pos, map_height, alive, comm_range):
    """Match every user to its nearest alive agent, if that one is in range."""
    if comm_range <= 0:
        raise ValueError("comm_range must be positive")
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


def dense_adjacency_matrix(map_pos, alive, comm_range):
    """Boolean alive-and-in-range matrix over all agent ids (zero diagonal)."""
    diff = map_pos[:, None, :] - map_pos[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= comm_range * comm_range
    ok = np.asarray(alive, dtype=bool)
    adj = within & ok[:, None] & ok[None, :]
    np.fill_diagonal(adj, False)
    return adj


def directed_pairs(rows, cols):
    """The pairs ``(rows, cols)`` of a graph in both directions, in
    row-major order: ``np.nonzero`` of the graph's matrix. The given pairs
    must already have ``rows < cols`` in strictly row-major order, the order
    ``world.adjacency_matrix`` promises, so every test that reads the
    library's graph through this adapter checks that order too."""
    keys = np.asarray(rows, dtype=np.int64) * (int(np.max(cols, initial=0)) + 1) + cols
    assert np.all(rows < cols) and np.all(np.diff(keys) > 0), "pairs not upper row-major"
    both_rows, both_cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    order = np.lexsort((both_cols, both_rows))
    return both_rows[order], both_cols[order]


def upper_pairs(adjacency):
    """The pairs ``(rows, cols)`` of a dense 0/1 matrix with ``rows < cols``,
    in row-major order; int32, as ``world.adjacency_matrix`` gives them."""
    rows, cols = np.nonzero(np.triu(np.asarray(adjacency, dtype=bool), 1))
    return rows.astype(np.int32), cols.astype(np.int32)


def scan_connected_components(adjacency):
    """Component label per node (labels are 0..n_components-1, BFS order)."""
    n = len(adjacency)
    labels = np.full(n, -1, dtype=int)
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            node = stack.pop()
            for nb in np.flatnonzero(adjacency[node]):
                if labels[nb] < 0:
                    labels[nb] = current
                    stack.append(int(nb))
        current += 1
    return labels


def dense_laplacian(adjacency):
    """L = D - A for a symmetric 0/1 adjacency matrix."""
    return np.diag(adjacency.sum(axis=1)) - adjacency


def dense_fiedler_value(adjacency):
    """Second-smallest eigenvalue of the dense Laplacian, at least 0; exactly 0
    when the graph is disconnected or has fewer than two nodes."""
    adjacency = np.asarray(adjacency, dtype=float)
    if len(adjacency) < 2 or scan_connected_components(adjacency).max() > 0:
        return 0.0
    return max(float(np.linalg.eigvalsh(dense_laplacian(adjacency))[1]), 0.0)


def closed_form_bump(z, lower, upper):
    """1 below `lower`, a half-cosine ramp to `upper`, 0 at and beyond it (and at NaN)."""
    z = np.asarray(z, dtype=float)
    ramp = 0.5 * (1.0 + np.cos(np.pi * (z - lower) / (upper - lower)))
    out = np.where(z < lower, 1.0, np.where(z < upper, ramp, 0.0))
    return float(out) if out.ndim == 0 else out


def closed_form_phi_uneven(z, a, b, c):
    """0.5*[(a+b)*(z+c)/sqrt(1+(z+c)^2) + (a-b)]."""
    s = np.asarray(z, dtype=float) + c
    out = 0.5 * ((a + b) * s / np.sqrt(1.0 + s * s) + (a - b))
    return float(out) if out.ndim == 0 else out


def closed_form_phi_action(z_sigma, params):
    """The range gate at z / r_sigma times the sigmoid at z - d_sigma."""
    z = np.asarray(z_sigma, dtype=float)
    gate = closed_form_bump(z / params.r_sigma, params.gamma, 1.0)
    out = gate * closed_form_phi_uneven(z - params.d_sigma, params.a, params.b, params.c)
    return float(out) if np.ndim(out) == 0 else out


def closed_form_load_pull(load_j, params):
    """a * (1 - bump(sigma((load_j - n_max)^+) / sigma(n_max), 0, 1)): zero at
    or under capacity, saturating at `a`."""
    excess = np.maximum(np.asarray(load_j, dtype=float) - params.n_max, 0.0)
    ratio = sigma_scalar(excess, params.epsilon) / sigma_scalar(params.n_max, params.epsilon)
    return params.a * (1.0 - closed_form_bump(ratio, 0.0, 1.0))


def closed_form_consensus_weight(load_i, params):
    """1 - bump(sigma((n_max - load_i)^+) / sigma(n_max), 0, 1): one for an
    idle agent, zero for one at capacity."""
    headroom = np.maximum(params.n_max - np.asarray(load_i, dtype=float), 0.0)
    ratio = sigma_scalar(headroom, params.epsilon) / sigma_scalar(params.n_max, params.epsilon)
    return 1.0 - closed_form_bump(ratio, 0.0, 1.0)


def kernel_world(positions, velocities, alive, modes, goal_a, goal_b, centroids):
    """A ``World`` around the given arrays, not copies of them, with no users."""
    n, k = len(positions), len(centroids)
    return World(centroids=centroids, msd_pos=np.zeros((0, 2)), msd_cluster=np.zeros(0, int),
                 map_pos=positions, map_vel=velocities, map_height=0.0, alive=alive,
                 mode=modes, goal_a=goal_a, goal_b=goal_b,
                 achieved=np.zeros((n, k), dtype=bool), user_table=None,
                 cluster_users=np.zeros(k, int), user_extent=0.0)


def dense_flock_accelerations(positions, velocities, loads, alive, modes,
                              goal_a, goal_b, centroids, adjacency,
                              params: ControlParams):
    """Accelerations for all agents at once; dead agents get zero."""
    eps = params.epsilon
    diff = positions[None, :, :] - positions[:, None, :]   # diff[i, j] = q_j - q_i
    nsq = np.einsum("ijk,ijk->ij", diff, diff)
    root = np.sqrt(1.0 + eps * nsq)
    scale = 1.0 / root                                     # grad = diff * scale
    z_sigma = (root - 1.0) / eps
    del root

    phi = closed_form_phi_action(z_sigma, params)
    coeff = (phi + closed_form_load_pull(loads, params)[None, :]) * adjacency
    f = np.einsum("ij,ijk->ik", coeff * scale, diff)

    # each row's terms v_j - v_i added in column order, as the per-agent law adds them
    g = np.zeros_like(velocities)
    for j in range(len(velocities)):
        g += adjacency[:, j, None] * (velocities[j] - velocities)
    g *= closed_form_consensus_weight(loads, params)[:, None]

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


def goal_ids(row):
    """The goal ids marked in one agent's row of ``World.achieved``, as a set."""
    return set(np.flatnonzero(row).tolist())


def goal_sets(achieved):
    """Each agent's goal ids in a ``World.achieved`` array, as a list of sets."""
    return [goal_ids(row) for row in achieved]


def goal_rows(sets, n_goals):
    """The ``World.achieved`` array that marks each agent's set of goal ids."""
    rows = np.zeros((len(sets), n_goals), dtype=bool)
    for row, goals in zip(rows, sets):
        row[sorted(goals)] = True
    return rows


def _union_rows(achieved, members):
    """Write the union of the members' goal-id sets back into each member's row."""
    union = set().union(*(goal_ids(achieved[i]) for i in members))
    for i in members:
        achieved[i] = False
        achieved[i, sorted(union)] = True


def loop_share_achieved_goals(world, labels):
    """Union achieved-goal knowledge within each connected alive component.

    `labels` holds the component label of each alive agent, in id order.
    """
    ids = np.flatnonzero(world.alive)
    if ids.size == 0:
        return
    for comp in range(labels.max() + 1):
        _union_rows(world.achieved, ids[labels == comp])


def scan_cluster_coverages(assignment, msd_cluster, n_clusters):
    """Fraction of each cluster's users assigned to any agent, cluster by cluster."""
    out = np.zeros(n_clusters)
    for cluster_id in range(n_clusters):
        members = np.flatnonzero(msd_cluster == cluster_id)
        out[cluster_id] = float(np.count_nonzero(assignment.owner[members] >= 0)) \
            / len(members)
    return out


def _acyclic(edges, ids):
    """Whether the ``(length, a, b)`` edges over the node ids hold no cycle."""
    component = {c: {c} for c in ids}
    for _, a, b in edges:
        if b in component[a]:
            return False
        merged = component[a] | component[b]
        for c in merged:
            component[c] = merged
    return True


def brute_force_spanning_tree(cluster_ids, centroids):
    """The spanning tree over at most 6 distinct cluster ids whose edge keys
    ``(length, id_a, id_b)``, sorted, are lexicographically least among every
    acyclic (k - 1)-edge subset of the complete graph; returned as
    ``(id_a, id_b, length)`` in that sorted order."""
    ids = sorted({int(c) for c in cluster_ids})
    assert len(ids) <= 6, "the subsets of more edges are too many to enumerate"
    if len(ids) < 2:
        return []
    edges = sorted((float(np.hypot(*(np.asarray(centroids[a], float)
                                     - np.asarray(centroids[b], float)))), a, b)
                   for a, b in itertools.combinations(ids, 2))
    best = min(sorted(subset) for subset in itertools.combinations(edges, len(ids) - 1)
               if _acyclic(subset, ids))
    return [(a, b, length) for length, a, b in best]


def brute_force_mst_weight(ids, centroids):
    """The least total length over every labelled spanning tree of the
    clusters `ids`, each tree decoded from its Pruefer sequence."""
    ids = sorted(ids)
    k = len(ids)

    def length(a, b):
        return float(np.linalg.norm(centroids[ids[a]] - centroids[ids[b]]))

    if k < 2:
        return 0.0
    if k == 2:
        return length(0, 1)
    best = math.inf
    for seq in itertools.product(range(k), repeat=k - 2):
        deg = [1] * k
        for s in seq:
            deg[s] += 1
        leaves = sorted(i for i in range(k) if deg[i] == 1)
        total = 0.0
        for s in seq:
            total += length(leaves.pop(0), s)
            deg[s] -= 1
            if deg[s] == 1:
                bisect.insort(leaves, s)
        total += length(leaves[0], leaves[1])
        best = min(best, total)
    return best


def sigma_norm(v, epsilon):
    """Sigma-norm of a vector and its gradient.

    Returns ``(value, gradient)`` where ``value = (sqrt(1+eps*|v|^2)-1)/eps``
    and ``gradient = v / sqrt(1 + eps*|v|^2) = v / (1 + eps*value)``.
    The gradient is finite at v = 0, unlike the plain Euclidean norm.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    v = np.asarray(v, dtype=float)
    nsq = float(np.sum(v * v))
    root = np.sqrt(1.0 + epsilon * nsq)
    value = (root - 1.0) / epsilon
    return value, v / root


def attract_repulse(i, positions, loads, neighbor_ids, params: ControlParams):
    """Spacing + load-balancing force on agent i (term f)."""
    out = np.zeros(2)
    qi = positions[i]
    for j in neighbor_ids:
        dq = positions[j] - qi
        nsq = float(dq @ dq)
        z_sigma = sigma_scalar(math.sqrt(nsq), params.epsilon)
        coeff = closed_form_phi_action(z_sigma, params) + closed_form_load_pull(loads[j], params)
        out += coeff * dq * sigma_grad_scale(nsq, params.epsilon)
    return out


def velocity_consensus(i, velocities, loads, neighbor_ids, params: ControlParams):
    """Capacity-gated velocity matching with neighbors (term g)."""
    out = np.zeros(2)
    for j in neighbor_ids:
        out += velocities[j] - velocities[i]
    return closed_form_consensus_weight(loads[i], params) * out


def goal_term_point(pos_i, vel_i, target, params: ControlParams):
    """PD pull toward a static cluster centroid (term h, Dynamic/Static)."""
    return params.c1 * (np.asarray(target, float) - pos_i) - params.c2 * vel_i


def goal_term_bridge(pos_i, vel_i, end_a, end_b, params: ControlParams):
    """Connectivity-potential descent toward the segment between two centroids.

    Two sigma-smoothed pulls (one per endpoint, each saturating in
    magnitude) plus velocity damping split evenly between the two static
    reference velocities (term h, Connectivity mode).
    """
    end_a = np.asarray(end_a, dtype=float)
    end_b = np.asarray(end_b, dtype=float)
    if np.array_equal(end_a, end_b):
        raise ValueError("bridge endpoints must be distinct")
    da = end_a - pos_i
    db = end_b - pos_i
    pull = (params.k * da * sigma_grad_scale(float(da @ da), params.epsilon)
            + params.k * db * sigma_grad_scale(float(db @ db), params.epsilon))
    return pull - params.c2 * vel_i


def control_input(i, positions, velocities, loads, neighbor_ids, alive,
                  mode, goal_a, goal_b, centroids, params: ControlParams):
    """Total acceleration u = f + g + h for one alive agent.

    `goal_a`/`goal_b` are cluster indices into `centroids`; `goal_b` is
    only meaningful in Connectivity mode.
    """
    if not alive[i]:
        raise ValueError(f"control input requested for dead agent {i}")
    f = attract_repulse(i, positions, loads, neighbor_ids, params)
    g = velocity_consensus(i, velocities, loads, neighbor_ids, params)
    if mode == ctl.MODE_BRIDGE:
        h = goal_term_bridge(positions[i], velocities[i],
                             centroids[goal_a], centroids[goal_b], params)
    else:
        h = goal_term_point(positions[i], velocities[i], centroids[goal_a], params)
    return f + g + h


def _measure(world, params, t):
    asg = dense_assign_msds(world.msd_pos, world.map_pos, world.map_height, world.alive,
                            params.r)
    adj = dense_adjacency_matrix(world.map_pos, world.alive, params.r)
    alive_adj = adj[np.ix_(world.alive, world.alive)].astype(float)
    lam2 = dense_fiedler_value(alive_adj)
    modes = world.mode[world.alive]
    counts = tuple(int(np.count_nonzero(modes == m)) for m in
                   (ctl.MODE_DYNAMIC, ctl.MODE_BRIDGE, ctl.MODE_STATIC))
    return MetricsSample(
        t=t,
        coverage_ratio=asg.coverage_ratio,
        fiedler=lam2,
        cluster_coverage=cluster_coverages(asg, world.msd_cluster, world.cluster_users),
        alive_count=int(np.count_nonzero(world.alive)),
        mode_counts=counts,
    )


def masked_euler_update(pos, vel, accel, alive, dt):
    """Semi-implicit Euler in place on the rows `alive` selects: v += u*dt,
    then q += v*dt with the new v."""
    vel[alive] += accel[alive] * dt
    pos[alive] += vel[alive] * dt


def _step(world, params, thresholds, dt, t_next):
    asg = dense_assign_msds(world.msd_pos, world.map_pos, world.map_height, world.alive,
                            params.r)
    cov = cluster_coverages(asg, world.msd_cluster, world.cluster_users)

    adj = dense_adjacency_matrix(world.map_pos, world.alive, params.r)
    loop_share_achieved_goals(
        world, scan_connected_components(adj[np.ix_(world.alive, world.alive)].astype(float)))

    bridge_counts = Counter()
    for i in np.flatnonzero(world.alive & (world.mode == ctl.MODE_BRIDGE)):
        bridge_counts[int(world.goal_a[i]), int(world.goal_b[i])] += 1
    mst_cache = {}

    def mst_lookup(key):
        if key not in mst_cache:
            mst_cache[key] = cluster_mst(key, world.centroids)
        return mst_cache[key]

    # the machine's rule agent by agent: bridge mode is absorbing, a goal covered
    # above r0 is marked, and only a roaming agent decides
    changes = 0
    for i in np.flatnonzero(world.alive):
        mode, goal_a = int(world.mode[i]), int(world.goal_a[i])
        if mode == ctl.MODE_BRIDGE or cov[goal_a] <= thresholds.r0:
            continue
        world.achieved[i, goal_a] = True
        if mode != ctl.MODE_DYNAMIC:
            continue
        new_mode, ga, gb = ctl.mode_switch(
            goal_a, int(asg.loads[i]), world.achieved[i], world.centroids,
            world.map_pos[i], mst_lookup, bridge_counts, thresholds, params.r)
        if new_mode != mode:
            changes += 1
        world.mode[i], world.goal_a[i], world.goal_b[i] = new_mode, ga, gb

    accel = dense_flock_accelerations(world.map_pos, world.map_vel, asg.loads,
                                      world.alive, world.mode, world.goal_a,
                                      world.goal_b, world.centroids, adj, params)
    masked_euler_update(world.map_pos, world.map_vel, accel, world.alive, dt)
    if not (np.all(np.isfinite(world.map_pos[world.alive]))
            and np.all(np.isfinite(world.map_vel[world.alive]))):
        raise SimulationDiverged(f"non-finite state at t={t_next:.3f}")

    return _measure(world, params, t_next), changes


def recompute_run(config):
    """`sim.run` as it was before observations were carried between steps."""
    rng = np.random.default_rng(config.seed)
    world = generate_scenario(config, rng)
    params, thresholds, dt = config.control, config.thresholds, config.dt
    n_steps = math.ceil(config.t_end / dt - 1e-9)
    pending = sorted(config.failures)

    samples = [_measure(world, params, 0.0)]
    mode_changes = []
    for k in range(1, n_steps + 1):
        t_pre = (k - 1) * dt
        while pending and pending[0][0] <= t_pre + 1e-9:
            inject_failures(world, pending.pop(0)[1], rng)
        sample, changed = _step(world, params, thresholds, dt, k * dt)
        samples.append(sample)
        mode_changes.append(changed)

    return RunResult(
        config=config,
        samples=samples,
        world=world,
        mode_changes=mode_changes,
        convergence_time=detect_convergence(samples, mode_changes, dt),
        trajectory=None,
    )
