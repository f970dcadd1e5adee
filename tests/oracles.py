"""Reference implementations kept as test oracles, not as library code.

* :func:`power_score_assign` -- the original matcher: argmax of the
  received power ``rho * dist ** -eta`` over in-range agents.
* :func:`recompute_run` -- the original step loop, which recomputes the
  matching, the adjacency and the connected components in every phase
  that needs them instead of carrying one observation forward.
"""

import math

import numpy as np

from mapflock import control as ctl
from mapflock.association import Assignment, assign_msds, cluster_coverages
from mapflock.netgraph import cluster_mst, connected_components, fiedler_value
from mapflock.sim import (
    MetricsSample,
    RunResult,
    SimulationDiverged,
    detect_convergence,
    euler_update,
    inject_failures,
)
from mapflock.world import adjacency_matrix, generate_scenario


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


def _measure(world, params, t):
    asg = assign_msds(world.msd_pos, world.map_pos, world.map_height, world.alive,
                      params.rho, params.eta, params.r)
    adj = adjacency_matrix(world.map_pos, world.alive, params.r)
    alive_adj = adj[np.ix_(world.alive, world.alive)].astype(float)
    lam2 = fiedler_value(alive_adj) if world.alive.any() else 0.0
    modes = world.mode[world.alive]
    counts = tuple(int(np.count_nonzero(modes == m)) for m in
                   (ctl.MODE_DYNAMIC, ctl.MODE_BRIDGE, ctl.MODE_STATIC))
    return MetricsSample(
        t=t,
        coverage_ratio=asg.coverage_ratio,
        fiedler=lam2,
        cluster_coverage=cluster_coverages(asg, world.clusters),
        alive_count=int(np.count_nonzero(world.alive)),
        mode_counts=counts,
    )


def _share_achieved_goals(world, adjacency):
    ids = np.flatnonzero(world.alive)
    if ids.size == 0:
        return
    sub = adjacency[np.ix_(ids, ids)]
    labels = connected_components(sub.astype(float))
    for comp in range(labels.max() + 1):
        members = ids[labels == comp]
        union = set().union(*(world.achieved[i] for i in members))
        for i in members:
            world.achieved[i] = set(union)


def _step(world, params, thresholds, dt, t_next):
    asg = assign_msds(world.msd_pos, world.map_pos, world.map_height, world.alive,
                      params.rho, params.eta, params.r)
    cov = cluster_coverages(asg, world.clusters)

    adj = adjacency_matrix(world.map_pos, world.alive, params.r)
    _share_achieved_goals(world, adj)

    bridge_counts = {}
    for i in np.flatnonzero(world.alive & (world.mode == ctl.MODE_BRIDGE)):
        edge = (int(world.goal_a[i]), int(world.goal_b[i]))
        bridge_counts[edge] = bridge_counts.get(edge, 0) + 1
    mst_cache = {}

    def mst_lookup(key):
        if key not in mst_cache:
            mst_cache[key] = cluster_mst(key, world.centroids)
        return mst_cache[key]

    changes = 0
    for i in np.flatnonzero(world.alive):
        new_mode, ga, gb = ctl.mode_switch(
            int(world.mode[i]), int(world.goal_a[i]), int(world.goal_b[i]),
            int(asg.loads[i]), world.achieved[i], cov, world.centroids,
            world.map_pos[i], mst_lookup, bridge_counts, thresholds, params.r)
        if new_mode != world.mode[i]:
            changes += 1
        world.mode[i], world.goal_a[i], world.goal_b[i] = new_mode, ga, gb

    accel = ctl.flock_accelerations(world.map_pos, world.map_vel, asg.loads,
                                    world.alive, world.mode, world.goal_a,
                                    world.goal_b, world.centroids, adj, params)
    euler_update(world.map_pos, world.map_vel, accel, world.alive, dt)
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
