"""Discrete-time simulation loop: observe, share, switch, steer, integrate.

One step executes, in order:

1. the observation of the pre-step state: user-to-agent matching,
   per-cluster coverage, the aerial graph and its connected components.
   Matching and the graph test only the user-agent and agent-agent pairs
   in neighbouring cells of a grid whose cells are at least the reach
   wide, with the exact range and lowest-id tie rules of a test over all
   pairs; the components are walked over the graph's neighbour lists.
   It is the observation the previous step made of its post-step state,
   carried forward; a failure injection invalidates it, and the step
   then observes the state afresh,
2. idealized information sharing: achieved-goal sets are unioned across
   each connected component of the aerial graph (the protocol-level
   message passing is emulated centrally),
3. the mode machine for every alive agent, in id order,
4. control forces for every alive agent from the common pre-step
   position/velocity/load snapshot: the pairwise spacing and load terms
   over the adjacent pairs only, the velocity consensus through the
   dense product of the adjacency matrix and the velocities,
5. semi-implicit (symplectic) Euler integration ``v += u*dt; q += v*dt``
   (q moves with the new v), then the step-boundary guard,
6. the observation of the post-step state, from which the step's metrics
   are taken and which the next step starts from.

Dead agents are frozen and invisible to every phase. Runs are
deterministic given the seed: randomness is consumed only by scenario
generation and failure injection, in that order.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import control as ctl
from .association import Assignment, assign_msds, cluster_coverages
from .netgraph import cluster_mst, connected_components, fiedler_value
from .world import ScenarioConfig, World, adjacency_matrix, generate_scenario

# sliding-window convergence criterion (reported, not used for early exit)
CONVERGENCE_WINDOW_S = 5.0
CONVERGENCE_COVERAGE_BAND = 0.005

# step-boundary guard: an alive agent with a coordinate beyond this many scene
# extents (the largest user coordinate plus the communication range) has
# diverged; the cap keeps squared pairwise distances, at most 8 * bound^2, finite
DIVERGED_EXTENTS = 1e6
MAX_COORDINATE = math.sqrt(np.finfo(float).max / 8)


class SimulationDiverged(RuntimeError):
    """An alive agent left the scene, or its state is no longer finite."""


@dataclass
class MetricsSample:
    """Per-step record of the global health of the network."""

    t: float
    coverage_ratio: float
    fiedler: float
    cluster_coverage: np.ndarray   # (K,) per-cluster coverage
    alive_count: int
    mode_counts: tuple             # (#Dynamic, #Bridge, #Static) among alive


@dataclass
class RunResult:
    config: ScenarioConfig
    samples: list                  # list[MetricsSample], one per step plus t=0
    world: World                   # final state
    mode_changes: list             # agents that changed mode, per step
    convergence_time: float | None
    trajectory: list | None        # optional (t, id, x, y, vx, vy, mode, alive) rows

    @property
    def final(self) -> MetricsSample:
        return self.samples[-1]

    def coverage_series(self):
        return (np.array([s.t for s in self.samples]),
                np.array([s.coverage_ratio for s in self.samples]))

    def fiedler_series(self):
        return (np.array([s.t for s in self.samples]),
                np.array([s.fiedler for s in self.samples]))


@dataclass
class Observation:
    """What one world state shows, computed once per state: it serves the
    metrics of the step that reached the state and the next step's phases."""

    assignment: Assignment
    cluster_coverage: np.ndarray   # (K,) per-cluster coverage
    adjacency: np.ndarray          # (L, L) bool, alive and within range
    labels: np.ndarray | None      # component label per alive agent, in id order


def observe(world: World, params: ctl.ControlParams) -> Observation:
    """Match users to agents and build the aerial graph and its components."""
    asg = assign_msds(world.msd_pos, world.map_pos, world.map_height, world.alive,
                      params.rho, params.eta, params.r)
    adj = adjacency_matrix(world.map_pos, world.alive, params.r)
    ids = np.flatnonzero(world.alive)
    return Observation(
        assignment=asg,
        cluster_coverage=cluster_coverages(asg, world.msd_cluster, len(world.centroids)),
        adjacency=adj,
        labels=connected_components(adj[ids][:, ids]),
    )


def metrics_sample(world: World, obs: Observation, t: float) -> MetricsSample:
    """Metrics of the world state that `obs` observed."""
    alive = world.alive
    fiedler = 0.0                  # fewer than two agents, or disconnected
    if obs.labels.size > 1 and obs.labels.max() == 0:
        fiedler = fiedler_value(obs.adjacency[np.ix_(alive, alive)], labels=obs.labels)
    modes = world.mode[alive]
    counts = tuple(int(np.count_nonzero(modes == m)) for m in
                   (ctl.MODE_DYNAMIC, ctl.MODE_BRIDGE, ctl.MODE_STATIC))
    return MetricsSample(
        t=t,
        coverage_ratio=obs.assignment.coverage_ratio,
        fiedler=fiedler,
        cluster_coverage=obs.cluster_coverage,
        alive_count=int(np.count_nonzero(alive)),
        mode_counts=counts,
    )


def measure(world: World, params: ctl.ControlParams, t: float) -> MetricsSample:
    """Omniscient metrics of a world snapshot (fresh observation)."""
    return metrics_sample(world, observe(world, params), t)


def share_achieved_goals(world: World, labels):
    """Union achieved-goal knowledge within each connected alive component.

    `labels` holds the component label of each alive agent, in id order.
    """
    ids = np.flatnonzero(world.alive)
    if ids.size == 0:
        return
    # a stable sort groups the members of each component, in id order
    order = np.argsort(labels, kind="stable")
    for members in np.split(ids[order], np.flatnonzero(np.diff(labels[order])) + 1):
        members = members.tolist()
        union = set().union(*(world.achieved[i] for i in members))
        for i in members:
            world.achieved[i] = set(union)


def euler_update(pos, vel, accel, alive, dt):
    """Semi-implicit Euler in place: v += u*dt, then q += v*dt with the new v."""
    vel[alive] += accel[alive] * dt
    pos[alive] += vel[alive] * dt


def step(world: World, params: ctl.ControlParams, thresholds: ctl.ModeThresholds,
         dt: float, t_next: float, obs: Observation | None = None):
    """Advance the world by one step.

    `obs` is the observation of the current state, as the previous step
    returned it; None observes the state afresh. The step takes `obs` over
    and drops its component labels once it has used them. Returns (sample,
    mode_change_count, observation of the new state).
    """
    # 1: observation of the pre-step state
    if obs is None:
        obs = observe(world, params)
    loads, cov = obs.assignment.loads, obs.cluster_coverage

    # 2: idealized information sharing per connected component; the labels
    # have no later use, so they are released before the force phase, where
    # the step's memory use peaks
    share_achieved_goals(world, obs.labels)
    obs.labels = None

    # 3: mode machine, deterministic id order; bridge staffing counts are
    # updated as agents adopt edges so simultaneous switchers spread out
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
            int(loads[i]), world.achieved[i], cov, world.centroids,
            world.map_pos[i], mst_lookup, bridge_counts, thresholds, params.r)
        if new_mode != world.mode[i]:
            changes += 1
        world.mode[i], world.goal_a[i], world.goal_b[i] = new_mode, ga, gb

    # 4-5: forces from the shared pre-step snapshot, then integration
    accel = ctl.flock_accelerations(world.map_pos, world.map_vel, loads,
                                    world.alive, world.mode, world.goal_a,
                                    world.goal_b, world.centroids, obs.adjacency, params)
    euler_update(world.map_pos, world.map_vel, accel, world.alive, dt)
    # the step-boundary guard: q moved with the new v, so bounded positions
    # also mean finite velocities
    bound = min(DIVERGED_EXTENTS * (np.abs(world.msd_pos).max() + params.r), MAX_COORDINATE)
    escaped = np.flatnonzero(world.alive & ~np.all(np.abs(world.map_pos) <= bound, axis=1))
    if escaped.size:
        i = escaped[0]
        (x, y), (vx, vy) = world.map_pos[i], world.map_vel[i]
        raise SimulationDiverged(
            f"step {round(t_next / dt)}: agent {i} in mode {ctl.MODE_NAMES[world.mode[i]]} "
            f"at position ({x:.6g}, {y:.6g}) m with velocity ({vx:.6g}, {vy:.6g}) m/s "
            f"is beyond the bound of {bound:.6g} m")

    # 6: observation of the post-step state, and its metrics
    obs = observe(world, params)
    return metrics_sample(world, obs, t_next), changes, obs


def inject_failures(world: World, fraction: float, rng: np.random.Generator):
    """Kill floor(fraction * alive) uniformly chosen alive agents in place."""
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("failure fraction must lie in [0, 1]")
    alive_ids = np.flatnonzero(world.alive)
    n_kill = int(math.floor(fraction * alive_ids.size))
    if n_kill:
        world.alive[rng.choice(alive_ids, size=n_kill, replace=False)] = False


def detect_convergence(samples, mode_changes, dt):
    """Earliest time at which coverage stays within a narrow band over the
    trailing window and no agent changed mode; None if never reached."""
    window = int(round(CONVERGENCE_WINDOW_S / dt))
    coverage = np.array([s.coverage_ratio for s in samples])
    for end in range(window, len(samples)):
        band = coverage[end - window:end + 1]
        if band.max() - band.min() < CONVERGENCE_COVERAGE_BAND \
                and sum(mode_changes[end - window:end]) == 0:
            return samples[end].t
    return None


def run(config: ScenarioConfig, record_trajectories: bool = False) -> RunResult:
    """Execute a full scenario: generation, stepping, failure schedule."""
    rng = np.random.default_rng(config.seed)
    world = generate_scenario(config, rng)
    params, thresholds, dt = config.control, config.thresholds, config.dt
    n_steps = math.ceil(config.t_end / dt - 1e-9)
    pending = sorted(config.failures)
    trajectory = [] if record_trajectories else None

    def record(t):
        if trajectory is None:
            return
        for i in range(world.n_maps):
            trajectory.append((t, i, world.map_pos[i, 0], world.map_pos[i, 1],
                               world.map_vel[i, 0], world.map_vel[i, 1],
                               int(world.mode[i]), int(world.alive[i])))

    obs = observe(world, params)
    samples = [metrics_sample(world, obs, 0.0)]
    record(0.0)
    mode_changes = []
    for k in range(1, n_steps + 1):
        t_pre = (k - 1) * dt
        while pending and pending[0][0] <= t_pre + 1e-9:
            inject_failures(world, pending.pop(0)[1], rng)
            obs = None             # the observation no longer matches the world
        sample, changed, obs = step(world, params, thresholds, dt, k * dt, obs)
        samples.append(sample)
        mode_changes.append(changed)
        record(k * dt)

    return RunResult(
        config=config,
        samples=samples,
        world=world,
        mode_changes=mode_changes,
        convergence_time=detect_convergence(samples, mode_changes, dt),
        trajectory=trajectory,
    )
