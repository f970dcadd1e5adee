"""Discrete-time simulation loop: observe, share, switch, steer, integrate.

One step executes, in order:

1. the observation of the pre-step state: user-to-agent matching,
   per-cluster coverage, and the aerial graph as its sorted pairs, from k-d
   tree candidate pairs under the exact range and lowest-id tie rules of a
   test over all pairs; the graph's connected components are computed only
   if a phase needs them, and at most once,
2. idealized information sharing: each alive agent's achieved goals become
   the OR over its connected component (message passing emulated centrally),
3. the mode machine, :func:`control.switch_modes`, in id order, for the
   roaming agents whose goal is covered above r0,
4. control forces for every alive agent from the common pre-step snapshot;
   the kernel frees the pairs once read, the step the rest it consumed,
5. semi-implicit (symplectic) Euler integration ``v += u*dt; q += v*dt``,
   then the step-boundary guard,
6. the observation of the post-step state, and its metrics.

Phases 1 and 6 are :func:`run`'s loop, which observes each world state, the
one at t = 0 included, once: the post-step observation gives the sample and
the next step's phase 1, and a failure injection invalidates it, so the loop
then observes the state afresh. Phases 2 to 5 are :func:`step`. Dead agents
are frozen and invisible to every phase. Runs are deterministic given the
seed: randomness is consumed only by scenario generation and failure
injection, in that order.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import control as ctl
from .association import assign_msds, cluster_coverages
from .netgraph import connected_components, fiedler_value
from .world import ScenarioConfig, World, adjacency_matrix, agent_tree, generate_scenario

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

    @property
    def final(self) -> MetricsSample:
        return self.samples[-1]


@dataclass
class Observation:
    """What one world state shows, computed once per state: it serves the
    metrics of the step that reached the state and the next step's phases.

    Of the matching it keeps the loads and the coverage, not the per-user
    owners. :meth:`labels` computes the component labels on its first call
    and keeps them; no caller runs it after phase 4, which frees the pairs."""

    loads: np.ndarray              # (L,) users served per agent
    coverage_ratio: float          # assigned users / all users
    cluster_coverage: np.ndarray   # (K,) per-cluster coverage
    adjacency: tuple               # int32 pairs (rows, cols), rows < cols, of the alive agents' graph
    n_alive: int                   # the graph's nodes: the alive agents, in id order
    components: np.ndarray | None = None   # the labels, once computed

    def labels(self):
        """Component label per alive agent, in id order."""
        if self.components is None:
            self.components = connected_components(self.n_alive, *self.adjacency)
        return self.components


def observe(world: World, params: ctl.ControlParams) -> Observation:
    """Match users to agents and build the aerial graph."""
    agents = agent_tree(world.map_pos, world.alive)
    # the graph first: its build peaks above the matcher's, with nothing else live
    adj = adjacency_matrix(agents, params.r)
    asg = assign_msds(world.user_table, agents, world.alive, world.map_height, params.r)
    return Observation(
        loads=asg.loads,
        coverage_ratio=asg.coverage_ratio,
        cluster_coverage=cluster_coverages(asg, world.msd_cluster, world.cluster_users),
        adjacency=adj,
        n_alive=agents.n,
    )


def metrics_sample(world: World, obs: Observation, t: float) -> MetricsSample:
    """Metrics of the world state that `obs` observed."""
    # the mode ids are 0, 1, 2: one count of each among the alive agents
    counts = np.bincount(world.mode[world.alive], minlength=3)
    return MetricsSample(
        t=t,
        coverage_ratio=obs.coverage_ratio,
        fiedler=fiedler_value(obs.n_alive, obs.adjacency, obs.labels),
        cluster_coverage=obs.cluster_coverage,
        alive_count=int(counts.sum()),
        mode_counts=tuple(counts.tolist()),
    )


def measure(world: World, params: ctl.ControlParams, t: float) -> MetricsSample:
    """Omniscient metrics of a world snapshot (fresh observation)."""
    return metrics_sample(world, observe(world, params), t)


def share_achieved_goals(world: World, labels):
    """OR achieved-goal knowledge within each connected alive component.

    `labels` is a function that returns the component label of each alive
    agent, in id order. Every alive agent's row of ``world.achieved``
    becomes the OR of its component's rows; dead agents' rows are left as
    they are. When no alive agent knows a goal, or every alive agent's row
    is the same, the OR over any partition changes nothing, and `labels` is
    not called.
    """
    ids = world.alive.nonzero()[0]
    known = world.achieved.take(ids, axis=0)
    if not known.any() or (known == known[0]).all():
        return
    component = labels()
    union = np.zeros((component.max() + 1, known.shape[1]), dtype=bool)
    np.logical_or.at(union, component, known)
    world.achieved[ids] = union.take(component, axis=0)


def euler_update(pos, vel, accel, alive, dt):
    """Semi-implicit Euler in place: v += u*dt, then q += v*dt with the new v, on
    the alive rows only, per coordinate through one (n,) buffer; `accel` is read only."""
    buf = np.empty(len(alive))
    for a, v, q in zip(accel.T, vel.T, pos.T):
        np.add(v, np.multiply(a, dt, out=buf, where=alive), out=v, where=alive)
        np.add(q, np.multiply(v, dt, out=buf, where=alive), out=q, where=alive)


def step(world: World, params: ctl.ControlParams, thresholds: ctl.ModeThresholds,
         dt: float, k: int, obs: Observation) -> int:
    """Advance the world by step `k`, phases 2 to 5, from its observation `obs`.

    The step takes `obs` over: the force kernel frees its pairs, the step its
    loads, coverages and labels after phase 4. Returns how many agents changed mode.
    """
    # 2: idealized information sharing per connected component
    share_achieved_goals(world, obs.labels)

    # 3: mode machine, in id order, for the agents it can change
    changes = ctl.switch_modes(world, obs.loads, obs.cluster_coverage, thresholds, params.r)

    # 4-5: forces from the shared pre-step snapshot, then integration; what
    # they consumed is released before the post-step state is observed
    accel = ctl.flock_accelerations(world, obs, params)
    obs.loads = obs.cluster_coverage = obs.components = None
    euler_update(world.map_pos, world.map_vel, accel, world.alive, dt)
    # the step-boundary guard: q moved with the new v, so bounded positions
    # also mean finite velocities
    bound = min(DIVERGED_EXTENTS * (world.user_extent + params.r), MAX_COORDINATE)
    qx, qy = world.map_pos.T
    escaped = (world.alive & ~((np.abs(qx) <= bound) & (np.abs(qy) <= bound))).nonzero()[0]
    if escaped.size:
        i = escaped[0]
        (x, y), (vx, vy) = world.map_pos[i], world.map_vel[i]
        raise SimulationDiverged(
            f"step {k}: agent {i} in mode {ctl.MODE_NAMES[world.mode[i]]} "
            f"at position ({x:.6g}, {y:.6g}) m with velocity ({vx:.6g}, {vy:.6g}) m/s "
            f"is beyond the bound of {bound:.6g} m")
    return changes


def inject_failures(world: World, fraction: float, rng: np.random.Generator):
    """Kill floor(fraction * alive) uniformly chosen alive agents in place."""
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("failure fraction must lie in [0, 1]")
    alive_ids = world.alive.nonzero()[0]
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


def run(config: ScenarioConfig, on_sample=None) -> RunResult:
    """Execute a full scenario: generation, stepping, failure schedule.

    After each sample, the one at t = 0 included, ``on_sample(k, t, world)``
    is called, if given, with the world that the run goes on to change. A
    MemoryError during generation or stepping is raised again with a message
    that names the fleet, the users, the steps and the settings to lower.
    """
    params, thresholds, dt = config.control, config.thresholds, config.dt
    n_steps = math.ceil(config.t_end / dt - 1e-9)
    on_sample = on_sample or (lambda k, t, world: None)
    try:
        rng = np.random.default_rng(config.seed)
        world = generate_scenario(config, rng)
        pending = sorted(config.failures)
        samples, mode_changes = [], []
        for k in range(n_steps + 1):
            obs = observe(world, params)
            samples.append(metrics_sample(world, obs, k * dt))
            on_sample(k, k * dt, world)
            if k == n_steps:
                break
            while pending and pending[0][0] <= k * dt + 1e-9:
                inject_failures(world, pending.pop(0)[1], rng)
                obs = None             # the observation no longer matches the world
            mode_changes.append(step(world, params, thresholds, dt, k + 1,
                                     obs or observe(world, params)))
    except MemoryError as exc:
        users = len(config.cluster_centers) * config.msds_per_cluster
        raise MemoryError(f"out of memory running {config.map_count} agents, {users} users and "
                          f"{n_steps} steps; lower map_count, msds_per_cluster or t_end") from exc

    return RunResult(
        config=config,
        samples=samples,
        world=world,
        mode_changes=mode_changes,
        convergence_time=detect_convergence(samples, mode_changes, dt),
    )
