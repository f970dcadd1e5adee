import re
import tracemalloc
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from mapflock.control import (
    MODE_BRIDGE,
    MODE_DYNAMIC,
    MODE_STATIC,
    ControlParams,
    flock_accelerations,
)
import mapflock.sim as sim
from mapflock.sim import (
    DIVERGED_EXTENTS,
    MAX_TRAJECTORY_BYTES,
    TRAJECTORY_STATE_BYTES,
    MetricsSample,
    Trajectory,
    SimulationDiverged,
    detect_convergence,
    euler_update,
    inject_failures,
    measure,
    observe,
    run,
    step,
)
from mapflock.world import (
    ConfigError,
    ScenarioConfig,
    adjacency_matrix,
    agent_tree,
    generate_scenario,
)
from oracles import attract_repulse, directed_pairs, kernel_world

PARAMS = ControlParams()


def small_config(**kwargs):
    defaults = dict(msds_per_cluster=30, map_count=12, t_end=3.0, seed=5)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestEulerUpdate:
    def test_zero_accel_is_uniform_drift(self):
        pos = np.zeros((3, 2))
        vel = np.array([[1.0, 0.0], [0.0, -2.0], [3.0, 3.0]])
        euler_update(pos, vel, np.zeros((3, 2)), np.ones(3, bool), 0.1)
        np.testing.assert_allclose(pos, vel * 0.1)

    def test_velocity_updates_before_position(self):
        pos = np.zeros((1, 2))
        vel = np.zeros((1, 2))
        accel = np.array([[10.0, 0.0]])
        euler_update(pos, vel, accel, np.ones(1, bool), 0.1)
        np.testing.assert_allclose(vel, [[1.0, 0.0]])
        np.testing.assert_allclose(pos, [[0.1, 0.0]])   # uses the new velocity

    def test_dead_agents_frozen(self):
        pos = np.zeros((2, 2))
        vel = np.ones((2, 2))
        euler_update(pos, vel, np.ones((2, 2)), np.array([True, False]), 0.1)
        np.testing.assert_array_equal(pos[1], 0.0)
        np.testing.assert_array_equal(vel[1], 1.0)

    def test_dead_rows_bit_unchanged_and_accel_untouched(self):
        rng = np.random.default_rng(4)
        pos, vel, accel = rng.normal(size=(3, 6, 2))
        alive = np.array([True, False, True, False, True, True])
        vel[1] = [-0.0, np.nan]
        pos[3] = [np.inf, -0.0]
        pos0, vel0, accel0 = pos.copy(), vel.copy(), accel.copy()
        euler_update(pos, vel, accel, alive, 0.1)
        bits = partial(np.ndarray.view, dtype=np.uint64)
        np.testing.assert_array_equal(bits(pos[~alive]), bits(pos0[~alive]))
        np.testing.assert_array_equal(bits(vel[~alive]), bits(vel0[~alive]))
        np.testing.assert_array_equal(bits(accel), bits(accel0))
        # the alive rows, bit for bit as the update by masked gathers gives them
        want_vel = vel0[alive] + accel0[alive] * 0.1
        np.testing.assert_array_equal(vel[alive], want_vel)
        np.testing.assert_array_equal(pos[alive], pos0[alive] + want_vel * 0.1)

    def test_peak_is_at_most_one_state_array(self):
        n = 10_000
        rng = np.random.default_rng(5)
        pos, vel, accel = rng.normal(size=(3, n, 2))
        alive = rng.random(n) < 0.5
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            euler_update(pos, vel, accel, alive, 0.1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= np.empty((n, 2)).nbytes


class TestInjectFailures:
    def world(self, n=80):
        return generate_scenario(small_config(map_count=n), np.random.default_rng(0))

    def test_zero_fraction_noop(self):
        w = self.world()
        inject_failures(w, 0.0, np.random.default_rng(1))
        assert w.alive.all()

    def test_full_fraction_kills_all(self):
        w = self.world()
        inject_failures(w, 1.0, np.random.default_rng(1))
        assert not w.alive.any()

    def test_half_of_eighty_kills_forty(self):
        w = self.world(80)
        inject_failures(w, 0.5, np.random.default_rng(1))
        assert np.count_nonzero(w.alive) == 40

    def test_floor_rounding(self):
        w = self.world(7)
        inject_failures(w, 0.5, np.random.default_rng(1))
        assert np.count_nonzero(w.alive) == 4   # kills floor(3.5) = 3

    def test_deterministic_given_rng(self):
        w1, w2 = self.world(), self.world()
        inject_failures(w1, 0.3, np.random.default_rng(42))
        inject_failures(w2, 0.3, np.random.default_rng(42))
        np.testing.assert_array_equal(w1.alive, w2.alive)

    def test_only_alive_agents_counted(self):
        w = self.world(10)
        w.alive[:5] = False
        inject_failures(w, 0.4, np.random.default_rng(1))
        assert np.count_nonzero(w.alive) == 3   # floor(0.4 * 5) = 2 more die
        assert not w.alive[:5].any()

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            inject_failures(self.world(), 1.5, np.random.default_rng(0))


class TestConvergenceDetection:
    def samples(self, coverage, dt=0.1):
        return [MetricsSample(t=i * dt, coverage_ratio=c, fiedler=0.0,
                              cluster_coverage=np.zeros(4), alive_count=1,
                              mode_counts=(1, 0, 0))
                for i, c in enumerate(coverage)]

    def test_flat_series_converges_at_window_end(self):
        cov = [0.8] * 120
        t = detect_convergence(self.samples(cov), [0] * 119, 0.1)
        assert t == pytest.approx(5.0)   # one full trailing window

    def test_drifting_series_never_converges(self):
        cov = list(np.linspace(0.0, 1.0, 120))
        assert detect_convergence(self.samples(cov), [0] * 119, 0.1) is None

    def test_mode_changes_delay_convergence(self):
        cov = [0.8] * 120
        changes = [0] * 119
        changes[20] = 1          # one switch at t = 2.1s
        t = detect_convergence(self.samples(cov), changes, 0.1)
        # the trailing window must be free of switches: 2.1s + window + one step
        assert t == pytest.approx(7.1, abs=1e-9)

    def test_short_series_returns_none(self):
        cov = [0.8] * 10
        assert detect_convergence(self.samples(cov), [0] * 9, 0.1) is None


class TestRun:
    def test_sample_count_and_timing(self):
        res = run(small_config(t_end=3.0, dt=0.1))
        assert len(res.samples) == 31
        assert len(res.mode_changes) == 30
        np.testing.assert_allclose([s.t for s in res.samples], np.arange(31) * 0.1)
        assert res.final is res.samples[-1]
        assert res.final.t == pytest.approx(3.0)

    def test_bit_identical_reruns(self):
        cfg = small_config(seed=11)
        r1, r2 = run(cfg), run(cfg)
        np.testing.assert_array_equal(r1.world.map_pos, r2.world.map_pos)
        np.testing.assert_array_equal(r1.world.mode, r2.world.mode)
        assert [s.coverage_ratio for s in r1.samples] == \
               [s.coverage_ratio for s in r2.samples]
        assert [s.fiedler for s in r1.samples] == [s.fiedler for s in r2.samples]

    def test_seed_changes_outcome(self):
        r1 = run(small_config(seed=1))
        r2 = run(small_config(seed=2))
        assert not np.array_equal(r1.world.map_pos, r2.world.map_pos)

    def test_trajectory_step_consistent_with_velocity(self):
        res = run(small_config(t_end=2.0), record_trajectories=True)
        pos, vel = res.trajectory.pos, res.trajectory.vel
        for k in range(1, len(pos)):
            dq = pos[k] - pos[k - 1]
            np.testing.assert_allclose(dq, vel[k] * 0.1, atol=1e-9)

    def test_trajectory_layout(self):
        res = run(small_config(map_count=20, t_end=2.0, failures=((1.0, 0.5),)),
                  record_trajectories=True)
        traj, n_samples, n_agents = res.trajectory, len(res.samples), 20
        assert traj.pos.shape == traj.vel.shape == (n_samples, n_agents, 2)
        assert traj.mode.shape == traj.alive.shape == (n_samples, n_agents)
        # 2 x 16 B of position and velocity, 1 B of mode, 1 B of the alive
        # flag per agent and sample, and 8 B of time per sample
        nbytes = sum(getattr(traj, f.name).nbytes for f in fields(traj))
        assert nbytes <= 34 * n_samples * n_agents + 8 * n_samples
        assert traj.t.tolist() == [s.t for s in res.samples]
        assert traj.alive.sum(axis=1).tolist() == [s.alive_count for s in res.samples]
        np.testing.assert_array_equal(traj.pos[-1], res.world.map_pos)
        np.testing.assert_array_equal(traj.mode[-1], res.world.mode)

    def test_trajectory_disabled_by_default(self):
        assert run(small_config(t_end=1.0)).trajectory is None

    def test_failure_schedule_applied(self):
        cfg = small_config(map_count=20, t_end=2.0, failures=((1.0, 0.5),))
        res = run(cfg)
        alive = [s.alive_count for s in res.samples]
        assert alive[0] == 20
        assert alive[-1] == 10
        # drop happens at the step following the scheduled time
        assert alive[10] == 20 and alive[11] == 10

    def test_dead_agents_do_not_move(self):
        cfg = small_config(map_count=20, t_end=2.0, failures=((1.0, 0.5),))
        res = run(cfg, record_trajectories=True)
        n = 20
        dead = [i for i in range(n) if not res.world.alive[i]]
        assert dead
        for i in dead:
            tail = res.trajectory.pos[12:, i]
            assert (tail == tail[0]).all()

    def test_failure_reduces_final_coverage(self):
        base = run(small_config(map_count=24, t_end=5.0))
        hurt = run(small_config(map_count=24, t_end=5.0, failures=((2.0, 0.8),)))
        assert hurt.final.coverage_ratio <= base.final.coverage_ratio

    def test_mode_counts_partition_alive(self):
        res = run(small_config(t_end=3.0))
        for s in res.samples:
            assert sum(s.mode_counts) == s.alive_count

    def test_modes_absorbing_over_run(self):
        res = run(small_config(map_count=30, t_end=10.0), record_trajectories=True)
        for modes in res.trajectory.mode.T.tolist():
            # legal histories: M0* then forever M1, or M0* then forever M2
            left = [m for m in modes if m != MODE_DYNAMIC]
            assert all(m == left[0] for m in left) if left else True
            if left:
                first = modes.index(left[0])
                assert all(m == MODE_DYNAMIC for m in modes[:first])


class TestTrajectorySize:
    """A run that records trajectories is refused before it makes the world
    when (n_steps + 1) x map_count agent states exceed MAX_TRAJECTORY_BYTES."""

    def test_state_bytes_match_the_trajectory(self):
        traj = Trajectory.allocate(3, 5)
        per_state = sum(getattr(traj, name).nbytes for name in ("pos", "vel", "mode", "alive"))
        assert per_state == 3 * 5 * TRAJECTORY_STATE_BYTES

    def test_too_large_is_refused_before_the_world_is_made(self, monkeypatch):
        def unused(*args):
            raise AssertionError("the world was made")

        monkeypatch.setattr(sim, "generate_scenario", unused)
        with pytest.raises(ConfigError) as info:
            run(small_config(t_end=1000000.0, dt=0.001), record_trajectories=True)
        size = (10**9 + 1) * 12 * TRAJECTORY_STATE_BYTES
        assert str(info.value) == (f"the trajectory of {10**9 + 1} samples of 12 agents needs "
                                   f"{size} B, above the limit of {MAX_TRAJECTORY_BYTES} B")

    def test_limit_is_inclusive_and_only_for_recorded_runs(self, monkeypatch):
        cfg = small_config(t_end=0.3)                   # 4 samples of 12 agents
        size = 4 * 12 * TRAJECTORY_STATE_BYTES
        monkeypatch.setattr(sim, "MAX_TRAJECTORY_BYTES", size)
        assert run(cfg, record_trajectories=True).trajectory.t.size == 4
        monkeypatch.setattr(sim, "MAX_TRAJECTORY_BYTES", size - 1)
        with pytest.raises(ConfigError, match=f"needs {size} B, above the limit of {size - 1} B"):
            run(cfg, record_trajectories=True)
        assert len(run(cfg).samples) == 4


class TestFlockSpacing:
    def test_two_agents_settle_at_desired_spacing(self):
        # pure spacing force plus damping, no goals; start inside the
        # interaction range so the pair relaxes onto the equilibrium gap
        pos = np.array([[0.0, 0.0], [22.0, 0.0]])
        vel = np.zeros((2, 2))
        loads = np.zeros(2, int)
        dt = 0.05
        for _ in range(int(30 / dt)):
            f0 = attract_repulse(0, pos, loads, [1], PARAMS)
            f1 = attract_repulse(1, pos, loads, [0], PARAMS)
            vel += dt * (np.stack([f0, f1]) - 0.6 * vel)
            pos += dt * vel
        gap = np.linalg.norm(pos[1] - pos[0])
        assert gap == pytest.approx(PARAMS.d, rel=0.05)

    def test_fleet_keeps_separation_margin(self):
        res = run(small_config(map_count=20, t_end=30.0))
        pos = res.world.map_pos[res.world.alive]
        diff = pos[:, None] - pos[None, :]
        dist = np.sqrt((diff ** 2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 0.5 * PARAMS.d


class TestMeasure:
    def test_empty_fleet_fiedler_zero(self):
        world = generate_scenario(small_config(), np.random.default_rng(0))
        world.alive[:] = False
        s = measure(world, PARAMS, 1.0)
        assert s.fiedler == 0.0
        assert s.coverage_ratio == 0.0
        assert s.alive_count == 0

    def test_cluster_coverage_shape(self):
        world = generate_scenario(small_config(), np.random.default_rng(0))
        s = measure(world, PARAMS, 0.0)
        assert s.cluster_coverage.shape == (4,)
        assert 0.0 <= s.coverage_ratio <= 1.0


class TestStepMemory:
    """The step's working memory on a 1000-agent fleet over an 800 m field,
    the benchmark's relay_wide scene (1346 pairs at t = 0). The force kernel
    holds each pair once, as intp ids i < j, and per pair at most the two
    directed coefficients and one coordinate's difference and terms; it
    frees the coefficients before the velocity consensus and the pair ids
    before the goal terms. The step releases the observation it took over
    once the forces are computed and the accelerations once they are
    integrated. The post-step observation builds the graph, whose build
    peaks highest, before the matching, so only the agents' tree is live
    beside it. Bounds are tracemalloc peaks above the call's entry."""

    def world_and_observation(self):
        cfg = ScenarioConfig(cluster_centers=((0.0, 0.0), (600.0, 0.0), (0.0, 600.0),
                                              (600.0, 600.0)),
                             msds_per_cluster=200, cluster_sigma=100.0, map_count=1000,
                             map_spawn_center=(300.0, 300.0), map_spawn_halfwidth=400.0,
                             seed=1)
        world = generate_scenario(cfg, np.random.default_rng(cfg.seed))
        return cfg, world, observe(world, cfg.control)

    @staticmethod
    def peak_above_entry(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_above_entry_is_bounded(self):
        cfg, world, obs = self.world_and_observation()
        peak = self.peak_above_entry(
            lambda: step(world, cfg.control, cfg.thresholds, cfg.dt, cfg.dt, obs))
        assert peak < 0.105 * 2**20

    def test_force_kernel_peak_is_bounded(self):
        cfg, w, obs = self.world_and_observation()     # 1346 pairs at t = 0
        peak = self.peak_above_entry(
            lambda: flock_accelerations(w, obs.adjacency, obs.loads, cfg.control))
        assert peak < 0.1 * 2**20

    def test_step_releases_the_observation_it_took_over(self):
        cfg, world, obs = self.world_and_observation()
        step(world, cfg.control, cfg.thresholds, cfg.dt, cfg.dt, obs)
        # only the two scalars are left: the loads, the coverages, the pairs
        # and the labels are released
        assert [f.name for f in fields(obs) if getattr(obs, f.name) is not None] \
            == ["coverage_ratio", "n_alive"]


class TestStepMemoryAtScale:
    """The step's working memory is linear in the fleet: 100 000 agents over a
    16 km field around four clusters of 2000 users (35 450 pairs after the
    first step). The second step peaks 5.34 MiB above its entry (5.46 MiB
    while the graph was held as CSR arrays); one more (L, 2) float copy adds
    1.5 MiB, and an (L, K) float temporary 3.1 MiB.
    An (L, L) or (M, L) array would be 80 GB or 6.4 GB."""

    BOUND = 1.25 * 5.46 * 2**20

    def test_second_step_peak_above_entry_is_bounded(self):
        corners = ((-2000.0, -2000.0), (2000.0, -2000.0), (-2000.0, 2000.0), (2000.0, 2000.0))
        cfg = ScenarioConfig(cluster_centers=corners, msds_per_cluster=2000, cluster_sigma=100.0,
                             map_count=100_000, map_spawn_center=(0.0, 0.0),
                             map_spawn_halfwidth=8000.0, seed=1)
        world = generate_scenario(cfg, np.random.default_rng(cfg.seed))
        _, _, obs = step(world, cfg.control, cfg.thresholds, cfg.dt, cfg.dt)
        peak = TestStepMemory.peak_above_entry(
            lambda: step(world, cfg.control, cfg.thresholds, cfg.dt, 2 * cfg.dt, obs))
        assert peak < self.BOUND


class TestLoneAgentStability:
    """A lone agent under its point-goal term, v += u*dt; q += v*dt.

    In (q - goal, v) the update is linear with trace 2 - c1*dt^2 - c2*dt and
    determinant 1 - c2*dt; Jury's test gives stability exactly when
    c1*dt^2 + 2*c2*dt < 4.
    """

    LIMIT = 4.0 / (PARAMS.c2 + np.sqrt(PARAMS.c2 ** 2 + 4.0 * PARAMS.c1))   # 2.1633

    def goal_distance(self, dt, steps):
        pos, vel = np.array([[10.0, -5.0]]), np.zeros((1, 2))
        alive, one = np.ones(1, bool), np.zeros(1, int)
        world = kernel_world(pos, vel, alive, one + MODE_DYNAMIC, one, one - 1, np.zeros((1, 2)))
        for _ in range(steps):
            accel = flock_accelerations(world, (np.zeros(0, np.int32), np.zeros(0, np.int32)),
                                        one, PARAMS)
            euler_update(pos, vel, accel, alive, dt)
        return float(np.hypot(*pos[0]))

    def spectral_radius(self, dt):
        c1, c2 = PARAMS.c1, PARAMS.c2
        update = [[1 - c1 * dt * dt, dt * (1 - c2 * dt)], [-c1 * dt, 1 - c2 * dt]]
        return max(abs(np.linalg.eigvals(update)))

    def test_decays_just_below_the_bound(self):
        dt = 0.99 * self.LIMIT
        assert self.spectral_radius(dt) < 1
        assert self.goal_distance(dt, 200) < 1e-2 * np.hypot(10.0, -5.0)
        assert ScenarioConfig(dt=dt).dt == dt

    def test_grows_just_above_the_bound(self):
        dt = 1.01 * self.LIMIT
        assert self.spectral_radius(dt) > 1
        assert self.goal_distance(dt, 200) > 1e2 * np.hypot(10.0, -5.0)
        with pytest.raises(ConfigError, match="unstable"):
            ScenarioConfig(dt=dt)


class TestDivergenceGuard:
    MESSAGE = re.compile(r"step 4: agent (\d+) in mode M0 at position \((\S+), (\S+)\) m "
                         r"with velocity \((\S+), (\S+)\) m/s is beyond the bound of (\S+) m")

    def setup_method(self):
        self.config = small_config()
        self.world = generate_scenario(self.config, np.random.default_rng(self.config.seed))
        # scene extent: the largest user coordinate plus the communication range
        self.bound = DIVERGED_EXTENTS * (np.abs(self.world.msd_pos).max() + PARAMS.r)

    def step_four(self):
        cfg = self.config
        with pytest.raises(SimulationDiverged) as info:
            step(self.world, cfg.control, cfg.thresholds, cfg.dt, 4 * cfg.dt)
        return str(info.value)

    def test_agent_beyond_the_bound(self):
        self.world.map_pos[3] = (2 * self.bound, -7.0)
        self.world.map_vel[3] = (1.5, 0.0)
        match = self.MESSAGE.fullmatch(self.step_four())
        assert match and match.group(1) == "3"
        x, y, vx, vy, bound = map(float, match.groups()[1:])
        assert bound == pytest.approx(self.bound, rel=1e-5)
        assert x > bound
        assert (x, y, vx, vy) == pytest.approx((*self.world.map_pos[3], *self.world.map_vel[3]),
                                               rel=1e-5)

    def test_non_finite_velocity(self):
        # the NaN reaches agent 0's in-range neighbours, whose lowest id is 0
        self.world.map_vel[0] = (np.nan, 0.0)
        match = self.MESSAGE.fullmatch(self.step_four())
        assert match and match.group(1) == "0" and match.group(2) == "nan"

    def test_non_finite_velocity_reaches_only_in_range_neighbours(self):
        self.config = small_config(seed=1)
        self.world = generate_scenario(self.config, np.random.default_rng(1))
        world = self.world
        rows, cols = directed_pairs(*adjacency_matrix(agent_tree(world.map_pos, world.alive), PARAMS.r))
        ids = np.flatnonzero(self.world.alive)
        reached = np.union1d([3], ids[cols[ids[rows] == 3]])
        np.testing.assert_array_equal(reached, [1, 3, 9, 10])
        self.world.map_vel[3] = (np.nan, 0.0)
        match = self.MESSAGE.fullmatch(self.step_four())
        np.testing.assert_array_equal(
            np.flatnonzero(~np.isfinite(self.world.map_pos).all(axis=1)), reached)
        # the guard names the lowest id among them, not the agent that went bad
        assert match and match.group(1) == "1" and match.group(2) == "nan"

    def test_dead_agent_beyond_the_bound_is_ignored(self):
        self.world.map_pos[3] = (2 * self.bound, -7.0)
        self.world.alive[3] = False
        cfg = self.config
        sample, _, _ = step(self.world, cfg.control, cfg.thresholds, cfg.dt, cfg.dt)
        assert sample.alive_count == cfg.map_count - 1
