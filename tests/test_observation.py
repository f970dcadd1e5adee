"""One observation per world state: `run` carries each step's post-step
observation into the next step, and a failure injection invalidates it."""

import sys

import numpy as np
import pytest

import mapflock.control as control
import mapflock.sim as sim
from mapflock.control import MODE_BRIDGE, MODE_DYNAMIC, ControlParams
from mapflock.sim import measure, observe, run
from mapflock.world import ScenarioConfig, generate_scenario
from oracles import directed_pairs, recompute_run

# three clusters 60 m apart with the fleet spawned between them, so that
# agents share goals, bridge and settle within a few seconds
TRIANGLE = dict(cluster_centers=((0.0, 0.0), (60.0, 0.0), (0.0, 60.0)),
                msds_per_cluster=60, cluster_sigma=6.0, map_count=24,
                map_spawn_center=(30.0, 30.0), map_spawn_halfwidth=20.0)


def count_calls(monkeypatch, name, module=sim):
    """Count the calls made to the function `module` knows as `name`, whether
    through `module` or through the module that defines it; each call is
    recorded as the shape of its first argument."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    for owner in (module, sys.modules[original.__module__]):
        monkeypatch.setattr(owner, name, counted)
    return calls


class TestObservationCount:
    @pytest.mark.parametrize("failures, events", [
        ((), 0),
        (((0.5, 0.5),), 1),
        (((0.5, 0.5), (1.23, 0.3)), 2),
        (((5.0, 0.5),), 0),            # after the end of the run: never fires
    ])
    def test_one_observation_per_state(self, monkeypatch, failures, events):
        cfg = ScenarioConfig(**TRIANGLE, t_end=2.0, seed=4, failures=failures)
        counters = {name: count_calls(monkeypatch, name)
                    for name in ("assign_msds", "adjacency_matrix")}
        graphs, labelled = [], []
        adjacency_matrix, connected_components = sim.adjacency_matrix, sim.connected_components

        def built(*args):
            graphs.append(adjacency_matrix(*args))
            return graphs[-1]

        def labels(n, rows, cols):
            labelled.append(rows)
            return connected_components(n, rows, cols)

        monkeypatch.setattr(sim, "adjacency_matrix", built)
        monkeypatch.setattr(sim, "connected_components", labels)
        res = run(cfg)
        steps = len(res.mode_changes)
        assert steps == 20
        for calls in counters.values():
            assert len(calls) == steps + 1 + events
        # the labels of an observation's graph are computed at most once
        assert len(graphs) == steps + 1 + events
        assert labelled and len({id(rows) for rows in labelled}) == len(labelled)
        assert {id(rows) for rows in labelled} <= {id(rows) for rows, _ in graphs}


class TestLabelsOnDemand:
    def test_wide_fleet_needs_no_labels(self, monkeypatch):
        # 1000 agents over an 800 m field around four corner clusters, as the
        # relay_wide benchmark scene: some agent is always in no pair, so every
        # Fiedler value is 0 from the pairs alone, and no goal is known to share
        cfg = ScenarioConfig(cluster_centers=((0.0, 0.0), (600.0, 0.0), (0.0, 600.0),
                                              (600.0, 600.0)),
                             msds_per_cluster=200, cluster_sigma=100.0, map_count=1000,
                             map_spawn_center=(300.0, 300.0), map_spawn_halfwidth=400.0,
                             t_end=0.2, seed=1)
        labellings = count_calls(monkeypatch, "connected_components")
        res = run(cfg)
        assert len(res.samples) == 3 and labellings == []
        assert [s.fiedler for s in res.samples] == [0.0] * 3
        assert not res.world.achieved.any()


class TestModeMachineGate:
    """`switch_modes` runs the mode machine only for the alive agents it can
    change: roaming (Dynamic) agents with goal coverage above r0. The recompute
    loop in ``tests/oracles.py`` visits every alive agent with the rule written
    out per agent, and :class:`TestRecomputeOracle` shows that both give the
    same run."""

    @staticmethod
    def record_calls(monkeypatch):
        """Record each `mode_switch` call's agent mode and goal coverage; the
        agent is the one whose row of ``World.achieved`` the call marks, and
        the coverage is the step's observed cluster coverage."""
        calls, steps = [], []
        switch_modes, mode_switch = control.switch_modes, control.mode_switch

        def stepped(world, loads, coverage, *args):
            steps.append((world, coverage))
            return switch_modes(world, loads, coverage, *args)

        def recorded(goal_a, n_served, achieved, *rest):
            world, coverage = steps[-1]
            (i,) = [i for i in range(len(world.map_pos))
                    if np.shares_memory(achieved, world.achieved[i])]
            calls.append((world.mode[i], coverage[goal_a]))
            return mode_switch(goal_a, n_served, achieved, *rest)

        monkeypatch.setattr(control, "switch_modes", stepped)
        monkeypatch.setattr(control, "mode_switch", recorded)
        return calls

    def test_called_only_past_the_gate(self, monkeypatch):
        cfg = ScenarioConfig(**TRIANGLE, t_end=4.0, seed=2)
        calls = self.record_calls(monkeypatch)
        res = run(cfg)
        assert calls
        assert all(mode != MODE_BRIDGE and cov > cfg.thresholds.r0 for mode, cov in calls)
        assert len(calls) < sum(s.alive_count for s in res.samples[:-1])

    def test_no_static_agent_reaches_the_machine(self, monkeypatch):
        # a static agent's goal is already marked in its achieved row, so the machine
        # could not change it
        cfg = ScenarioConfig(**TRIANGLE, t_end=4.0, seed=2)
        calls = self.record_calls(monkeypatch)
        res = run(cfg)
        static_steps = [s.mode_counts[2] for s in res.samples[:-1] if s.mode_counts[2]]
        assert len(static_steps) > 5 and calls
        assert all(mode == MODE_DYNAMIC for mode, _ in calls)

    def test_no_call_while_no_goal_is_covered(self, monkeypatch):
        far = dict(TRIANGLE, map_spawn_center=(500.0, 500.0))
        calls = self.record_calls(monkeypatch)
        res = run(ScenarioConfig(**far, t_end=2.0, seed=4))
        assert max(s.coverage_ratio for s in res.samples) == 0.0
        assert len(res.mode_changes) == 20 and calls == []

    def test_roaming_agents_hold_no_second_endpoint(self, monkeypatch):
        # mode_switch answers a kept roaming agent with goal_b = -1, which is
        # what that agent already holds
        checked = []

        def checked_step(world, *args, **kwargs):
            out = sim_step(world, *args, **kwargs)
            checked.append(np.all(world.goal_b[world.mode == MODE_DYNAMIC] == -1))
            return out

        sim_step = sim.step
        monkeypatch.setattr(sim, "step", checked_step)
        # the acceptance failure replay: half of 80 agents fail at 18 s
        res = run(ScenarioConfig(map_count=80, failures=((18.0, 0.5),), t_end=24.0))
        assert len(checked) == 240 and all(checked)
        assert res.final.alive_count == 40 and min(s.mode_counts[1] for s in res.samples[-60:]) > 0


class TestRecomputeOracle:
    """Samples and final world equal the loop that recomputes every quantity."""

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(**TRIANGLE, t_end=4.0, seed=2, failures=((0.5, 0.5),)),
        ScenarioConfig(**TRIANGLE, t_end=4.0, seed=7, failures=((1.0, 0.3), (2.55, 0.4))),
        ScenarioConfig(msds_per_cluster=40, map_count=20, t_end=3.0, seed=5),
    ])
    def test_identical_to_recompute_loop(self, cfg):
        got, want = run(cfg), recompute_run(cfg)
        assert len(got.samples) == len(want.samples)
        for a, b in zip(got.samples, want.samples):
            assert (a.t, a.coverage_ratio, a.fiedler, a.alive_count, a.mode_counts) == \
                   (b.t, b.coverage_ratio, b.fiedler, b.alive_count, b.mode_counts)
            np.testing.assert_array_equal(a.cluster_coverage, b.cluster_coverage)
        assert got.mode_changes == want.mode_changes
        assert got.convergence_time == want.convergence_time
        for name in ("map_pos", "map_vel", "alive", "mode", "goal_a", "goal_b"):
            np.testing.assert_array_equal(getattr(got.world, name), getattr(want.world, name))
        np.testing.assert_array_equal(got.world.achieved, want.world.achieved)

    def test_injection_changes_the_run(self):
        # the oracle comparison above would be vacuous if the injection
        # did not alter the trajectory
        base = run(ScenarioConfig(**TRIANGLE, t_end=2.0, seed=2))
        hurt = run(ScenarioConfig(**TRIANGLE, t_end=2.0, seed=2, failures=((0.5, 0.5),)))
        assert hurt.samples[6].alive_count == 12
        assert not np.array_equal(base.world.map_pos, hurt.world.map_pos)


class TestObserve:
    def test_measure_is_sample_of_fresh_observation(self):
        world = generate_scenario(ScenarioConfig(**TRIANGLE), np.random.default_rng(3))
        world.alive[::3] = False
        params = ControlParams()
        obs = observe(world, params)
        rows, cols = directed_pairs(*obs.adjacency)
        assert len(rows) == len(cols) and max(rows.max(), cols.max()) < 16
        assert len(obs.labels()) == np.count_nonzero(world.alive) == obs.n_alive
        s = measure(world, params, 2.5)
        assert s.coverage_ratio == obs.coverage_ratio
        np.testing.assert_array_equal(s.cluster_coverage, obs.cluster_coverage)
        assert s.alive_count == 16 and s.t == 2.5
