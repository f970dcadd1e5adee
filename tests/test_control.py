import math
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import mapflock.control as control
from mapflock.control import (
    MODE_BRIDGE,
    MODE_DYNAMIC,
    MODE_STATIC,
    ControlParams,
    ModeThresholds,
    flock_accelerations,
    load_tables,
    mode_switch,
    relay_tree,
    select_bridge_edge,
    switch_modes,
)
from mapflock.netgraph import cluster_mst
from mapflock.world import ScenarioConfig, adjacency_matrix, agent_tree, generate_scenario
from oracles import (
    attract_repulse,
    closed_form_consensus_weight,
    closed_form_load_pull,
    control_input,
    dense_flock_accelerations,
    directed_pairs,
    goal_ids,
    goal_rows,
    goal_term_bridge,
    goal_term_point,
    kernel_observation,
    kernel_world,
    velocity_consensus,
)

PARAMS = ControlParams()
THRESH = ModeThresholds()


class TestSpacingForce:
    def test_zero_at_desired_spacing(self):
        pos = np.array([[0.0, 0.0], [PARAMS.d, 0.0]])
        loads = np.zeros(2, dtype=int)
        f = attract_repulse(0, pos, loads, [1], PARAMS)
        np.testing.assert_allclose(f, 0.0, atol=1e-12)

    def test_repulsive_when_too_close(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        f = attract_repulse(0, pos, np.zeros(2, int), [1], PARAMS)
        assert f[0] < 0.0          # pushed away from the neighbor
        assert f[1] == pytest.approx(0.0)

    def test_attractive_when_too_far(self):
        pos = np.array([[0.0, 0.0], [23.0, 0.0]])
        f = attract_repulse(0, pos, np.zeros(2, int), [1], PARAMS)
        assert f[0] > 0.0

    def test_newton_pair_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pos = rng.uniform(-15, 15, (2, 2))
            loads = np.zeros(2, int)
            fi = attract_repulse(0, pos, loads, [1], PARAMS)
            fj = attract_repulse(1, pos, loads, [0], PARAMS)
            np.testing.assert_allclose(fi, -fj, atol=1e-12)

    def test_overloaded_neighbor_pulls(self):
        # at the equilibrium spacing, only the load-balancing pull remains
        pos = np.array([[0.0, 0.0], [PARAMS.d, 0.0]])
        loads = np.array([0, PARAMS.n_max + 40])
        f = attract_repulse(0, pos, loads, [1], PARAMS)
        assert f[0] > 0.0          # attracted toward the overloaded neighbor

    def test_load_pull_coeff_bounds(self):
        pull = load_tables(PARAMS, 2 * PARAMS.n_max + 1)[0]
        assert pull[0] == 0.0
        assert pull[PARAMS.n_max] == 0.0
        partial = pull[PARAMS.n_max + 30]
        assert 0.0 < partial < PARAMS.a
        # monotone in the neighbor's excess load
        assert partial < pull[PARAMS.n_max + 60]


class TestConsensus:
    def test_weight_extremes(self):
        # idle agent fully matches neighbors; one at capacity ignores them
        weight = load_tables(PARAMS, PARAMS.n_max + 1)[1]
        assert weight[0] == 1.0
        assert weight[PARAMS.n_max] == 0.0

    def test_weight_monotone_in_load(self):
        w = load_tables(PARAMS, PARAMS.n_max + 1)[1][::10].tolist()
        assert all(x >= y - 1e-12 for x, y in zip(w, w[1:]))

    def test_matches_neighbor_velocity_sum(self):
        vel = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0]])
        loads = np.array([0, 0, 0])
        g = velocity_consensus(0, vel, loads, [1, 2], PARAMS)
        expect = (vel[1] - vel[0]) + (vel[2] - vel[0])   # weight is exactly 1
        np.testing.assert_allclose(g, expect)

    def test_loaded_agent_ignores_neighbors(self):
        vel = np.array([[1.0, 0.0], [5.0, 5.0]])
        loads = np.array([PARAMS.n_max, 0])
        g = velocity_consensus(0, vel, loads, [1], PARAMS)
        np.testing.assert_allclose(g, 0.0)


def table_lookup(loads, params):
    """The load coefficients as flock_accelerations reads them."""
    last = min(1 << int(loads.max()).bit_length(), 2 * params.n_max + 1) - 1
    pull, weight = load_tables(params, last + 1)
    return pull[np.minimum(loads, last)], weight[np.minimum(loads, last)]


class TestLoadTables:
    @pytest.mark.parametrize("n_max", [1, 80, 10**9])
    def test_lookup_equals_coefficients(self, n_max):
        params = replace(PARAMS, n_max=n_max)
        # every load up to 3 * n_max + 1 (up to 5000 at n_max = 10**9), then far beyond
        loads = np.arange(min(3 * n_max + 2, 5000))
        beyond = [10**6, 10**12, 2**62] if n_max < 10**6 else []
        for top in (0, 1, 2, 3, 5, n_max, 2 * n_max, len(loads) - 1):
            some = np.r_[loads[loads <= top], beyond].astype(int)
            pull, weight = table_lookup(some, params)
            np.testing.assert_array_equal(pull, closed_form_load_pull(some, params))
            np.testing.assert_array_equal(weight, closed_form_consensus_weight(some, params))

    def test_constant_past_twice_capacity(self):
        for n_max in (1, 80):
            params = replace(PARAMS, n_max=n_max)
            far = np.array([2 * n_max, 2 * n_max + 1, 10**9, 2**62])
            np.testing.assert_array_equal(closed_form_load_pull(far, params), params.a)
            np.testing.assert_array_equal(closed_form_consensus_weight(far, params), 0.0)

    def test_huge_capacity_sizes_tables_by_loads(self):
        params = replace(PARAMS, n_max=10**9)
        rng = np.random.default_rng(7)
        pos, vel, _, alive, modes, ga, gb, cent = TestVectorizedAgreement().random_state(rng, 80)
        loads = rng.multinomial(2000, np.full(80, 1 / 80))
        loads[3] = 2000
        adj = adjacency_matrix(agent_tree(pos, alive), params.r)
        world = kernel_world(pos, vel, alive, modes, ga, gb, cent)
        load_tables.cache_clear()
        tracemalloc.start()
        try:
            flock_accelerations(world, kernel_observation(adj, loads), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_replace_gets_its_own_tables(self):
        small = replace(PARAMS, n_max=5)
        loads = np.arange(40)
        for params in (PARAMS, small, PARAMS, small):
            pull, weight = table_lookup(loads, params)
            np.testing.assert_array_equal(pull, closed_form_load_pull(loads, params))
            np.testing.assert_array_equal(weight, closed_form_consensus_weight(loads, params))
        assert not np.array_equal(load_tables(small, 64)[0], load_tables(PARAMS, 64)[0])

    def test_forces_at_extreme_loads_match_oracle(self):
        rng = np.random.default_rng(13)
        pos, vel, _, alive, modes, ga, gb, cent = TestVectorizedAgreement().random_state(rng, 30)
        adj = adjacency_matrix(agent_tree(pos, alive), PARAMS.r)
        dense = np.zeros((30, 30), dtype=bool)
        ids = np.flatnonzero(alive)
        rows, cols = directed_pairs(*adj)
        dense[ids[rows], ids[cols]] = True
        for loads in (np.zeros(30, int), rng.integers(0, 3 * PARAMS.n_max, 30),
                      rng.choice([0, PARAMS.n_max, 10**12], 30)):
            got = flock_accelerations(kernel_world(pos, vel, alive, modes, ga, gb, cent),
                                      kernel_observation(adj, loads), PARAMS)
            want = dense_flock_accelerations(pos, vel, loads, alive, modes, ga, gb, cent, dense,
                                             PARAMS)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestDerivedConstants:
    def test_formulas(self):
        p = ControlParams(d=15.0, r=21.0, epsilon=0.2, a=3.0, b=7.0)
        assert p.c == (7.0 - 3.0) / math.sqrt(4.0 * 3.0 * 7.0)
        assert p.d_sigma == (math.sqrt(1.0 + 0.2 * 15.0 * 15.0) - 1.0) / 0.2
        assert p.r_sigma == (math.sqrt(1.0 + 0.2 * 21.0 * 21.0) - 1.0) / 0.2
        assert PARAMS.c == 0.0     # a = b: the sigmoid is odd

    def test_equal_and_hashable_after_use(self):
        used, fresh = ControlParams(), ControlParams()
        assert (used.c, used.d_sigma, used.r_sigma) == (fresh.c, fresh.d_sigma, fresh.r_sigma)
        assert used == ControlParams() and hash(used) == hash(ControlParams())
        assert {used: 1}[ControlParams()] == 1
        with pytest.raises(FrozenInstanceError):
            used.d = 10.0
        moved = replace(used, d=10.0)
        assert moved.d_sigma == (math.sqrt(1.0 + used.epsilon * 10.0 * 10.0) - 1.0) / used.epsilon
        assert moved.r_sigma == used.r_sigma


class TestGoalTerms:
    def test_point_pull(self):
        h = goal_term_point(np.zeros(2), np.zeros(2), np.array([10.0, 0.0]), PARAMS)
        np.testing.assert_allclose(h, [3.0, 0.0])   # c1 = 0.3

    def test_point_damping(self):
        h = goal_term_point(np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), PARAMS)
        np.testing.assert_allclose(h, [-0.6, 0.0])  # c2 = 0.6

    def test_bridge_pulls_cancel_at_midpoint(self):
        a, b = np.array([0.0, 0.0]), np.array([100.0, 0.0])
        h = goal_term_bridge(0.5 * (a + b), np.zeros(2), a, b, PARAMS)
        np.testing.assert_allclose(h, 0.0, atol=1e-12)

    def test_bridge_pull_points_toward_segment(self):
        a, b = np.array([0.0, 0.0]), np.array([100.0, 0.0])
        h = goal_term_bridge(np.array([50.0, 30.0]), np.zeros(2), a, b, PARAMS)
        assert h[1] < 0.0                       # downward, toward the segment
        assert h[0] == pytest.approx(0.0, abs=1e-12)

    def test_bridge_pull_bounded(self):
        # each sigma-smoothed endpoint pull saturates below k / sqrt(epsilon)
        a, b = np.array([0.0, 0.0]), np.array([100.0, 0.0])
        cap = 2 * PARAMS.k / np.sqrt(PARAMS.epsilon)
        rng = np.random.default_rng(9)
        for _ in range(100):
            pos = rng.uniform(-500, 500, 2)
            h = goal_term_bridge(pos, np.zeros(2), a, b, PARAMS)
            assert np.linalg.norm(h) < cap

    def test_bridge_damping(self):
        a, b = np.array([0.0, 0.0]), np.array([100.0, 0.0])
        still = goal_term_bridge(np.array([20.0, 5.0]), np.zeros(2), a, b, PARAMS)
        moving = goal_term_bridge(np.array([20.0, 5.0]), np.array([2.0, 0.0]), a, b, PARAMS)
        np.testing.assert_allclose(moving - still, [-1.2, 0.0])   # -c2 * v

    def test_identical_endpoints_rejected(self):
        with pytest.raises(ValueError):
            goal_term_bridge(np.zeros(2), np.zeros(2), np.ones(2), np.ones(2), PARAMS)


class TestVectorizedAgreement:
    def random_state(self, rng, n):
        pos = rng.uniform(-60, 60, (n, 2))
        vel = rng.uniform(-2, 2, (n, 2))
        loads = rng.integers(0, 2 * PARAMS.n_max, n)
        alive = rng.random(n) > 0.15
        modes = rng.integers(0, 3, n)
        goal_a = rng.integers(0, 4, n)
        goal_b = np.where(modes == MODE_BRIDGE, (goal_a + 1 + rng.integers(0, 3, n)) % 4, -1)
        centroids = rng.uniform(-100, 100, (4, 2))
        return pos, vel, loads, alive, modes, goal_a, goal_b, centroids

    def test_matches_per_agent_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 18))
            pos, vel, loads, alive, modes, ga, gb, cent = self.random_state(rng, n)
            adj = adjacency_matrix(agent_tree(pos, alive), PARAMS.r)
            ids = np.flatnonzero(alive)
            rows, cols = directed_pairs(*adj)
            nb = [ids[cols[ids[rows] == i]] for i in range(n)]
            u = flock_accelerations(kernel_world(pos, vel, alive, modes, ga, gb, cent),
                                    kernel_observation(adj, loads), PARAMS)
            for i in range(n):
                if not alive[i]:
                    np.testing.assert_array_equal(u[i], 0.0)
                    continue
                ref = control_input(i, pos, vel, loads, nb[i], alive,
                                    int(modes[i]), int(ga[i]), int(gb[i]),
                                    cent, PARAMS)
                np.testing.assert_allclose(u[i], ref, atol=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(19)
        pos, vel, loads, alive, modes, ga, gb, cent = self.random_state(rng, 12)
        adj = adjacency_matrix(agent_tree(pos, alive), PARAMS.r)
        u = flock_accelerations(kernel_world(pos, vel, alive, modes, ga, gb, cent),
                                kernel_observation(adj, loads), PARAMS)
        shift = np.array([37.5, -12.25])
        moved = pos + shift
        adj2 = adjacency_matrix(agent_tree(moved, alive), PARAMS.r)
        u2 = flock_accelerations(kernel_world(moved, vel, alive, modes, ga, gb, cent + shift),
                                 kernel_observation(adj2, loads), PARAMS)
        np.testing.assert_allclose(u2, u, atol=1e-9)

    def test_dead_agents_fields_are_never_read(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            pos, vel, loads, alive, modes, ga, gb, cent = self.random_state(rng, n)
            alive[0] = False
            dead = ~alive
            adj = adjacency_matrix(agent_tree(pos, alive), PARAMS.r)
            want = flock_accelerations(kernel_world(pos, vel, alive, modes, ga, gb, cent),
                                       kernel_observation(adj, loads), PARAMS)
            bad_pos, bad_vel, bad_a, bad_b = pos.copy(), vel.copy(), ga.copy(), gb.copy()
            bad_pos[dead] = bad_vel[dead] = np.nan
            bad_a[dead] = bad_b[dead] = len(cent) + 5
            for mode in (MODE_DYNAMIC, MODE_BRIDGE, MODE_STATIC):
                bad = kernel_world(bad_pos, bad_vel, alive, np.where(dead, mode, modes),
                                   bad_a, bad_b, cent)
                got = flock_accelerations(bad, kernel_observation(adj, loads), PARAMS)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
                assert np.all(got[dead] == 0.0) and not np.any(np.signbit(got[dead]))

    def test_dead_agent_reference_rejected(self):
        pos = np.zeros((2, 2))
        with pytest.raises(ValueError):
            control_input(0, pos, np.zeros((2, 2)), np.zeros(2, int), [],
                          np.array([False, True]), MODE_DYNAMIC, 0, -1,
                          np.zeros((1, 2)), PARAMS)


class TestBridgeStaffing:
    @staticmethod
    def relays(length, r=24.0):
        """The relays of the one edge of a two-centroid relay tree."""
        ((a, b, relays),) = relay_tree((0, 1), np.array([[0.0, 0.0], [length, 0.0]]), r)
        assert (a, b) == (0, 1)
        return relays

    def test_relay_tree_examples(self):
        assert self.relays(150.0) == 6
        assert self.relays(24.0) == 0
        assert self.relays(24.1) == 1
        assert self.relays(10.0) == 0

    def test_exact_multiples_of_the_range(self):
        # k ranges end to end need k - 1 relays between the two endpoints
        assert self.relays(48.0) == 1
        assert self.relays(72.0) == 2

    def test_relay_tree_keeps_the_tree_order(self):
        # the acceptance square: four equal 145 m sides, so every edge needs 6
        # relays and the tree is cluster_mst's, in its (length, id_a, id_b) order
        centroids = np.array([[0.0, 0.0], [145.0, 0.0], [0.0, 145.0], [145.0, 145.0]])
        tree = cluster_mst(range(4), centroids)
        assert [length for _, _, length in tree] == [145.0] * 3
        assert relay_tree((0, 1, 2, 3), centroids, 24.0) == [(a, b, 6) for a, b, _ in tree]
        assert [(a, b) for a, b, _ in tree] == [(0, 1), (0, 2), (1, 3)]

    def test_deficit_priority(self):
        centroids = np.array([[0.0, 0.0], [150.0, 0.0], [0.0, 150.0]])
        tree = [(0, 1, 6), (0, 2, 6)]
        counts = Counter({(0, 1): 6})   # fully staffed; (0, 2) needs all 6
        pick = select_bridge_edge(np.array([75.0, 0.0]), tree, counts, centroids)
        assert pick == (0, 2)

    def test_nearest_edge_when_all_staffed(self):
        centroids = np.array([[0.0, 0.0], [150.0, 0.0], [0.0, 150.0]])
        tree = [(0, 1, 6), (0, 2, 6)]
        counts = Counter({(0, 1): 6, (0, 2): 6})
        pick = select_bridge_edge(np.array([75.0, 0.0]), tree, counts, centroids)
        assert pick == (0, 1)

    def test_lexicographic_tie(self):
        centroids = np.array([[0.0, 0.0], [100.0, 0.0], [-100.0, 0.0]])
        tree = [(0, 1, 4), (0, 2, 4)]
        pick = select_bridge_edge(np.zeros(2), tree, Counter(), centroids)
        assert pick == (0, 1)

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            select_bridge_edge(np.zeros(2), [], Counter(), np.zeros((1, 2)))


class TestModeSwitch:
    CENTROIDS = np.array([[0.0, 0.0], [150.0, 0.0], [0.0, 150.0], [150.0, 150.0]])

    def call(self, goal_a, n_served, achieved=(), counts=None, pos=(0.0, 0.0)):
        """Run the machine, as past the coverage gate, on a one-agent world;
        returns its outcome and the agent's goal ids."""
        world = self.world([(MODE_DYNAMIC, goal_a, -1, achieved, pos)])
        counts = Counter() if counts is None else counts
        out = mode_switch(world, 0, n_served, lambda key: cluster_tree(key, self.CENTROIDS),
                          counts, THRESH)
        return out, goal_ids(world.achieved[0]), counts

    @classmethod
    def world(cls, agents, centroids=CENTROIDS):
        """A world over `centroids` whose agents are ``(mode, goal_a, goal_b,
        achieved goal ids, position)``, one tuple each."""
        cfg = ScenarioConfig(cluster_centers=tuple(map(tuple, centroids)),
                             msds_per_cluster=5, map_count=len(agents))
        world = generate_scenario(cfg, np.random.default_rng(0))
        for i, (mode, goal_a, goal_b, achieved, pos) in enumerate(agents):
            world.mode[i], world.goal_a[i], world.goal_b[i] = mode, goal_a, goal_b
            world.achieved[i] = goal_rows([achieved], len(centroids))[0]
            world.map_pos[i] = pos
        return world

    def switch_unchanged(self, agents, coverage, loads=5):
        """Run `switch_modes` and check that it changes no agent."""
        world = self.world(agents)
        before = [getattr(world, name).copy() for name in ("mode", "goal_a", "goal_b", "achieved")]
        changes = switch_modes(world, np.full(len(agents), loads), np.asarray(coverage, float),
                               THRESH, 24.0)
        assert changes == 0
        for want, name in zip(before, ("mode", "goal_a", "goal_b", "achieved")):
            np.testing.assert_array_equal(getattr(world, name), want)

    def test_no_gated_agent_builds_nothing(self, monkeypatch):
        # below the gate, bridging and static agents alike: the relay count and
        # the tree cache are never built
        def unused(*args, **kwargs):
            raise AssertionError("built for a call that can change no agent")

        for name in ("Counter", "cache", "partial"):
            monkeypatch.setattr(control, name, unused)
        self.switch_unchanged([(MODE_DYNAMIC, 0, -1, (), (0.0, 0.0)),
                               (MODE_BRIDGE, 0, 1, {0, 1}, (75.0, 0.0)),
                               (MODE_STATIC, 1, -1, {1}, (150.0, 0.0))], [0.90, 0.99, 0.0, 0.0])

    def test_switch_to_bridge_at_mid_load(self):
        # goal covered above r0, load in [n0, n1), a tree edge exists: bridge
        (mode, ga, gb), achieved, counts = self.call(0, 5, achieved={1})
        assert mode == MODE_BRIDGE
        assert (ga, gb) in counts and counts[(ga, gb)] == 1
        assert achieved == {0, 1}

    def test_no_switch_below_coverage_gate(self):
        self.switch_unchanged([(MODE_DYNAMIC, 0, -1, (), (0.0, 0.0))], [0.90, 0.0, 0.0, 0.0])

    def test_coverage_gate_is_strict(self):
        # coverage exactly r0 = 0.95 is not above the gate: the goal is not marked
        self.switch_unchanged([(MODE_DYNAMIC, 0, -1, (), (0.0, 0.0)),
                               (MODE_DYNAMIC, 1, -1, {2}, (150.0, 0.0))],
                              [0.95, 0.95, 1.0, 0.0])

    def test_switch_to_static_at_high_load(self):
        (mode, ga, gb), _, _ = self.call(0, 15)
        assert (mode, ga, gb) == (MODE_STATIC, 0, -1)

    def test_low_load_retargets_nearest_uncovered(self):
        (mode, ga, gb), _, _ = self.call(0, 1, pos=(10.0, 140.0))
        assert (mode, gb) == (MODE_DYNAMIC, -1)
        assert ga == 2          # nearest of the uncovered clusters

    def test_low_load_bridges_when_all_covered(self):
        (mode, ga, gb), _, _ = self.call(
            0, 1, achieved={1, 2, 3}, pos=(75.0, 0.0))
        assert mode == MODE_BRIDGE
        assert (ga, gb) == (0, 1)

    def test_mid_load_prefers_understaffed_bridge_over_retarget(self):
        (mode, _, _), _, counts = self.call(0, 5, achieved={1})
        assert mode == MODE_BRIDGE
        assert sum(counts.values()) == 1

    def test_mid_load_retargets_when_bridges_full(self):
        full = Counter({(0, 1): 6})
        (mode, ga, _), _, _ = self.call(
            0, 5, achieved={1}, counts=full, pos=(140.0, 10.0))
        assert (mode, ga) == (MODE_DYNAMIC, 3)

    def test_decision_table(self):
        # goal 0 covered, at (140, 10): the nearest uncovered cluster is 1 with
        # only goal 0 achieved, and 3 with goals 0 and 1; edge (0, 1) of the
        # tree over CENTROIDS[:k] needs 6 relays, and `relays` are on it
        assert (THRESH.n0, THRESH.n1) == (3, 10)
        static, bridge, keep = (MODE_STATIC, 0, -1), (MODE_BRIDGE, 0, 1), (MODE_DYNAMIC, 0, -1)
        to_1, to_3 = (MODE_DYNAMIC, 1, -1), (MODE_DYNAMIC, 3, -1)
        table = [   # k, other achieved goals, relays: the outcome at loads 0, 2, 3, 9, 10
            (4, (), 0, [to_1, to_1, to_1, to_1, static]),          # uncovered; no edge
            (4, {1}, 0, [to_3, to_3, bridge, bridge, static]),     # uncovered; understaffed
            (4, {1}, 6, [to_3, to_3, to_3, to_3, static]),         # uncovered; staffed
            (1, (), 0, [keep, keep, keep, keep, static]),          # none uncovered; no edge
            (2, {1}, 0, [bridge, bridge, bridge, bridge, static]),  # none uncovered; understaffed
            (2, {1}, 6, [bridge, bridge, bridge, bridge, static]),  # none uncovered; staffed
        ]
        for k, achieved, relays, outcomes in table:
            centroids = self.CENTROIDS[:k]
            for load, want in zip((0, 2, 3, 9, 10), outcomes):
                world = self.world([(MODE_DYNAMIC, 0, -1, achieved, (140.0, 10.0))], centroids)
                counts = Counter({(0, 1): relays})
                got = mode_switch(world, 0, load, lambda key: cluster_tree(key, centroids),
                                  counts, THRESH)
                assert got == want, (k, achieved, relays, load)
                assert counts == Counter({(0, 1): relays + (want == bridge)})

    def test_bridge_mode_absorbing(self):
        # every goal covered and a high load, yet the relay keeps its edge, and its
        # row is not marked
        self.switch_unchanged([(MODE_BRIDGE, 0, 1, (), (75.0, 0.0))], [1.0, 1.0, 1.0, 1.0],
                              loads=50)

    def test_static_mode_absorbing(self):
        # a low load and uncovered clusters left, yet the server stays
        self.switch_unchanged([(MODE_STATIC, 0, -1, {0}, (0.0, 0.0))], [1.0, 0.0, 0.0, 0.0],
                              loads=2)

    def test_tree_queried_after_goal_is_added(self):
        seen = []

        def lookup(key):
            seen.append(key)
            return cluster_tree(key, self.CENTROIDS)

        world = self.world([(MODE_DYNAMIC, 0, -1, {1}, (0.0, 0.0))])
        mode_switch(world, 0, 5, lookup, Counter(), THRESH)
        assert seen == [(0, 1)]
        assert goal_ids(world.achieved[0]) == {0, 1}

    def test_single_achieved_goal_has_no_tree(self):
        # mid load, first cluster only: no edges exist yet -> keep roaming
        (mode, ga, _), _, counts = self.call(0, 5, pos=(140.0, 10.0))
        assert mode == MODE_DYNAMIC
        assert ga == 1          # nearest uncovered cluster from (140, 10)
        assert not counts

    def test_dead_bridge_agent_does_not_staff_its_edge(self):
        # edge (0, 1) needs 6 relays; 5 alive ones leave a deficit, so a mid-load
        # agent bridges it rather than retargeting to cluster 3
        relays = [(MODE_BRIDGE, 0, 1, {0, 1}, (75.0, 0.0))] * 6
        world = self.world(relays + [(MODE_DYNAMIC, 0, -1, {1}, (140.0, 10.0))])
        world.alive[0] = False
        changes = switch_modes(world, np.full(7, 5), np.array([0.96, 0.96, 0.0, 0.0]),
                               THRESH, 24.0)
        assert changes == 1
        assert (world.mode[6], world.goal_a[6], world.goal_b[6]) == (MODE_BRIDGE, 0, 1)
        world.alive[0], world.mode[6], world.goal_a[6], world.goal_b[6] = True, MODE_DYNAMIC, 0, -1
        assert switch_modes(world, np.full(7, 5), np.array([0.96, 0.96, 0.0, 0.0]),
                            THRESH, 24.0) == 0
        assert (world.mode[6], world.goal_a[6]) == (MODE_DYNAMIC, 3)

    def test_agents_of_one_call_spread_over_the_edges(self):
        # clusters 0, 1 and 2 covered: the tree's edges (0, 1) and (0, 2) need 6
        # relays each, and both agents are nearer (0, 1); the first takes it, and
        # the second, counting that adoption, takes (0, 2), now the larger deficit
        world = self.world([(MODE_DYNAMIC, 0, -1, {0, 1, 2}, (70.0, 0.0))] * 2)
        changes = switch_modes(world, np.full(2, 5), np.array([0.96, 0.96, 0.96, 0.0]),
                               THRESH, 24.0)
        assert changes == 2
        assert all(world.mode == MODE_BRIDGE)
        assert [(world.goal_a[i], world.goal_b[i]) for i in (0, 1)] == [(0, 1), (0, 2)]


def cluster_tree(key, centroids):
    return relay_tree(key, centroids, 24.0)
