"""The pair kernels agree exactly with the dense kernels they replaced.

Matching and adjacency look only at the candidate pairs of k-d trees,
forces only at the in-range pairs, the aerial graph is the sorted int32
pairs ``rows < cols``, component labelling builds a sparse matrix from them
and goal sharing ORs each component's rows at once.
Each must give bit-identical results to its dense or looping oracle in
``tests/oracles.py``: owners, loads, adjacency, labels, accelerations and
achieved goals.
"""

from dataclasses import replace

import numpy as np
import pytest

import mapflock.association as association
import mapflock.control as control
import mapflock.sim as sim
import mapflock.world as world_module
from mapflock.association import assign_msds, user_table
from mapflock.control import MODE_BRIDGE, MODE_DYNAMIC, MODE_STATIC, ControlParams, flock_accelerations
from mapflock.netgraph import connected_components
from mapflock.sim import observe, run, share_achieved_goals
from mapflock.world import ScenarioConfig, World, adjacency_matrix, agent_tree, generate_scenario
from oracles import (
    dense_adjacency_matrix,
    dense_assign_msds,
    dense_flock_accelerations,
    directed_pairs,
    goal_rows,
    goal_sets,
    kernel_world,
    loop_share_achieved_goals,
    recorded_run,
    scan_connected_components,
    upper_pairs,
)

# an overflowing distance or cast shows up as a numpy warning
pytestmark = pytest.mark.filterwarnings("error")

R = 24.0
H = 20.0


def _cell_edges(points, reach, count):
    """`count` x-coordinates on the edges of square cells of side `reach`,
    widened by 1e-6, counted from the lowest corner of `points`."""
    side = reach * (1.0 + 1e-6)
    return points.min(axis=0)[0] + side * np.arange(count)


def _snapshots():
    """(name, users, agents, alive) snapshots that probe ties, range edges,
    cell edges and extreme coordinates."""
    rng = np.random.default_rng(7)
    out = []
    # integer grids: many users equidistant from two or four agents, many
    # agent pairs at exactly 24 m
    grid = np.stack(np.meshgrid(np.arange(-48.0, 49.0, 12.0),
                                np.arange(-48.0, 49.0, 12.0)), -1).reshape(-1, 2)
    users = np.stack(np.meshgrid(np.arange(-60.0, 61.0, 6.0),
                                 np.arange(-60.0, 61.0, 3.0)), -1).reshape(-1, 2)
    out.append(("integer grid ties", users, grid, np.ones(len(grid), bool)))
    line = np.array([[0.0, 0.0], [24.0, 0.0], [48.0, 0.0], [48.0, 24.0], [-24.0, -0.0]])
    out.append(("pairs at exactly r", users, line, np.ones(len(line), bool)))
    # users at exactly the horizontal reach sqrt(r^2 - h^2) of an agent, and
    # one ulp beyond it
    reach = np.sqrt(R * R - H * H)
    agents = np.array([[0.0, 0.0], [100.0, -50.0]])
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], 1)
    at_reach = np.concatenate([agents[0] + reach * ring, agents[1] + reach * ring,
                               agents[0] + np.nextafter(reach, np.inf) * ring,
                               [[reach, 0.0], [np.nextafter(reach, np.inf), 0.0],
                                [100.0 + reach, -50.0],
                                # exactly at the reach of r = 5, h = 3 and r = 25, h = 7
                                [4.0, 0.0], [0.0, -4.0], [24.0, 0.0], [100.0, -26.0]]])
    out.append(("users at the horizontal reach", at_reach, agents, np.ones(2, bool)))
    # agents on cell edges, at negative coordinates
    base = np.array([[-130.0, -70.0], [-20.0, -3.0]])
    xs = _cell_edges(np.concatenate([base, users - 80.0]), R, 6)
    edge_agents = np.concatenate([np.stack([xs, np.full(6, -70.0)], 1),
                                  np.stack([xs, np.full(6, -70.0 + R)], 1),
                                  np.stack([np.nextafter(xs, -np.inf), np.full(6, -46.0)], 1),
                                  base])
    out.append(("cell edges, negative coordinates", users - 80.0, edge_agents,
                np.ones(len(edge_agents), bool)))
    # dead agents, none alive, no users
    agents = rng.uniform(-60, 60, size=(40, 2))
    users = rng.normal(0, 25, size=(300, 2))
    alive = rng.random(40) > 0.4
    out.append(("dead agents", users, agents, alive))
    out.append(("no alive agents", users, agents, np.zeros(40, bool)))
    out.append(("no users", np.zeros((0, 2)), agents, alive))
    # a snapshot spanning +-1e150
    far = np.array([[1e150, 1e150], [-1e150, 3.0], [1e150 + 1e136, 1e150], [5.0, -1e150],
                    [1e150, 1e150]])
    out.append(("spanning 1e150", users, np.concatenate([agents, far]),
                np.ones(len(agents) + len(far), bool)))
    # random fleets of many densities
    for k in range(12):
        n = int(rng.integers(1, 120))
        agents = rng.uniform(-40 - 20 * k, 40 + 20 * k, size=(n, 2))
        users = rng.normal(0, 10 + 15 * k, size=(int(rng.integers(1, 500)), 2))
        out.append((f"random {k}", users, agents, rng.random(n) > 0.1))
    return out


SNAPSHOTS = _snapshots()
IDS = [name for name, *_ in SNAPSHOTS]


def tree_pairs(map_pos, alive, comm_range):
    """The library's in-range pairs, over the alive agents' own tree, in
    both directions."""
    return directed_pairs(*adjacency_matrix(agent_tree(map_pos, alive), comm_range))


def dense_pairs(map_pos, alive, comm_range):
    """The in-range pairs as the dense oracle gives them: ``np.nonzero`` of
    its block over the alive agents."""
    ids = np.flatnonzero(alive)
    return np.nonzero(dense_adjacency_matrix(map_pos, alive, comm_range)[np.ix_(ids, ids)])


def dense_tree_graph(agents, comm_range):
    """The pairs of the dense oracle's matrix over the positions that the
    library's agents' tree holds (the alive agents', in id order), so that it
    can stand in for ``adjacency_matrix`` in a whole run."""
    return upper_pairs(dense_adjacency_matrix(agents.data, np.ones(agents.n, dtype=bool),
                                              comm_range))


def pair_matrix(n_alive, rows, cols):
    """The boolean n_alive x n_alive matrix of the pairs."""
    out = np.zeros((n_alive, n_alive), dtype=bool)
    out[rows, cols] = True
    return out


def id_matrix(alive, rows, cols):
    """The boolean matrix of the pairs over all agent ids, dead rows and
    columns all False, as the dense oracles take it."""
    ids = np.flatnonzero(alive)
    out = np.zeros((len(alive), len(alive)), dtype=bool)
    out[ids[rows], ids[cols]] = True
    return out


def components_via_scan(n, rows, cols):
    return scan_connected_components(pair_matrix(n, *directed_pairs(rows, cols)))


def assign_via_dense(users, agents, alive, map_height, comm_range):
    """The dense matcher behind the library's signature: the agents' tree
    positions scattered into the alive rows of a position array."""
    map_pos = np.zeros((len(alive), 2))
    map_pos[alive] = agents.data
    return dense_assign_msds(users.data, map_pos, map_height, alive, comm_range)


def share_via_loop(world, labels):
    """The per-component loop oracle behind the library's signature, whose
    labels come from a function."""
    loop_share_achieved_goals(world, labels())


def accelerations_via_dense(world, adjacency, loads, params):
    return dense_flock_accelerations(world.map_pos, world.map_vel, loads, world.alive,
                                     world.mode, world.goal_a, world.goal_b, world.centroids,
                                     id_matrix(world.alive, *directed_pairs(*adjacency)), params)


@pytest.mark.parametrize("name, users, agents, alive", SNAPSHOTS, ids=IDS)
class TestAgainstDenseOracles:
    def test_assignment(self, name, users, agents, alive):
        trees = user_table(users), agent_tree(agents, alive)
        for height, comm_range in ((H, R), (3.0, 5.0), (7.0, 25.0), (R * (1 - 1e-15), R)):
            got = assign_msds(*trees, alive, height, comm_range)
            want = dense_assign_msds(users, agents, height, alive, comm_range)
            np.testing.assert_array_equal(got.owner, want.owner)
            np.testing.assert_array_equal(got.loads, want.loads)
            assert got.coverage_ratio == want.coverage_ratio

    def test_adjacency(self, name, users, agents, alive):
        n_alive = np.count_nonzero(alive)
        for comm_range in (R, 12.0, 5.0):
            pair_rows, pair_cols = adjacency_matrix(agent_tree(agents, alive), comm_range)
            assert pair_rows.dtype == pair_cols.dtype == np.int32
            assert pair_rows.shape == pair_cols.shape and np.all(pair_rows < pair_cols)
            # the pairs as returned are strictly row-major: the force
            # kernel's per-agent sums rely on this order for their bits
            assert np.all(np.diff(pair_rows.astype(np.int64) * max(n_alive, 1) + pair_cols) > 0)
            rows, cols = directed_pairs(pair_rows, pair_cols)
            want_rows, want_cols = dense_pairs(agents, alive, comm_range)
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(cols, want_cols)
            # the contract: integer, symmetric, no self pairs, row-major,
            # numbered below the alive count
            assert rows.dtype.kind == cols.dtype.kind == "i"
            assert set(zip(rows.tolist(), cols.tolist())) \
                == set(zip(cols.tolist(), rows.tolist()))
            assert not np.any(rows == cols)
            assert np.all(np.diff(rows * max(n_alive, 1) + cols) > 0)
            if rows.size:
                assert max(rows.max(), cols.max()) < n_alive

    def test_labels(self, name, users, agents, alive):
        n_alive = np.count_nonzero(alive)
        graph = adjacency_matrix(agent_tree(agents, alive), R)
        np.testing.assert_array_equal(connected_components(n_alive, *graph),
                                      scan_connected_components(pair_matrix(n_alive,
                                                                            *directed_pairs(*graph))))

    def test_accelerations(self, name, users, agents, alive):
        rng = np.random.default_rng(len(agents))
        n = len(agents)
        params = ControlParams()
        centroids = np.array([[0.0, 0.0], [145.0, 0.0], [0.0, 145.0]])
        vel, loads = rng.normal(0, 3, size=(n, 2)), rng.integers(0, 2 * params.n_max, size=n)
        agent_state = (alive, rng.choice([MODE_DYNAMIC, MODE_BRIDGE, MODE_STATIC], size=n),
                       rng.integers(0, 2, size=n), np.full(n, 2), centroids)
        graph = adjacency_matrix(agent_tree(agents, alive), params.r)
        got = flock_accelerations(kernel_world(agents, vel, *agent_state), graph, loads, params)
        want = dense_flock_accelerations(agents, vel, loads, *agent_state,
                                         dense_adjacency_matrix(agents, alive, params.r), params)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestEmptyGraphs:
    def test_no_alive_agents_give_no_pairs(self):
        rows, cols = tree_pairs(np.ones((3, 2)), np.zeros(3, bool), R)
        assert rows.size == 0 and cols.size == 0
        rows, cols = tree_pairs(np.zeros((0, 2)), np.zeros(0, bool), R)
        assert rows.size == 0 and cols.size == 0

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_no_pairs_give_one_component_per_node(self, n):
        none = np.zeros(0, dtype=np.int32)
        np.testing.assert_array_equal(connected_components(n, none, none), np.arange(n))


# (x_min, x_i, x_j) with x_j - x_i within 24 m, where (x - x_min) / 24 rounds
# the two agents two cells of side 24 apart: a pair in range on either side
# of a rounded partition of the plane
ROUNDED_APART = [
    (-312.59564710117127, -72.5956471011713, -48.595647101171295),
    (-202.61322994390062, 37.38677005609936, 61.38677005609935),
    (-35.34292990107535, -11.342929901075355, 12.657070098924645),
    (-401.9879264896081, -161.98792648960816, -137.98792648960816),
    (-271.0890273599666, 232.91097264003332, 256.9109726400333),
]


@pytest.mark.parametrize("x_min, x_i, x_j", ROUNDED_APART)
def test_pair_in_range_across_rounded_cell_edges(x_min, x_i, x_j):
    agents = np.array([[x_min, 0.0], [x_i, 0.0], [x_j, 0.0]])
    alive = np.ones(3, bool)
    rows, cols = tree_pairs(agents, alive, R)
    pairs = set(zip(rows.tolist(), cols.tolist()))
    assert (1, 2) in pairs and (2, 1) in pairs
    for got, want in zip((rows, cols), dense_pairs(agents, alive, R)):
        np.testing.assert_array_equal(got, want)


class TestCandidatePairs:
    def test_superset_of_pairs_in_reach(self):
        # the trees' candidates, at the widened reach and range, hold every
        # pair the exact range tests admit, down to a height equal to the range
        for name, users, agents, alive in SNAPSHOTS:
            pos = agents[alive]
            tree = agent_tree(agents, alive)
            for height, comm_range in ((H, R), (3.0, 5.0), (R * (1 - 1e-15), R), (R, R)):
                pairs = tree.sparse_distance_matrix(
                    user_table(users), association._reach(height, comm_range),
                    output_type="ndarray")
                found = set(zip(pairs["i"].tolist(), pairs["j"].tolist()))
                assert len(found) == len(pairs), name
                diff = pos[:, None, :] - users[None, :, :]
                d2 = np.einsum("ijk,ijk->ij", diff, diff)
                ai, ui = np.nonzero(np.sqrt(d2 + height * height) <= comm_range)
                assert set(zip(ai.tolist(), ui.tolist())) <= found, name
            for comm_range in (R, 12.0, 0.5):
                i, j = tree.query_pairs(comm_range * (1.0 + 1e-9), output_type="ndarray").T
                found = set(zip(i.tolist(), j.tolist()))
                diff = pos[:, None, :] - pos[None, :, :]
                ai, aj = np.nonzero(np.triu(np.einsum("ijk,ijk->ij", diff, diff)
                                            <= comm_range * comm_range, 1))
                assert set(zip(ai.tolist(), aj.tolist())) <= found, name

    def test_empty_inputs(self):
        none = np.zeros((0, 2))
        for users, agents in ((np.ones((3, 2)), none), (none, np.ones((3, 2))), (none, none)):
            alive = np.ones(len(agents), bool)
            got = assign_msds(user_table(users), agent_tree(agents, alive), alive, H, R)
            assert got.owner.tolist() == [-1] * len(users)
            assert got.loads.tolist() == [0] * len(agents)
            assert got.coverage_ratio == 0.0
        rows, cols = tree_pairs(none, np.zeros(0, bool), R)
        assert rows.size == 0 and cols.size == 0

    def test_coincident_points(self):
        users, agents, alive = np.ones((2, 2)), np.ones((3, 2)), np.ones(3, bool)
        got = assign_msds(user_table(users), agent_tree(agents, alive), alive, H, R)
        np.testing.assert_array_equal(got.owner, [0, 0])
        rows, cols = tree_pairs(agents, alive, R)
        assert list(zip(rows.tolist(), cols.tolist())) \
            == [(a, b) for a in range(3) for b in range(3) if a != b]


class TestRandomGraphLabels:
    def test_matches_row_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(0, 60))
            adj = np.triu(rng.random((n, n)) < rng.random() * 0.15, 1)
            adj = adj | adj.T
            got = connected_components(n, *upper_pairs(adj))
            np.testing.assert_array_equal(got, scan_connected_components(adj))

    def test_large_sparse_graphs(self):
        # fewer edges than nodes: many components, most of them single nodes
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(60, 1500))
            i, j = rng.integers(0, n, (2, int(rng.integers(0, n))))
            adj = np.zeros((n, n), dtype=bool)
            adj[i, j] = adj[j, i] = True
            np.fill_diagonal(adj, False)
            got = connected_components(n, *upper_pairs(adj))
            np.testing.assert_array_equal(got, scan_connected_components(adj))

    def test_isolated_first_node(self):
        n = 50
        adj = np.zeros((n, n), dtype=bool)
        path = np.arange(1, n)
        adj[path[:-1], path[1:]] = adj[path[1:], path[:-1]] = True
        got = connected_components(n, *upper_pairs(adj))
        np.testing.assert_array_equal(got, [0] + [1] * (n - 1))
        np.testing.assert_array_equal(got, scan_connected_components(adj))

    def test_largest_component_starts_last(self):
        # pairs (0, 1), (2, 3), ... come first; the largest component is a
        # random path over the remaining nodes that ends at their smallest
        # node: a walk from any other node of the path reaches it last
        rng = np.random.default_rng(31)
        for pairs in (1, 7, 40):
            n = 2 * pairs + 300
            adj = np.zeros((n, n), dtype=bool)
            small = np.arange(0, 2 * pairs, 2)
            adj[small, small + 1] = adj[small + 1, small] = True
            path = np.r_[rng.permutation(np.arange(2 * pairs + 1, n)), 2 * pairs]
            adj[path[:-1], path[1:]] = adj[path[1:], path[:-1]] = True
            got = connected_components(n, *upper_pairs(adj))
            np.testing.assert_array_equal(got, np.r_[np.repeat(np.arange(pairs), 2),
                                                     np.full(n - 2 * pairs, pairs)])
            np.testing.assert_array_equal(got, scan_connected_components(adj))


class TestShareAchievedGoals:
    @staticmethod
    def _world(rng, n):
        return World(centroids=np.zeros((6, 2)), msd_pos=np.zeros((1, 2)),
                     msd_cluster=np.zeros(1, int), map_pos=np.zeros((n, 2)),
                     map_vel=np.zeros((n, 2)), map_height=H,
                     alive=rng.random(n) > 0.3, mode=np.zeros(n, int),
                     goal_a=np.zeros(n, int), goal_b=np.full(n, -1),
                     achieved=goal_rows([rng.choice(6, size=int(rng.integers(0, 3))).tolist()
                                         for _ in range(n)], 6),
                     user_table=user_table(np.zeros((1, 2))),
                     cluster_users=np.bincount(np.zeros(1, int), minlength=6), user_extent=0.0)

    def test_matches_per_component_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            grouped = self._world(rng, n)
            alive_count = int(grouped.alive.sum())
            # any labeling, gaps in the label range included
            labels = rng.integers(0, max(1, alive_count), size=alive_count)
            looped = replace(grouped, achieved=grouped.achieved.copy())
            share_achieved_goals(grouped, lambda: labels)
            loop_share_achieved_goals(looped, labels)
            np.testing.assert_array_equal(grouped.achieved, looped.achieved)
            # each agent keeps its own row: marking one through its view, as
            # mode_switch does, leaves every other row unchanged
            k, goal = int(rng.integers(n)), int(rng.integers(6))
            grouped.achieved[k][goal] = True
            looped.achieved[k, goal] = True
            np.testing.assert_array_equal(grouped.achieved, looped.achieved)

    def test_members_keep_their_own_sets(self):
        # mode_switch marks an agent's row in place: after sharing, that must
        # not reach the other members of its component
        world = self._world(np.random.default_rng(2), 6)
        world.alive[:] = True
        world.achieved = goal_rows([{1}, set(), {2}, set(), set(), {4}], 6)
        labels = np.array([0, 0, 0, 1, 1, 2])
        share_achieved_goals(world, lambda: labels)
        assert goal_sets(world.achieved) == [{1, 2}, {1, 2}, {1, 2}, set(), set(), {4}]
        world.achieved[1][5] = True
        world.achieved[3][3] = True
        assert goal_sets(world.achieved) == [{1, 2}, {1, 2, 5}, {1, 2}, {3}, set(), {4}]

    def test_identical_rows_ask_for_no_labels(self):
        # with no goal known, or the same goals known by every alive agent, an
        # OR over any partition changes nothing: the labels are not computed
        rng = np.random.default_rng(5)

        def no_labels():
            raise AssertionError("labels computed")

        for row in ([], [2], [0, 3, 5]):
            world = self._world(rng, 12)
            world.achieved = goal_rows([row] * 12, 6)
            world.achieved[~world.alive] = goal_rows([[1]], 6)   # dead rows may differ
            before = world.achieved.copy()
            share_achieved_goals(world, no_labels)
            np.testing.assert_array_equal(world.achieved, before)

    def test_differing_rows_match_per_component_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            world = self._world(rng, int(rng.integers(2, 30)))
            alive_count = int(world.alive.sum())
            labels = rng.integers(0, max(1, alive_count // 3), size=alive_count)
            known = world.achieved[world.alive]
            if not known.any() or (known == known[0]).all():
                continue
            asked, looped = [], replace(world, achieved=world.achieved.copy())

            def asked_labels():
                asked.append(alive_count)
                return labels

            share_achieved_goals(world, asked_labels)
            loop_share_achieved_goals(looped, labels)
            np.testing.assert_array_equal(world.achieved, looped.achieved)
            assert asked == [alive_count]

    def test_dead_agents_and_other_components_untouched(self):
        world = self._world(np.random.default_rng(3), 7)
        world.alive[:] = [True, False, True, True, False, True, True]
        world.achieved = goal_rows([{0}, {1}, set(), {2}, {3}, set(), set()], 6)
        # alive agents 0, 2 | 3 | 5, 6: only the first component knows goal 0
        share_achieved_goals(world, lambda: np.array([0, 0, 1, 2, 2]))
        assert goal_sets(world.achieved) == [{0}, {1}, {0}, {2}, {3}, set(), set()]


@pytest.mark.parametrize("failures", [(), ((1.0, 0.5),)])
def test_run_identical_to_dense_kernels(monkeypatch, failures):
    """A whole run with the dense kernels swapped in, behind adapters between
    pairs and matrices, gives the same samples, trajectory and final world."""
    cfg = ScenarioConfig(cluster_centers=((0.0, 0.0), (60.0, 0.0), (0.0, 60.0)),
                         msds_per_cluster=60, cluster_sigma=6.0, map_count=24,
                         map_spawn_center=(30.0, 30.0), map_spawn_halfwidth=20.0,
                         t_end=3.0, seed=5, failures=failures)
    fast, fast_trajectory = recorded_run(cfg)
    for module, name, oracle in (
            (sim, "assign_msds", assign_via_dense),
            (sim, "adjacency_matrix", dense_tree_graph),
            (sim, "connected_components", components_via_scan),
            (sim, "share_achieved_goals", share_via_loop),
            (control, "flock_accelerations", accelerations_via_dense)):
        monkeypatch.setattr(module, name, oracle)
    dense, dense_trajectory = recorded_run(cfg)
    for name in ("t", "pos", "vel", "mode", "alive"):
        assert np.array_equal(getattr(fast_trajectory, name), getattr(dense_trajectory, name))
    assert fast.mode_changes == dense.mode_changes
    for a, b in zip(fast.samples, dense.samples):
        assert (a.t, a.coverage_ratio, a.fiedler, a.alive_count, a.mode_counts) \
            == (b.t, b.coverage_ratio, b.fiedler, b.alive_count, b.mode_counts)
        np.testing.assert_array_equal(a.cluster_coverage, b.cluster_coverage)
    np.testing.assert_array_equal(fast.world.map_pos, dense.world.map_pos)
    np.testing.assert_array_equal(fast.world.achieved, dense.world.achieved)


def _fleet_with_outlier(outlier):
    """999 agents uniform over an 800 m field, and one agent at `outlier`."""
    rng = np.random.default_rng(17)
    return np.concatenate([rng.uniform(0.0, 800.0, size=(999, 2)), [outlier]])


class TestTreePath:
    """The k-d tree path on hard inputs: far outliers, agents anywhere up to
    MAX_COORDINATE, the users' tree built once per run and one agents' tree
    per observation."""

    @pytest.mark.parametrize("outlier", [(1e5, 1e5), (-1e5, 400.0),
                                         (1e150, 1e150), (-1e150, -1e150)])
    def test_fleet_with_an_outlier(self, outlier):
        agents = _fleet_with_outlier(outlier)
        alive = np.ones(len(agents), bool)
        rows, cols = tree_pairs(agents, alive, R)
        want_rows, want_cols = dense_pairs(agents, alive, R)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)

    @pytest.mark.parametrize("outlier", [(1e5, 1e5), (-1e150, -1e150)])
    def test_users_with_an_outlier(self, outlier):
        users = _fleet_with_outlier(outlier)
        agents = np.random.default_rng(5).uniform(0.0, 800.0, size=(300, 2))
        alive = np.ones(300, bool)
        got = assign_msds(user_table(users), agent_tree(agents, alive), alive, H, R)
        want = dense_assign_msds(users, agents, H, alive, R)
        np.testing.assert_array_equal(got.owner, want.owner)

    def test_agents_outside_the_users_frame(self):
        rng = np.random.default_rng(23)
        users = rng.normal((50.0, -20.0), 15.0, size=(400, 2))
        left, right = users[users[:, 0].argmin()], users[users[:, 0].argmax()]
        low, high = users[users[:, 1].argmin()], users[users[:, 1].argmax()]
        big = sim.MAX_COORDINATE
        # within the horizontal reach (13.27 m) of the outermost users, but
        # outside the users' bounding box, then beyond the reach of every user
        edge = [left - (5.0, 0.0), left - (13.0, 0.0), right + (5.0, 0.0), right + (13.0, 0.0),
                low - (0.0, 9.0), high + (0.0, 9.0)]
        far = [left - (40.0, 0.0), right + (40.0, 0.0), (1e6, 0.0), (-1e6, 1e6),
               (1e12, -1e12), (big, big), (-big, -big), (big, 0.0), (0.0, -big)]
        agents = np.array(edge + far)
        table = user_table(users)
        served = []
        for alive in [np.arange(len(agents)) == k for k in range(len(agents))] \
                + [np.ones(len(agents), bool)]:
            got = assign_msds(table, agent_tree(agents, alive), alive, H, R)
            want = dense_assign_msds(users, agents, H, alive, R)
            np.testing.assert_array_equal(got.owner, want.owner)
            np.testing.assert_array_equal(got.loads, want.loads)
            served.append(int(want.loads[alive].sum()))
        assert all(served[:len(edge)]) and not any(served[len(edge):len(agents)])
        for got, want in zip(tree_pairs(agents, np.ones(len(agents), bool), R),
                             dense_pairs(agents, np.ones(len(agents), bool), R)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name, users, agents, alive", SNAPSHOTS, ids=IDS)
    def test_one_pair_of_trees_serves_matching_and_graph(self, name, users, agents, alive):
        trees = user_table(users), agent_tree(agents, alive)
        got = assign_msds(*trees, alive, H, R)
        want = dense_assign_msds(users, agents, H, alive, R)
        np.testing.assert_array_equal(got.owner, want.owner)
        for got, want in zip(directed_pairs(*adjacency_matrix(trees[1], R)),
                             dense_pairs(agents, alive, R)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("failures", [(), ((1.0, 0.5),)])
    def test_users_tree_built_once_per_run(self, monkeypatch, failures):
        builds = []
        original = association.user_table

        def counted(*args):
            builds.append(args)
            return original(*args)

        for module in (association, world_module):
            monkeypatch.setattr(module, "user_table", counted)
        res = run(ScenarioConfig(msds_per_cluster=40, map_count=20, t_end=2.0, seed=3,
                                 failures=failures))
        assert len(res.samples) == 21 and len(builds) == 1
        # the users' bounds, and the per-run constants computed with the tree
        users = res.world.user_table
        assert [users.mins.tolist(), users.maxes.tolist()] \
            == [res.world.msd_pos.min(axis=0).tolist(), res.world.msd_pos.max(axis=0).tolist()]
        assert res.world.user_extent == np.abs(res.world.msd_pos).max()
        assert res.world.cluster_users.tolist() == [40] * 4

    def test_one_agents_tree_per_observation(self, monkeypatch):
        built, passed = [], []

        def build(*args):
            built.append(world_module.agent_tree(*args))
            return built[-1]

        def spy(kernel, at):
            def wrapped(*args):
                passed.append(args[at])
                return kernel(*args)
            return wrapped

        monkeypatch.setattr(sim, "agent_tree", build)
        monkeypatch.setattr(sim, "assign_msds", spy(sim.assign_msds, 1))
        monkeypatch.setattr(sim, "adjacency_matrix", spy(sim.adjacency_matrix, 0))
        cfg = ScenarioConfig(msds_per_cluster=40, map_count=20, t_end=2.0, seed=3,
                             failures=((1.0, 0.5),))
        world = generate_scenario(cfg, np.random.default_rng(cfg.seed))
        world.alive[::3] = False
        observe(world, cfg.control)
        assert len(built) == 1 and built[0].n == np.count_nonzero(world.alive)
        assert passed == [built[0], built[0]]
        # a run observes its 21 states and, after the failure, one state again
        built.clear()
        passed.clear()
        run(cfg)
        assert len(built) == 22
        assert passed == [tree for tree in built for _ in range(2)]


def _force_world(rng, shape):
    """(positions, velocities, loads, alive, modes, goal_a, goal_b, centroids)
    of one random fleet of the given shape, dead agents' fields finite."""
    params = ControlParams()
    n = int(rng.integers(1, 40))
    if shape == "coincident":           # most agents in clumps, each at one point
        clumps = rng.uniform(-30, 30, (int(rng.integers(1, 5)), 2))
        pos = np.where(rng.random((n, 1)) < 0.7, clumps[rng.integers(0, len(clumps), n)],
                       rng.uniform(-30, 30, (n, 2)))
    elif shape == "isolated":           # no agent within range of another
        pos = np.stack([np.arange(n) * 3.0 * params.r, rng.uniform(-5, 5, n)], 1)
    elif shape == "clique":             # every pair within range
        pos = rng.uniform(-0.35 * params.r, 0.35 * params.r, (n, 2))
    elif shape == "at range":           # a grid of pitch r: pairs at exactly r
        side = int(np.ceil(np.sqrt(n)))
        pos = params.r * np.stack(np.divmod(np.arange(n), side), 1).astype(float) - 40.0
    else:
        pos = rng.uniform(-10 - n, 10 + n, (n, 2))
    vel = rng.normal(0, 3, (n, 2))
    vel[rng.random(n) < 0.2] = 0.0      # equal velocities: zero differences
    loads = rng.integers(0, 3 * params.n_max, n)
    modes = rng.choice([MODE_DYNAMIC, MODE_BRIDGE, MODE_STATIC], size=n)
    goal_a = rng.integers(0, 3, n)
    goal_b = np.where(modes == MODE_BRIDGE, (goal_a + 1) % 3, -1)
    centroids = rng.uniform(-100, 100, (3, 2))
    return pos, vel, loads, rng.random(n) > 0.25, modes, goal_a, goal_b, centroids


class TestUndirectedForceKernel:
    """The force kernel evaluates each pair once and still gives the dense
    oracle's accelerations bit for bit, sign bits included."""

    @pytest.mark.parametrize("shape", ["random", "coincident", "isolated", "clique", "at range"])
    def test_bit_equal_to_dense_oracle(self, shape):
        params = ControlParams()
        rng = np.random.default_rng(sum(map(ord, shape)))
        for _ in range(60):
            pos, vel, loads, alive, modes, goal_a, goal_b, centroids = _force_world(rng, shape)
            want = dense_flock_accelerations(pos, vel, loads, alive, modes, goal_a, goal_b,
                                             centroids,
                                             dense_adjacency_matrix(pos, alive, params.r), params)
            graph = adjacency_matrix(agent_tree(pos, alive), params.r)
            n_alive = np.count_nonzero(alive)
            if shape in ("isolated", "clique"):
                assert graph[1].size == (0 if shape == "isolated" else n_alive * (n_alive - 1) // 2)
            # the kernel never reads a dead agent's fields, so they may hold anything
            dead = ~alive
            pos, vel, goal_a, goal_b = pos.copy(), vel.copy(), goal_a.copy(), goal_b.copy()
            pos[dead] = vel[dead] = np.nan
            goal_a[dead] = goal_b[dead] = len(centroids) + 7
            got = flock_accelerations(kernel_world(pos, vel, alive, modes, goal_a, goal_b,
                                                   centroids), graph, loads, params)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_phi_action_sees_each_pair_once(self, monkeypatch):
        # the relay_wide benchmark scene at t = 0: 1000 agents over an 800 m field
        cfg = ScenarioConfig(cluster_centers=((0.0, 0.0), (600.0, 0.0), (0.0, 600.0),
                                              (600.0, 600.0)),
                             msds_per_cluster=200, cluster_sigma=100.0, map_count=1000,
                             map_spawn_center=(300.0, 300.0), map_spawn_halfwidth=400.0,
                             seed=1)
        world = generate_scenario(cfg, np.random.default_rng(cfg.seed))
        obs = observe(world, cfg.control)
        sizes, phi_action = [], control.phi_action

        def counted(z, params):
            sizes.append(np.size(z))
            return phi_action(z, params)

        monkeypatch.setattr(control, "phi_action", counted)
        flock_accelerations(world, obs.adjacency, obs.loads, cfg.control)
        assert sizes == [obs.adjacency[1].size] == [1346]
