"""The pair kernels agree exactly with the dense kernels they replaced.

Matching, adjacency and forces look only at the candidate pairs of a cell
grid, component labelling walks neighbour lists and goal sharing groups
members by one sort. Each must give bit-identical results to its dense
or looping oracle in ``tests/oracles.py``: owners, loads, adjacency,
labels, accelerations and achieved-goal sets.
"""

from dataclasses import replace

import numpy as np
import pytest

import mapflock.control as control
import mapflock.sim as sim
from mapflock.association import assign_msds
from mapflock.control import MODE_BRIDGE, MODE_DYNAMIC, MODE_STATIC, ControlParams, flock_accelerations
from mapflock.grid import MAX_CELLS, SIDE_MARGIN, candidate_pairs
from mapflock.netgraph import connected_components
from mapflock.sim import run, share_achieved_goals
from mapflock.world import ScenarioConfig, World, adjacency_matrix
from oracles import (
    dense_adjacency_matrix,
    dense_assign_msds,
    dense_flock_accelerations,
    loop_share_achieved_goals,
    scan_connected_components,
)

# an overflowing cell key shows up as numpy's cast warning
pytestmark = pytest.mark.filterwarnings("error")

R = 24.0
H = 20.0


def _cell_edges(points, reach, count):
    """`count` x-coordinates on the cell edges of the grid over `points`."""
    lo = points.min(axis=0)
    span = float((points.max(axis=0) - lo).max())
    side = max(reach, span / MAX_CELLS) * (1.0 + SIDE_MARGIN)
    return lo[0] + side * np.arange(count)


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
    # a snapshot spanning +-1e150: cells coarsen to span / 2**20
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


@pytest.mark.parametrize("name, users, agents, alive", SNAPSHOTS, ids=IDS)
class TestAgainstDenseOracles:
    def test_assignment(self, name, users, agents, alive):
        for height, comm_range in ((H, R), (3.0, 5.0), (7.0, 25.0), (R * (1 - 1e-15), R)):
            got = assign_msds(users, agents, height, alive, 1.0, 3.5, comm_range)
            want = dense_assign_msds(users, agents, height, alive, 1.0, 3.5, comm_range)
            np.testing.assert_array_equal(got.owner, want.owner)
            np.testing.assert_array_equal(got.loads, want.loads)
            assert got.coverage_ratio == want.coverage_ratio

    def test_adjacency(self, name, users, agents, alive):
        for comm_range in (R, 12.0, 5.0):
            got = adjacency_matrix(agents, alive, comm_range)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, dense_adjacency_matrix(agents, alive, comm_range))

    def test_labels(self, name, users, agents, alive):
        ids = np.flatnonzero(alive)
        sub = adjacency_matrix(agents, alive, R)[np.ix_(ids, ids)]
        np.testing.assert_array_equal(connected_components(sub), scan_connected_components(sub))

    def test_accelerations(self, name, users, agents, alive):
        rng = np.random.default_rng(len(agents))
        n = len(agents)
        params = ControlParams()
        centroids = np.array([[0.0, 0.0], [145.0, 0.0], [0.0, 145.0]])
        args = (agents, rng.normal(0, 3, size=(n, 2)),
                rng.integers(0, 2 * params.n_max, size=n), alive,
                rng.choice([MODE_DYNAMIC, MODE_BRIDGE, MODE_STATIC], size=n),
                rng.integers(0, 2, size=n), np.full(n, 2), centroids,
                adjacency_matrix(agents, alive, params.r), params)
        np.testing.assert_array_equal(flock_accelerations(*args), dense_flock_accelerations(*args))


# (x_min, x_i, x_j) with x_j - x_i within 24 m, where (x - x_min) / 24 rounds
# the two agents two cells of side 24 apart: the side needs its margin
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
    adj = adjacency_matrix(agents, alive, R)
    assert adj[1, 2] and adj[2, 1]
    np.testing.assert_array_equal(adj, dense_adjacency_matrix(agents, alive, R))


class TestCandidatePairs:
    def test_superset_of_pairs_in_reach(self):
        for name, users, agents, _ in SNAPSHOTS:
            for reach in (R, 13.3, 0.5, 0.0):
                q, s = candidate_pairs(agents, users, reach)
                found = set(zip(q.tolist(), s.tolist()))
                assert len(found) == len(q), name
                diff = agents[:, None, :] - users[None, :, :]
                qi, si = np.nonzero(np.einsum("ijk,ijk->ij", diff, diff) <= reach * reach)
                assert set(zip(qi.tolist(), si.tolist())) <= found, name

    def test_empty_inputs(self):
        q, s = candidate_pairs(np.zeros((0, 2)), np.ones((3, 2)), R)
        assert q.size == 0 and s.size == 0
        q, s = candidate_pairs(np.ones((3, 2)), np.zeros((0, 2)), R)
        assert q.size == 0 and s.size == 0

    def test_coincident_points(self):
        q, s = candidate_pairs(np.ones((3, 2)), np.ones((2, 2)), 0.0)
        assert sorted(zip(q.tolist(), s.tolist())) == [(a, b) for a in range(3) for b in range(2)]


class TestRandomGraphLabels:
    def test_matches_row_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(0, 60))
            adj = np.triu(rng.random((n, n)) < rng.random() * 0.15, 1)
            adj = adj | adj.T
            got = connected_components(adj)
            np.testing.assert_array_equal(got, scan_connected_components(adj))
            np.testing.assert_array_equal(connected_components(adj.astype(float)), got)


class TestShareAchievedGoals:
    @staticmethod
    def _world(rng, n):
        return World(centroids=np.zeros((6, 2)), msd_pos=np.zeros((1, 2)),
                     msd_cluster=np.zeros(1, int), map_pos=np.zeros((n, 2)),
                     map_vel=np.zeros((n, 2)), map_height=H,
                     alive=rng.random(n) > 0.3, mode=np.zeros(n, int),
                     goal_a=np.zeros(n, int), goal_b=np.full(n, -1),
                     achieved=[set(rng.choice(6, size=int(rng.integers(0, 3))).tolist())
                               for _ in range(n)])

    def test_matches_per_component_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            grouped = self._world(rng, n)
            alive_count = int(grouped.alive.sum())
            # any labeling, gaps in the label range included
            labels = rng.integers(0, max(1, alive_count), size=alive_count)
            looped = replace(grouped, achieved=[set(a) for a in grouped.achieved])
            share_achieved_goals(grouped, labels)
            loop_share_achieved_goals(looped, labels)
            assert grouped.achieved == looped.achieved
            ids = np.flatnonzero(grouped.alive)
            shared = [grouped.achieved[i] for i in ids]
            assert len({id(s) for s in shared}) == len(shared)   # no set is shared


@pytest.mark.parametrize("failures", [(), ((1.0, 0.5),)])
def test_run_identical_to_dense_kernels(monkeypatch, failures):
    """A whole run with the dense kernels swapped in gives the same samples,
    trajectory and final world."""
    cfg = ScenarioConfig(cluster_centers=((0.0, 0.0), (60.0, 0.0), (0.0, 60.0)),
                         msds_per_cluster=60, cluster_sigma=6.0, map_count=24,
                         map_spawn_center=(30.0, 30.0), map_spawn_halfwidth=20.0,
                         t_end=3.0, seed=5, failures=failures)
    fast = run(cfg, record_trajectories=True)
    for module, name, oracle in (
            (sim, "assign_msds", dense_assign_msds),
            (sim, "adjacency_matrix", dense_adjacency_matrix),
            (sim, "connected_components", scan_connected_components),
            (sim, "share_achieved_goals", loop_share_achieved_goals),
            (control, "flock_accelerations", dense_flock_accelerations)):
        monkeypatch.setattr(module, name, oracle)
    dense = run(cfg, record_trajectories=True)
    assert fast.trajectory == dense.trajectory
    assert fast.mode_changes == dense.mode_changes
    for a, b in zip(fast.samples, dense.samples):
        assert (a.t, a.coverage_ratio, a.fiedler, a.alive_count, a.mode_counts) \
            == (b.t, b.coverage_ratio, b.fiedler, b.alive_count, b.mode_counts)
        np.testing.assert_array_equal(a.cluster_coverage, b.cluster_coverage)
    np.testing.assert_array_equal(fast.world.map_pos, dense.world.map_pos)
    assert fast.world.achieved == dense.world.achieved
