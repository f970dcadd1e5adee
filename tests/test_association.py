import numpy as np
import pytest

from mapflock.association import Assignment, assign_msds, cluster_coverages, user_table
from mapflock.world import agent_tree
from oracles import dense_assign_msds, power_score_assign, scan_cluster_coverages

H = 20.0   # flight height
R = 24.0   # communication range


def match(msd, maps, height, alive, comm_range):
    """`assign_msds` over the users' tree and the alive agents' tree."""
    return assign_msds(user_table(msd), agent_tree(maps, alive), alive, height, comm_range)


class TestAssignMsds:
    def test_single_map_in_range(self):
        msd = np.array([[0.0, 0.0]])
        maps = np.array([[5.0, 0.0]])
        asg = match(msd, maps, H, np.ones(1, bool), R)
        assert asg.owner[0] == 0
        assert asg.loads[0] == 1
        assert asg.coverage_ratio == 1.0

    def test_no_map_in_range(self):
        # horizontal 14 -> 3-D distance sqrt(14^2 + 20^2) > 24
        msd = np.array([[0.0, 0.0]])
        maps = np.array([[14.0, 0.0]])
        asg = match(msd, maps, H, np.ones(1, bool), R)
        assert asg.owner[0] == -1
        assert asg.coverage_ratio == 0.0

    def test_uses_3d_distance(self):
        # horizontal 13 -> 3-D 23.85 <= 24, covered
        msd = np.array([[0.0, 0.0]])
        maps = np.array([[13.0, 0.0]])
        asg = match(msd, maps, H, np.ones(1, bool), R)
        assert asg.owner[0] == 0

    def test_nearer_map_wins(self):
        msd = np.array([[0.0, 0.0]])
        maps = np.array([[8.0, 0.0], [3.0, 0.0]])
        asg = match(msd, maps, H, np.ones(2, bool), R)
        assert asg.owner[0] == 1

    def test_dead_maps_ignored(self):
        msd = np.array([[0.0, 0.0]])
        maps = np.array([[1.0, 0.0], [9.0, 0.0]])
        asg = match(msd, maps, H, np.array([False, True]), R)
        assert asg.owner[0] == 1

    def test_empty_fleet(self):
        msd = np.random.default_rng(0).uniform(-10, 10, (5, 2))
        asg = match(msd, np.zeros((0, 2)), H, np.zeros(0, bool), R)
        assert np.all(asg.owner == -1)
        assert asg.coverage_ratio == 0.0

    def test_matches_nearest_in_range_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            n_msd = int(rng.integers(1, 15))
            n_map = int(rng.integers(1, 10))
            msd = rng.uniform(-40, 40, (n_msd, 2))
            maps = rng.uniform(-40, 40, (n_map, 2))
            alive = rng.random(n_map) > 0.25
            asg = match(msd, maps, H, alive, R)
            for i in range(n_msd):
                dists = np.sqrt(((msd[i] - maps) ** 2).sum(1) + H * H)
                candidates = [j for j in range(n_map) if alive[j] and dists[j] <= R]
                if not candidates:
                    assert asg.owner[i] == -1
                else:
                    # strictly decreasing score => nearest in range, lowest id on ties
                    best = min(candidates, key=lambda j: (dists[j], j))
                    assert asg.owner[i] == best

    def test_argmax_invariant_under_rho_eta(self):
        # the nearest in-range agent is the best-power one for every power model
        rng = np.random.default_rng(5)
        msd = rng.uniform(-30, 30, (40, 2))
        maps = rng.uniform(-30, 30, (8, 2))
        alive = np.ones(8, bool)
        base = match(msd, maps, H, alive, R)
        for rho, eta in [(0.01, 3.5), (100.0, 3.5), (1.0, 2.0), (7.0, 5.0)]:
            other = power_score_assign(msd, maps, H, alive, rho, eta, R)
            np.testing.assert_array_equal(base.owner, other.owner)

    def test_tie_break_lowest_id(self):
        msd = np.array([[0.0, 0.0]])
        maps = np.array([[6.0, 0.0], [-6.0, 0.0]])
        asg = match(msd, maps, H, np.ones(2, bool), R)
        assert asg.owner[0] == 0

    def test_load_sum_matches_assigned(self):
        rng = np.random.default_rng(8)
        msd = rng.uniform(-50, 50, (200, 2))
        maps = rng.uniform(-50, 50, (12, 2))
        asg = match(msd, maps, H, np.ones(12, bool), R)
        assert asg.loads.sum() == np.count_nonzero(asg.owner >= 0)
        assert asg.coverage_ratio == asg.loads.sum() / 200

    def test_coverage_non_increasing_under_map_removal(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            msd = rng.uniform(-40, 40, (60, 2))
            maps = rng.uniform(-40, 40, (6, 2))
            alive = np.ones(6, bool)
            full = match(msd, maps, H, alive, R)
            kill = int(rng.integers(0, 6))
            alive2 = alive.copy()
            alive2[kill] = False
            reduced = match(msd, maps, H, alive2, R)
            assert reduced.coverage_ratio <= full.coverage_ratio + 1e-12

    def test_bad_params(self):
        with pytest.raises(ValueError):
            match(np.zeros((1, 2)), np.zeros((1, 2)), H, np.ones(1, bool), 0.0)


class TestUsersTableReach:
    """The users' tree is not tied to a reach: one tree, built once, serves
    every flight height and communication range."""

    def test_one_tree_serves_every_height_and_range(self):
        rng = np.random.default_rng(31)
        msd, maps = rng.normal(0.0, 15.0, (300, 2)), rng.uniform(-40, 40, (12, 2))
        alive = np.ones(12, bool)
        users, agents = user_table(msd), agent_tree(maps, alive)
        for height in (3.0, H):
            for comm_range in (R, 30.0):
                got = assign_msds(users, agents, alive, height, comm_range)
                want = dense_assign_msds(msd, maps, height, alive, comm_range)
                np.testing.assert_array_equal(got.owner, want.owner)
                np.testing.assert_array_equal(got.loads, want.loads)
                assert got.coverage_ratio == want.coverage_ratio > 0


class TestPowerScoreOracle:
    """The squared-distance matcher against the received-power matcher it replaced."""

    def check(self, msd, maps, alive, height, comm_range):
        got = match(msd, maps, height, alive, comm_range)
        want = power_score_assign(msd, maps, height, alive, 1.0, 3.5, comm_range)
        np.testing.assert_array_equal(got.owner, want.owner)
        np.testing.assert_array_equal(got.loads, want.loads)
        assert got.coverage_ratio == want.coverage_ratio
        return got

    def test_random_snapshots(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n_map = int(rng.integers(1, 30))
            msd = rng.uniform(-60, 60, (int(rng.integers(1, 200)), 2))
            maps = rng.uniform(-60, 60, (n_map, 2))
            alive = rng.random(n_map) > 0.2
            self.check(msd, maps, alive, H, R)

    def test_grid_aligned_exact_ties(self):
        # users and agents on a 1 m lattice: many users sit at exactly the same
        # squared distance from two or more agents, and agents may coincide
        rng = np.random.default_rng(22)
        ties = 0
        for _ in range(100):
            n_map = int(rng.integers(2, 12))
            maps = rng.integers(-12, 13, (n_map, 2)).astype(float)
            msd = rng.integers(-16, 17, (200, 2)).astype(float)
            alive = rng.random(n_map) > 0.2
            asg = self.check(msd, maps, alive, H, R)
            d2 = ((msd[:, None, :] - maps[None, :, :]) ** 2).sum(axis=2)
            d2[:, ~alive] = np.inf
            nearest = d2.min(axis=1, keepdims=True)
            tied = (asg.owner >= 0) & ((d2 == nearest).sum(axis=1) > 1)
            ties += int(tied.sum())
            assert (asg.owner[tied] == np.argmax(d2[tied] == nearest[tied], axis=1)).all()
        assert ties > 100

    def test_users_on_range_boundary(self):
        # height 20 m and range 25 m: a horizontal offset of 15 m puts a user at
        # exactly 25 m, since 15^2 + 20^2 = 25^2 holds in floating point
        height, comm_range = 20.0, 25.0
        maps = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 200.0]])
        on_edge = np.array([[15.0, 0.0], [-15.0, 0.0], [0.0, 15.0], [-9.0, 12.0],
                            [12.0, -9.0], [45.0, 0.0], [30.0, -15.0]])
        outside = np.array([[-15.000001, 0.0], [0.0, -15.000001], [0.0, 184.99999]])
        msd = np.concatenate([on_edge, outside])
        asg = self.check(msd, maps, np.ones(3, bool), height, comm_range)
        # (15, 0) is on the edge of both agent 0 and agent 1: the lower id wins
        np.testing.assert_array_equal(asg.owner, [0, 0, 0, 0, 0, 1, 1, -1, -1, -1])
        asg = self.check(msd, maps, np.array([False, True, True]), height, comm_range)
        np.testing.assert_array_equal(asg.owner, [1, -1, -1, -1, -1, 1, 1, -1, -1, -1])


def owned(owners):
    owners = np.asarray(owners)
    return Assignment(owner=owners,
                      loads=np.bincount(owners[owners >= 0], minlength=3),
                      coverage_ratio=float(np.mean(owners >= 0)) if len(owners) else 0.0)


class TestGoalCoverage:
    """Coverage of a cluster: the share of its users assigned to any agent."""

    def one_cluster(self, owners):
        return cluster_coverages(owned(owners), np.zeros(len(owners), dtype=int),
                                 np.array([len(owners)]))

    def test_all_assigned(self):
        assert self.one_cluster([0, 1, 0, 2])[0] == 1.0

    def test_none_assigned(self):
        assert self.one_cluster([-1, -1])[0] == 0.0

    def test_exact_boundary_value(self):
        rg = self.one_cluster([0] * 475 + [-1] * 25)[0]
        assert rg == 0.95
        # mode switching requires strictly greater than the threshold
        assert not rg > 0.95

    def test_unknown_cluster(self):
        # exactly one entry per cluster id, also for a trailing cluster
        # with no user covered
        out = cluster_coverages(owned([0, -1]), np.array([0, 1]), np.array([1, 1]))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_cluster_coverages_indexing(self):
        out = cluster_coverages(owned([0, -1, 0, 0]), np.array([0, 0, 1, 1]), np.array([2, 2]))
        np.testing.assert_allclose(out, [0.5, 1.0])


class TestClusterCoveragesOracle:
    """The bincount ratio equals the cluster-by-cluster scan exactly."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_owners(self, seed):
        rng = np.random.default_rng(seed)
        n_clusters = int(rng.integers(1, 8))
        sizes = rng.integers(1, 600, n_clusters)
        msd_cluster = np.repeat(np.arange(n_clusters), sizes)
        owners = rng.integers(-1, 5, msd_cluster.size)
        # one cluster with no user covered, one with every user covered
        owners[msd_cluster == 0] = -1
        owners[msd_cluster == n_clusters - 1] = rng.integers(0, 5)
        asg = owned(owners)
        got = cluster_coverages(asg, msd_cluster, sizes)
        expect = scan_cluster_coverages(asg, msd_cluster, n_clusters)
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)
