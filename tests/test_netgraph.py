import numpy as np
import pytest

from mapflock.netgraph import cluster_mst, connected_components, fiedler_value
from mapflock.world import adjacency_matrix, agent_tree
from oracles import (
    brute_force_mst_weight,
    brute_force_spanning_tree,
    dense_fiedler_value,
    dense_laplacian,
    directed_pairs,
    upper_pairs,
)


def random_adjacency(rng, n, p=0.3):
    adj = (rng.random((n, n)) < p).astype(float)
    adj = np.triu(adj, 1)
    return adj + adj.T


def alive_graph(map_pos, alive, comm_range):
    """0/1 adjacency over the alive agents only, and their global ids."""
    ids = np.flatnonzero(alive)
    adj = np.zeros((len(ids), len(ids)))
    adj[directed_pairs(*adjacency_matrix(agent_tree(map_pos, alive), comm_range))] = 1.0
    return adj, ids


def components(adj):
    """Component labels of a dense adjacency matrix."""
    return connected_components(len(adj), *upper_pairs(adj))


def fiedler(adj):
    """The library's Fiedler value of a dense adjacency matrix, handed over
    as the simulation holds the graph: its pairs, and a function that gives
    its component labels."""
    return fiedler_value(len(adj), upper_pairs(adj), lambda: components(adj))


def path(n):
    adj = np.zeros((n, n))
    adj[np.arange(n - 1), np.arange(1, n)] = adj[np.arange(1, n), np.arange(n - 1)] = 1.0
    return adj


def star(n):
    adj = np.zeros((n, n))
    adj[0, 1:] = adj[1:, 0] = 1.0
    return adj


def complete(n):
    return np.ones((n, n)) - np.eye(n)


def with_isolated_agent(adj, at):
    """`adj` with one more node, in no pair, inserted at index `at`."""
    return np.insert(np.insert(adj, at, 0.0, axis=0), at, 0.0, axis=1)


class TestBuildGraph:
    """The aerial graph as the simulation measures it: the pairs of
    ``world.adjacency_matrix`` over the alive agents."""

    def test_empty(self):
        adj, ids = alive_graph(np.zeros((3, 2)), np.zeros(3, bool), 24.0)
        assert adj.shape == (0, 0)
        assert len(ids) == 0

    def test_path_graph_boundary_inclusive(self):
        pos = np.array([[0.0, 0.0], [24.0, 0.0], [48.0, 0.0]])
        adj, ids = alive_graph(pos, np.ones(3, bool), 24.0)
        expect = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(adj, expect)
        np.testing.assert_array_equal(ids, [0, 1, 2])

    def test_dead_rows_dropped(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        alive = np.array([True, False, True])
        adj, ids = alive_graph(pos, alive, 24.0)
        assert adj.shape == (2, 2)
        np.testing.assert_array_equal(ids, [0, 2])
        assert adj[0, 1] == 1.0
        rows, cols = directed_pairs(*adjacency_matrix(agent_tree(pos, alive), 24.0))
        assert 1 not in ids[rows] and 1 not in ids[cols]

    def test_laplacian_invariants_random_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            pos = rng.uniform(-60, 60, size=(n, 2))
            alive = rng.random(n) > 0.2
            adj, _ = alive_graph(pos, alive, float(rng.uniform(10, 50)))
            lap = dense_laplacian(adj)
            np.testing.assert_array_equal(adj, adj.T)
            assert np.all(np.diag(adj) == 0)
            np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
            # positive semidefinite
            if len(lap):
                assert np.linalg.eigvalsh(lap)[0] >= -1e-9


class TestFiedlerValue:
    def test_tiny_graphs_are_zero(self):
        assert fiedler(np.zeros((0, 0))) == 0.0
        assert fiedler(np.zeros((1, 1))) == 0.0

    def test_disconnected_exactly_zero(self):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        assert fiedler(adj) == 0.0

    def test_path_p3(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert fiedler(adj) == pytest.approx(1.0, abs=1e-9)

    def test_complete_k4(self):
        adj = np.ones((4, 4)) - np.eye(4)
        assert fiedler(adj) == pytest.approx(4.0, abs=1e-9)

    def test_positive_iff_connected(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            adj = random_adjacency(rng, int(rng.integers(2, 15)))
            connected = components(adj).max() == 0
            assert (fiedler(adj) > 0) == connected

    def test_matches_dense_eigendecomposition_oracle(self):
        rng = np.random.default_rng(32)
        sizes = [int(rng.integers(2, 30)) for _ in range(40)] + [150]
        for n in sizes:
            adj = random_adjacency(rng, n)
            got = fiedler(adj)
            # independent oracle: general (non-symmetric) eigensolver on L
            eig = np.sort(np.linalg.eigvals(dense_laplacian(adj)).real)
            expect = eig[1] if components(adj).max() == 0 else 0.0
            assert got == pytest.approx(expect, abs=1e-7)

    def test_known_labels_give_identical_value(self):
        # the Laplacian filled in from the pairs holds the same floats as the
        # dense D - A, so eigvalsh returns the very same value
        rng = np.random.default_rng(34)
        for n in [0, 1, 2] + [int(rng.integers(2, 30)) for _ in range(40)]:
            adj = random_adjacency(rng, n, p=float(rng.uniform(0.05, 0.6)))
            assert fiedler(adj) == dense_fiedler_value(adj)

    @pytest.mark.parametrize("adj", [np.zeros((0, 0)), np.zeros((1, 1)), np.zeros((2, 2)),
                                     path(2), path(3), path(7), star(4), star(9), complete(2),
                                     complete(5), with_isolated_agent(path(5), 0),
                                     with_isolated_agent(star(5), 3),
                                     with_isolated_agent(complete(6), 6)],
                             ids=["n0", "n1", "n2 apart", "n2 pair", "path3", "path7", "star4",
                                  "star9", "k2", "k5", "path5 isolated first",
                                  "star5 isolated inside", "k6 isolated last"])
    def test_labels_asked_only_when_pairs_allow_a_connected_graph(self, adj):
        # n < 2, fewer than n - 1 pairs or an agent in no pair prove the graph
        # disconnected: 0.0 without labels; otherwise the labels decide
        n, asked = len(adj), []
        pairs = upper_pairs(adj)

        def labels():
            asked.append(n)
            return components(adj)

        got = fiedler_value(n, pairs, labels)
        assert got == dense_fiedler_value(adj)
        proven = n < 2 or pairs[0].size < n - 1 or not (adj.sum(axis=1) > 0).all()
        assert asked == ([] if proven else [n])
        assert (got == 0.0) == proven

    def test_edge_addition_never_decreases(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            adj = random_adjacency(rng, n)
            absent = [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j] == 0]
            if not absent:
                continue
            i, j = absent[int(rng.integers(len(absent)))]
            more = adj.copy()
            more[i, j] = more[j, i] = 1.0
            assert fiedler(more) >= fiedler(adj) - 1e-9


def mst_weight(edges):
    return sum(length for _, _, length in edges)


class TestClusterMst:
    def test_fewer_than_two(self):
        assert cluster_mst([], np.zeros((0, 2))) == []
        assert cluster_mst([0], np.zeros((1, 2))) == []

    def test_two_clusters_single_edge(self):
        centroids = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert cluster_mst([0, 1], centroids) == [(0, 1, 100.0)]

    def test_collinear_uses_adjacent_edges(self):
        centroids = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        tree = cluster_mst([0, 1, 2], centroids)
        assert sorted((a, b) for a, b, _ in tree) == [(0, 1), (1, 2)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            centroids = rng.uniform(-100, 100, size=(k, 2))
            ids = list(range(k))
            tree = cluster_mst(ids, centroids)
            assert len(tree) == k - 1
            assert mst_weight(tree) == pytest.approx(
                brute_force_mst_weight(ids, centroids), rel=1e-9)

    def test_acyclic_and_spanning(self):
        rng = np.random.default_rng(42)
        centroids = rng.uniform(-100, 100, size=(6, 2))
        tree = cluster_mst(range(6), centroids)
        seen = set()
        parent = {i: i for i in range(6)}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b, _ in tree:
            assert find(a) != find(b)   # no cycle
            parent[find(a)] = find(b)
            seen.update((a, b))
        assert seen == set(range(6))

    def test_weight_invariant_under_permutation(self):
        rng = np.random.default_rng(43)
        centroids = rng.uniform(-100, 100, size=(7, 2))
        base = mst_weight(cluster_mst(range(7), centroids))
        for _ in range(5):
            perm = rng.permutation(7)
            assert mst_weight(cluster_mst(list(perm), centroids)) == pytest.approx(base)

    def test_deterministic_tie_break(self):
        # unit square: four side edges tie at length 1
        centroids = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tree = cluster_mst([0, 1, 2, 3], centroids)
        assert [(a, b) for a, b, _ in tree] == [(0, 1), (0, 2), (1, 3)]

    def test_lattice_ties_match_brute_force(self):
        # lattice centroids tie most edge lengths, and the ids are permuted
        # subsets: the (length, id_a, id_b) order decides the tree and its order
        rng = np.random.default_rng(44)
        lattice = np.array([(x, y) for x in range(3) for y in range(3)], float)
        for _ in range(150):
            centroids = lattice[rng.permutation(9)] * rng.choice([1.0, 24.0, 0.1])
            ids = rng.permutation(9)[:int(rng.integers(0, 7))].tolist()
            assert cluster_mst(ids, centroids) == brute_force_spanning_tree(ids, centroids)
