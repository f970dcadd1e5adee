"""Graph analytics over the aerial network.

Adjacency uses the 0/1 disk model (alive agents within communication
range); connectivity is summarized by the Fiedler value, the
second-smallest eigenvalue of the graph Laplacian, which is positive
exactly when the graph is connected. The inter-cluster relay structure is
a Euclidean minimum spanning tree over the centroids of covered clusters.
"""

import numpy as np


def laplacian(adjacency):
    """L = D - A for a symmetric 0/1 adjacency matrix."""
    return np.diag(adjacency.sum(axis=1)) - adjacency


def connected_components(adjacency):
    """Component label per node: 0..n_components-1, in the order of each
    component's smallest node.

    The neighbour lists come from one pass over the nonzero entries (a flat
    scan, several times faster than np.nonzero on a 2-D array); the walk is
    depth first from each unlabelled node, in id order.
    """
    n = len(adjacency)
    rows, cols = np.divmod(np.flatnonzero(adjacency), n)
    start = np.searchsorted(rows, np.arange(n + 1)).tolist()
    neighbours = cols.tolist()
    labels = [-1] * n
    current = 0
    for root in range(n):
        if labels[root] >= 0:
            continue
        stack = [root]
        labels[root] = current
        while stack:
            node = stack.pop()
            for nb in neighbours[start[node]:start[node + 1]]:
                if labels[nb] < 0:
                    labels[nb] = current
                    stack.append(nb)
        current += 1
    return np.array(labels, dtype=int)


def fiedler_value(adjacency, tol=1e-9, labels=None):
    """Second-smallest Laplacian eigenvalue; exactly 0 when disconnected.

    Graphs with fewer than two nodes are defined to have value 0.
    Disconnectedness is decided combinatorially (component count), not by
    eigenvalue thresholding, so the zero is exact. `labels`, if given, are
    the graph's :func:`connected_components` labels: they are not computed
    again, and the graph is taken to be symmetric, as its builder made it.
    """
    n = len(adjacency)
    if n < 2:
        return 0.0
    if labels is None:
        adjacency = np.asarray(adjacency, dtype=float)
        if not np.allclose(adjacency, adjacency.T):
            raise ValueError("adjacency matrix must be symmetric")
        labels = connected_components(adjacency)
    if labels.max() > 0:
        return 0.0
    eigvals = np.linalg.eigvalsh(laplacian(np.asarray(adjacency, dtype=float)))
    lam2 = float(eigvals[1])
    return lam2 if lam2 > tol else max(lam2, 0.0)


def cluster_mst(cluster_ids, centroids):
    """Euclidean minimum spanning tree over the given covered clusters.

    Kruskal with edges ordered by (length, id, id): deterministic under
    ties and under input permutation. Returns a list of
    ``(id_a, id_b, length)`` with ``id_a < id_b``; fewer than two clusters
    yield an empty tree.
    """
    ids = sorted(int(c) for c in cluster_ids)
    if len(ids) < 2:
        return []
    edges = []
    for ai in range(len(ids)):
        for bi in range(ai + 1, len(ids)):
            a, b = ids[ai], ids[bi]
            length = float(np.hypot(*(np.asarray(centroids[a], float)
                                      - np.asarray(centroids[b], float))))
            edges.append((length, a, b))
    edges.sort()
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for length, a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append((a, b, length))
            if len(tree) == len(ids) - 1:
                break
    return tree
