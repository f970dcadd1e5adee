"""Graph analytics over the aerial network.

Adjacency uses the 0/1 disk model (alive agents within communication
range), held as the int32 CSR arrays ``(indptr, indices)`` that
``world.adjacency_matrix`` builds once per observation; components and the
Laplacian read those arrays as they are. Connectivity is summarized by the
Fiedler value, the second-smallest eigenvalue of the graph Laplacian, which
is positive exactly when the graph is connected. The inter-cluster relay
structure is a Euclidean minimum spanning tree over the centroids of
covered clusters.
"""

import numpy as np
from scipy.sparse import csgraph, csr_matrix


def connected_components(n, indptr, indices):
    """Component label per node: 0..n_components-1, in the order of each
    component's smallest node.

    The graph on nodes 0..n-1 is given by its CSR arrays, as
    ``world.adjacency_matrix`` builds them; ``scipy.sparse.csgraph`` labels
    the CSR matrix that wraps them. The graph must be symmetric: each strong
    component is then an undirected one, and the directed (Pearce) labels,
    in the same smallest-node order, skip the undirected path's transpose.
    """
    graph = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    return csgraph.connected_components(graph, directed=True, connection="strong")[1].astype(int)


def fiedler_value(adjacency, labels):
    """Second-smallest Laplacian eigenvalue, at least 0; exactly 0 when disconnected.

    The graph is given by its CSR arrays ``(indptr, indices)`` and its
    :func:`connected_components` labels, as ``sim.Observation`` holds them;
    ``L = D - A`` is filled in from the arrays. Fewer than two nodes give 0.
    Disconnectedness is read from the labels (component count), not from a
    thresholded eigenvalue, so the zero is exact.
    """
    n = labels.size
    if n < 2 or labels.max() > 0:
        return 0.0
    indptr, indices = adjacency
    degree = np.diff(indptr)
    # each pair's flat index r * n + c: one pair-sized array, where indexing
    # by (rows, indices) would add an intp copy of the int32 indices
    flat = np.repeat(np.arange(0, n * n, n), degree)
    flat += indices
    lap = np.zeros((n, n))
    lap.reshape(-1)[flat] = -1.0
    del flat
    np.fill_diagonal(lap, degree)
    return max(float(np.linalg.eigvalsh(lap)[1]), 0.0)


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
