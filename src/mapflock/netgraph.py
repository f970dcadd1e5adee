"""Graph analytics over the aerial network.

Adjacency uses the 0/1 disk model (alive agents within communication
range), held as the int32 CSR arrays ``(indptr, indices)`` that
``world.adjacency_matrix`` builds once per observation; components and the
Laplacian read those arrays as they are. Connectivity is summarized by the
Fiedler value, the second-smallest eigenvalue of the graph Laplacian, which
is positive exactly when the graph is connected. The inter-cluster relay
structure is a Euclidean minimum spanning tree over the centroids of
covered clusters, built by Prim's algorithm.
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

    Prim's algorithm over edges ordered by (length, id_a, id_b): the order
    is strict, so the tree is unique under ties and under input
    permutation, and is the one Kruskal's algorithm builds. Returns a list
    of ``(id_a, id_b, length)`` with ``id_a < id_b``, sorted by that order;
    repeated ids count once, and fewer than two clusters yield an empty tree.
    """
    def edge(a, b):
        a, b = min(a, b), max(a, b)
        return float(np.hypot(*(np.asarray(centroids[a], float)
                                - np.asarray(centroids[b], float)))), a, b

    ids = sorted({int(c) for c in cluster_ids})
    reach = {c: edge(ids[0], c) for c in ids[1:]}   # each id's cheapest edge into the tree
    tree = []
    while reach:
        c = min(reach, key=reach.get)
        tree.append(reach.pop(c))
        for other in reach:
            reach[other] = min(reach[other], edge(c, other))
    return [(a, b, length) for length, a, b in sorted(tree)]
