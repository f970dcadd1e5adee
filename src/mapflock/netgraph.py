"""Graph analytics over the aerial network.

Adjacency uses the 0/1 disk model (alive agents within communication
range), held as the sorted int32 pairs ``(rows, cols)``, ``rows < cols``,
that ``world.adjacency_matrix`` builds once per observation. The force
kernel reads the pairs as they are. The component labels cost a symmetric
CSR build and a scipy call, so they are computed only for a consumer that
needs them, and at most once per observation (``sim.Observation.labels``).
Connectivity is summarized by the Fiedler value, the second-smallest
eigenvalue of the graph Laplacian, which is positive exactly when the graph
is connected. The inter-cluster relay structure is a Euclidean minimum
spanning tree over the centroids of covered clusters, built by Prim's
algorithm.
"""

import numpy as np
from scipy.sparse import csgraph, csr_matrix


def connected_components(n, rows, cols):
    """Component label per node, as scipy's int32: 0..n_components-1, in the
    order of each component's smallest node.

    The graph on nodes 0..n-1 is given by its pairs, as
    ``world.adjacency_matrix`` builds them. Its symmetric CSR form, both
    directions of each pair with every row's columns ascending, is labelled
    by ``scipy.sparse.csgraph``: each strong component of a symmetric graph
    is an undirected one, and the directed (Pearce) labels, in the same
    smallest-node order, skip the undirected path's transpose.
    """
    # the row-major key r * n + c of each pair in both directions; the keys are
    # unique, so row r's sorted keys start at the first key at or above r * n
    key = np.concatenate([rows, cols], dtype=np.intp)
    key *= n
    key += np.concatenate([cols, rows])
    key.sort()
    # int32: scipy scans wider index arrays for their range, then casts them down
    indptr = key.searchsorted(np.arange(n + 1) * n).astype(np.int32)
    indices = np.remainder(key, n, out=key).astype(np.int32)
    graph = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    return csgraph.connected_components(graph, directed=True, connection="strong")[1]


def fiedler_value(n, adjacency, labels):
    """Second-smallest Laplacian eigenvalue, at least 0; exactly 0 when disconnected.

    The graph on `n` nodes is given by its pairs ``(rows, cols)``, as
    ``sim.Observation`` holds them, and `labels`, a function that returns
    its :func:`connected_components` labels. The pairs alone prove the graph
    disconnected when n < 2, when there are fewer than n - 1 pairs or when a
    node is in no pair; only otherwise are the labels asked for.
    Disconnectedness is read from the pairs or the labels, not from a
    thresholded eigenvalue, so the zero is exact. ``L = D - A`` is filled in
    from the pairs.
    """
    rows, cols = adjacency
    if n < 2 or rows.size < n - 1:
        return 0.0
    degree = np.bincount(rows, minlength=n)
    degree += np.bincount(cols, minlength=n)
    if not degree.all() or labels().max() > 0:
        return 0.0
    lap = np.zeros((n, n))
    lap[rows, cols] = lap[cols, rows] = -1.0
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
