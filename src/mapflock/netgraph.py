"""Graph analytics over the aerial network.

Adjacency uses the 0/1 disk model (alive agents within communication
range); connectivity is summarized by the Fiedler value, the
second-smallest eigenvalue of the graph Laplacian, which is positive
exactly when the graph is connected. The inter-cluster relay structure is
a Euclidean minimum spanning tree over the centroids of covered clusters.
"""

import numpy as np
from scipy.sparse import csgraph, csr_matrix


def connected_components(n, rows, cols):
    """Component label per node: 0..n_components-1, in the order of each
    component's smallest node.

    The graph on nodes 0..n-1 is given by its pairs ``(rows, cols)`` as
    ``np.nonzero`` of its symmetric matrix gives them; they are read as the
    graph's CSR matrix, which ``scipy.sparse.csgraph`` labels. The pairs must
    be symmetric, as ``world.adjacency_matrix`` emits them: each strong
    component is then an undirected one, and the directed (Pearce) labels,
    in the same smallest-node order, skip the undirected path's transpose.
    """
    # the matrix holds int32 indices whenever they fit; handing them over as
    # int32 spares it a scan and a copy of both index arrays
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    graph = csr_matrix((np.ones(rows.size), cols.astype(np.int32), indptr), shape=(n, n))
    return csgraph.connected_components(graph, directed=True, connection="strong")[1].astype(int)


def fiedler_value(adjacency, labels):
    """Second-smallest Laplacian eigenvalue, at least 0; exactly 0 when disconnected.

    The graph is given by its symmetric pairs ``(rows, cols)`` and its
    :func:`connected_components` labels, as ``sim.Observation`` holds them;
    ``L = D - A`` is filled in from the pairs. Fewer than two nodes give 0.
    Disconnectedness is read from the labels (component count), not from a
    thresholded eigenvalue, so the zero is exact.
    """
    n = labels.size
    if n < 2 or labels.max() > 0:
        return 0.0
    lap = np.zeros((n, n))
    lap[adjacency] = -1.0
    np.fill_diagonal(lap, np.bincount(adjacency[0], minlength=n))
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
