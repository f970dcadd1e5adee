"""Candidate pairs from a uniform cell grid (the cell list of molecular dynamics).

Points are binned into square cells over the bounding box of the snapshot;
a query meets the sites of its own cell and of the eight cells around it.
Every pair within the reach is a candidate; so are some pairs beyond it,
which the caller's own range test removes.
"""

import numpy as np

# per axis, so that the keys stay below 2**42 for any finite coordinates
MAX_CELLS = 2 ** 20
# a relative margin on the cell side: the rounding of (x - origin) / side cannot
# put two points that the caller's rounded range test admits two cells apart
SIDE_MARGIN = 1e-6
_OFFSETS = np.array([-1, 0, 1])


def candidate_pairs(queries, sites, reach):
    """Index pairs ``(q, s)`` that include every query-site pair within `reach`.

    `queries` (N, 2) and `sites` (S, 2) must be finite. Cells have side
    ``max(reach, span / 2**20)``, widened by ``SIDE_MARGIN``, where span is
    the larger side of the bounding box of both sets: never below the reach,
    so the candidate set is a superset, and at most 2**20 cells per axis.
    Pairs come grouped by query, and by ascending site id within a cell.
    """
    both = np.concatenate([queries, sites])
    # column by column: numpy reduces an (n, 2) array over axis 0 several times slower
    lo = np.array([both[:, 0].min(), both[:, 1].min()])
    span = float(max(both[:, 0].max() - lo[0], both[:, 1].max() - lo[1]))
    side = max(reach, span / MAX_CELLS) * (1.0 + SIDE_MARGIN) or 1.0
    row = MAX_CELLS + 2                     # cells 1..MAX_CELLS, neighbours 0..MAX_CELLS + 1

    def cells(points):
        return np.floor((points - lo) / side).astype(np.int64) + 1

    site_cells = cells(sites)
    site_keys = site_cells[:, 0] * row + site_cells[:, 1]
    order = np.argsort(site_keys, kind="stable")
    sorted_keys = site_keys[order]

    query_cells = cells(queries)
    keys = ((query_cells[:, 0, None] + _OFFSETS) * row)[:, :, None] \
        + (query_cells[:, 1, None] + _OFFSETS)[:, None, :]         # (N, 3, 3)
    keys = keys.reshape(len(queries), 9)
    start = np.searchsorted(sorted_keys, keys, side="left").ravel()
    count = np.searchsorted(sorted_keys, keys, side="right").ravel() - start
    total = int(count.sum())
    # pair k of block b sits at start[b] + (k - first pair of b) in `order`
    first = np.cumsum(count) - count
    pos = np.arange(total) + np.repeat(start - first, count)
    return np.repeat(np.arange(len(queries)).repeat(9), count), order[pos]
