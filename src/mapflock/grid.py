"""Candidate pairs from a hashed cell table (the cell list of molecular dynamics).

Points are binned into square cells at least the reach wide; a query meets
the points of its own cell and of the eight cells around it. Every pair
within the reach is a candidate; so are some pairs beyond it, which the
caller's own range test removes.

Cells are not stored densely: a cell's integer coordinates are hashed into
a power-of-two table of buckets (Teschner et al., "Optimized Spatial
Hashing for Collision Detection of Deformable Objects", VMV 2003), about
``BUCKETS_PER_POINT`` per point, so memory is linear in the point count for
any spread of the points. The points are counted into the buckets once: a
stable argsort of their bucket ids orders them, and the cumulative
``bincount`` gives each bucket's start, so a query reads bucket ``b``
directly as ``order[start[b]:start[b + 1]]``. Cells that share a bucket
add candidates; a bucket that two cells of one query's 3x3 block share is
read once, so no pair comes twice.

A table's frame is its own points': cells are counted from their lowest
coordinates, exactly up to ``MAX_CELLS`` cells per axis. Coordinates
beyond that window, far outliers and far queries, are clipped in floating
point to an edge cell before the integer cast; the window is re-centred
on the median when the points spread wider than it, so one far point
cannot crowd the others into an edge cell.
"""

from dataclasses import dataclass

import numpy as np

# a power-of-two table of at least this many buckets per point, and at least 16
BUCKETS_PER_POINT = 8
MIN_BUCKET_BITS = 4
# cells per axis in the exact window: there the rounding error of a difference
# of two (x - origin) / side stays below 2**28 * 2**-51 = 2**-23 cells, far
# inside SIDE_MARGIN
MAX_CELLS = 2 ** 28
# a relative margin on the cell side: the rounding of (x - origin) / side cannot
# put two points that the caller's rounded range test admits two cells apart
SIDE_MARGIN = 1e-6
# cells -2..MAX_CELLS and their neighbours, shifted to 0..MAX_CELLS + 4, give each
# cell of a block its own int64 key
_ROW = MAX_CELLS + 5
_BLOCK = np.array([a * _ROW + b for a in (-1, 0, 1) for b in (-1, 0, 1)])
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)     # Fibonacci hashing: 2**64 / golden ratio


def _keys(points, origin, side):
    """The int64 key of each point's cell, clipped to the window's edge cells."""
    u = (points - origin) / side
    cells = np.floor(np.clip(u, -2.0, MAX_CELLS, out=u), out=u).astype(np.int64)
    return cells[:, 0] * _ROW + cells[:, 1] + (3 * _ROW + 3)


def _buckets(keys, shift):
    return ((keys.view(np.uint64) * _GOLDEN) >> shift).view(np.intp)


@dataclass
class CellTable:
    """Points counted into the hashed buckets of their cells."""

    bounds: np.ndarray      # (2, 2) lowest and highest coordinates of the points
    origin: np.ndarray      # (2,) the corner of cell (0, 0)
    side: float
    shift: np.uint64        # a key's bucket is the top 64 - shift bits of its hash
    keys: np.ndarray        # the cell key of each point
    order: np.ndarray       # point ids grouped by bucket, ascending within one
    start: np.ndarray       # offset of each bucket in `order`
    count: np.ndarray       # points in each bucket

    def pairs(self, queries=None):
        """Index pairs ``(q, p)``, grouped by query, that include every pair of
        a query and a point within the reach the table was built for; None
        queries the table's own points."""
        keys = self.keys if queries is None else _keys(queries, self.origin, self.side)
        buckets = np.sort(_buckets(keys[:, None] + _BLOCK, self.shift), axis=1)
        start, count = self.start[buckets], self.count[buckets]
        count[:, 1:][buckets[:, 1:] == buckets[:, :-1]] = 0   # a shared bucket is read once
        start, count = start.ravel(), count.ravel()
        end = np.cumsum(count)
        # pair k of block b sits at start[b] + (k - first pair of b) in `order`
        pos = np.arange(end[-1] if end.size else 0) + np.repeat(start - end + count, count)
        return np.repeat(np.arange(len(keys)).repeat(9), count), self.order[pos]


def cell_table(points, reach):
    """Count the (n, 2) finite `points` into cells of side `reach`,
    widened by ``SIDE_MARGIN`` (side 1 when the reach is 0)."""
    side = reach * (1.0 + SIDE_MARGIN) or 1.0
    lo = hi = (0.0, 0.0)      # the frame of an empty table, which no query meets
    if len(points):
        # column by column: numpy reduces an (n, 2) array over axis 0 several times slower
        lo = (points[:, 0].min(), points[:, 1].min())
        hi = (points[:, 0].max(), points[:, 1].max())
    bounds = np.array([lo, hi])
    origin = bounds[0]
    if max(hi[0] - lo[0], hi[1] - lo[1]) > MAX_CELLS * side:
        origin = np.maximum(origin, np.median(points, axis=0) - MAX_CELLS / 2 * side)
    bits = max(MIN_BUCKET_BITS, int(BUCKETS_PER_POINT * len(points) - 1).bit_length())
    shift = np.uint64(64 - bits)
    keys = _keys(points, origin, side)
    buckets = _buckets(keys, shift)
    count = np.bincount(buckets, minlength=1 << bits)
    return CellTable(bounds=bounds, origin=origin, side=side, shift=shift, keys=keys,
                     order=np.argsort(buckets, kind="stable"),
                     start=np.cumsum(count) - count, count=count)

