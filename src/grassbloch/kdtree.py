"""Balanced space-partitioning tree for exact nearest-neighbor search in 3-space.

The tree is built level by level with no recursion. A segment of more than
leaf_size points splits on the axis of its widest spread, after a stable sort
on that axis, at its middle point, whose coordinate is the split value. Ties
with the split value can fall on either side (the stable sort keeps equal
coordinates in position order), so a split only promises left <= split <=
right. One level's spreads come from `reduceat` over its segments. Every axis
is ranked once, equal coordinates sharing a rank, so the stable sorts of all of
one level's segments are one stable sort of the integer keys
segment * n + rank. The node arrays are numbered as a heap: node i's children
are 2i + 1 and 2i + 2, so a tree of depth h has 2^(h+1) - 1 slots. When leaf
depths differ, the slots below the shallower leaves stay unused (split_dim -1,
start and end -1, count 0), and no query reaches them.

Queries return exactly what a linear scan would, including the tie rule (equal
distances resolve to the lowest point index), and report how many point
distances and scalar comparisons each lookup performed.

Every leaf row lists its points in index order, so a leaf visit is one argmin:
the first least distance in a row has the lowest index.

A batch is searched in lockstep, each query doing the steps of the
one-at-a-time depth-first walk. That walk keeps a stack of (node, bound)
entries. A split pushes the far child with bound s^2, s being the query's
offset from the split value along the split axis, and then the near child with
bound -inf, and an entry is visited only while its bound does not exceed the
query's best squared distance. s^2 bounds the far child's distances from below
even with ties: a query at s < 0 goes left, and every right point lies at or
above the split value; a query at s >= 0 goes right, and every left point lies
at or below it. The near child is always live and popped next, so each round
of the batch descends every active query from its node to a leaf, one flat
gather of q per level, pushing only the far children. The first round starts
every query at the root. All the leaves reached are then visited in one call,
and each query pops its topmost live entry, dropping the dead ones above it
(a bound its best distance already beat stays beaten) as the walk would, one
pop at a time. So each query visits the walk's nodes in the walk's order, and
its result and counters are those of that walk.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_BIG = np.iinfo(np.int64).max


class KDTree:
    def __init__(self, points, leaf_size: int = 8):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0 or not np.isfinite(points).all():
            raise InvalidInputError("need a nonempty (n, d) array of finite points")
        if leaf_size < 1:
            raise InvalidInputError("leaf_size must be >= 1")
        # a view, so freezing it leaves a caller's array writable
        self.points = points.view()
        n = len(points)
        # depth: the halvings s -> s - s // 2 that take n to at most leaf_size
        depth, s = 0, n
        while s > leaf_size:
            depth, s = depth + 1, s - s // 2
        n_nodes = 2 ** (depth + 1) - 1
        perm = np.arange(n)
        # rank[k * n + i]: point i's dense rank along axis k. Both sorts of the
        # build are stable: `Constellation`'s `lexsort` already runs numpy's
        # stable sort code, and the default sorts would page in their own,
        # which shows in peak RSS.
        rank = np.empty((points.shape[1], n), dtype=np.int64)
        for k, x in enumerate(points.T):
            order = np.argsort(x, kind="stable")
            x = x[order]
            rank[k, order] = np.cumsum(np.concatenate([[False], x[1:] != x[:-1]]))
        rank = rank.ravel()
        # node arrays; leaves carry (start, end) into _perm, internals a split
        split_dim = np.full(n_nodes, -1, dtype=np.int64)
        split_val = np.full(n_nodes, -1.0)
        start = np.full(n_nodes, -1, dtype=np.int64)
        end = np.full(n_nodes, -1, dtype=np.int64)
        # one level's segments [lo, hi) of _perm and their heap node ids
        lo = np.zeros(1, dtype=np.int64)
        hi = np.full(1, n, dtype=np.int64)
        node = np.zeros(1, dtype=np.int64)
        while True:
            leaf = hi - lo <= leaf_size
            start[node[leaf]] = lo[leaf]
            end[node[leaf]] = hi[leaf]
            inner = ~leaf
            if not inner.any():
                break
            lo, hi, node = lo[inner], hi[inner], node[inner]
            # the inner segments' points, gathered end to end
            size = hi - lo
            first = np.cumsum(size) - size
            pos = np.arange(size.sum()) + np.repeat(lo - first, size)
            sub = perm[pos]
            coords = np.take(points, sub, axis=0)
            spread = (np.maximum.reduceat(coords, first)
                      - np.minimum.reduceat(coords, first))
            del coords  # the level's largest temporary, freed before the sort
            dim = np.argmax(spread, axis=1)
            # stable sort of every segment on its split coordinate at once
            key = rank[np.repeat(dim * n, size) + sub]
            key += np.repeat(np.arange(len(lo)) * n, size)
            perm[pos] = sub[_radix_argsort(key)]
            mid = lo + size // 2
            split_dim[node] = dim
            split_val[node] = points[perm[mid], dim]
            lo = np.column_stack([lo, mid]).ravel()
            hi = np.column_stack([mid, hi]).ravel()
            node = np.column_stack([2 * node + 1, 2 * node + 2]).ravel()
        del rank  # before the leaf tables, the build's largest arrays
        self._perm = perm
        self._depth = depth
        self._split_dim = split_dim
        self._split_val = split_val
        self._start = start
        self._end = end
        # leaf tables, one row per slot: point indices in ascending order,
        # padded with _BIG, and their coordinates, padded with +inf, so
        # padding never wins a distance and the first least distance of a
        # row is the lowest index. Internal and unused slots have
        # start = end = -1, so count 0.
        self._count = end - start
        self._leaf_idx = np.full((n_nodes, leaf_size), _BIG, dtype=np.int64)
        self._leaf_pts = np.full((n_nodes, leaf_size, points.shape[1]), np.inf)
        # the leaves, in _perm order, tile _perm
        leaves = np.flatnonzero(end > 0)
        leaves = leaves[np.argsort(start[leaves], kind="stable")]
        row = np.repeat(leaves, self._count[leaves])
        col = np.arange(n) - start[row]
        self._leaf_idx[row, col] = perm
        self._leaf_idx.sort(axis=1, kind="stable")
        self._leaf_pts[row, col] = np.take(points, self._leaf_idx[row, col], axis=0)
        # read-only: queries from many threads may share one tree
        for a in (self.points, perm, split_dim, split_val, start, end, self._count,
                  self._leaf_idx, self._leaf_pts):
            a.setflags(write=False)

    def query(self, q):
        """Nearest neighbor for each row of q.

        Returns (indices, squared distances, distance_evals, comparisons),
        one entry per query. A non-finite row raises InvalidInputError.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        if not np.isfinite(q).all():
            raise InvalidInputError("query rows must be finite")
        m, d = q.shape
        qflat = q.ravel()
        split_dim, split_val = self._split_dim, self._split_val
        best_d2 = np.full(m, np.inf)
        best_idx = np.full(m, _BIG, dtype=np.int64)
        evals = np.zeros(m, dtype=np.int64)
        comps = np.zeros(m, dtype=np.int64)
        # Query i's entry at height k sits in row k, column i, and holds a
        # node at depth k + 1, so a tree of depth h needs h rows. Every entry
        # above a query's top is dead for good: NaN (never pushed, or popped)
        # or a bound its best distance already beat.
        rows = max(self._depth, 1)
        stack_node = np.empty(rows * m, dtype=np.int64)
        stack_bound = np.full(rows * m, np.nan)
        bounds = stack_bound.reshape(rows, m)
        # 1 + the height of each row, in the narrowest type that holds it
        height = np.arange(1, rows + 1, dtype=np.min_scalar_type(rows))[:, None]
        # every query starts at the root, with an empty stack
        act = np.arange(m)
        node = np.zeros(m, dtype=np.int64)
        top = act - m  # flat slot of each active query's top entry
        while len(act):
            # descend every query not yet at a leaf, pushing each far child:
            # query sel[k] = act[inner[k]] is at node at[k], and the leaf it
            # reaches replaces node[inner[k]]
            dim = split_dim[node]
            inner = (dim >= 0).nonzero()[0]
            if len(inner):
                sel, at, dim, slot = act[inner], node[inner], dim[inner], top[inner]
                levels = 0
                while True:
                    s = qflat[sel * d + dim] - split_val[at]
                    near_left = s < 0.0
                    slot += m
                    left = 2 * at + 1
                    stack_node[slot] = left + near_left
                    stack_bound[slot] = s * s
                    at = left + ~near_left
                    levels += 1
                    dim = split_dim[at]
                    leaf = (dim < 0).nonzero()[0]
                    if len(leaf):
                        comps[sel[leaf]] += levels
                        node[inner[leaf]] = at[leaf]
                        if len(leaf) == len(sel):
                            break
                        down = dim >= 0
                        sel, at, dim, slot, inner = (
                            sel[down], at[down], dim[down], slot[down], inner[down])
            self._visit_leaves(act, node, q, best_d2, best_idx, evals)
            # pop each query's topmost live entry
            live = bounds.take(act, axis=1) <= best_d2[act]
            h = (live * height).max(axis=0)  # 0: no live entry is left
            more = h.nonzero()[0]
            act = act[more]
            top = (h[more] - 1).astype(np.int64) * m + act
            node = stack_node[top]
            stack_bound[top] = np.nan
            top -= m
        comps += evals
        return best_idx, best_d2, evals, comps

    def _visit_leaves(self, sel, node, q, best_d2, best_idx, evals):
        """Scan leaf `node[k]` for query `sel[k]`, keeping the lexicographic
        (distance, index) minimum."""
        # take: numpy's fancy row indexing takes a slower generic path
        diff = self._leaf_pts.take(node, axis=0)
        np.subtract(q.take(sel, axis=0)[:, None, :], diff, out=diff)
        d2 = np.einsum("mkd,mkd->mk", diff, diff)
        # a leaf's slots are in index order, so its first least distance
        # has the least index
        j = d2.argmin(axis=1)
        d2min = d2[np.arange(len(sel)), j]
        cand = self._leaf_idx[node, j]
        best = best_d2[sel]
        take = (d2min < best) | ((d2min == best) & (cand < best_idx[sel]))
        upd = sel[take]
        best_d2[upd] = d2min[take]
        best_idx[upd] = cand[take]
        evals[sel] += self._count[node]


def _radix_argsort(key):
    """`np.argsort(key, kind="stable")` of nonnegative int64 keys, as stable
    passes over their 16-bit digits, least significant first, as many as the
    largest key needs. numpy sorts 16-bit integers by radix, in linear time."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    for shift in range(16, int(key.max()).bit_length(), 16):
        digit = (key >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
    return order
