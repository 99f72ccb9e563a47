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

A batch is searched in lockstep. Each query keeps an explicit stack of
(node, bound) entries and every vectorized step pops one entry for every query
whose stack is not empty. An entry is visited only while its bound does not
exceed the query's best squared distance: the near child of a split is pushed
with bound -inf, the far child with s^2, s being the query's offset from the
split value along the split axis. s^2 bounds the far child's distances from
below even with ties: a query at s < 0 goes left, and every right point lies
at or above the split value; a query at s >= 0 goes right, and every left
point lies at or below it. Near is pushed last, so each query visits nodes in
the depth-first order of the one-at-a-time walk, and its result and counters
are those of that walk.
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
        self.points = points
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
            perm[pos] = sub[np.argsort(key, kind="stable")]
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
        # leaf tables, one row per slot: point indices padded with _BIG and
        # coordinates padded with +inf, so padding never wins a distance.
        # Internal and unused slots have start = end = -1, so count 0.
        self._count = end - start
        self._leaf_idx = np.full((n_nodes, leaf_size), _BIG, dtype=np.int64)
        self._leaf_pts = np.full((n_nodes, leaf_size, points.shape[1]), np.inf)
        # the leaves, in _perm order, tile _perm
        leaves = np.flatnonzero(end > 0)
        leaves = leaves[np.argsort(start[leaves], kind="stable")]
        row = np.repeat(leaves, self._count[leaves])
        col = np.arange(n) - start[row]
        self._leaf_idx[row, col] = perm
        self._leaf_pts[row, col] = np.take(points, perm, axis=0)

    def query(self, q):
        """Nearest neighbor for each row of q.

        Returns (indices, squared distances, distance_evals, comparisons),
        one entry per query.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        m = len(q)
        best_d2 = np.full(m, np.inf)
        best_idx = np.full(m, _BIG, dtype=np.int64)
        evals = np.zeros(m, dtype=np.int64)
        comps = np.zeros(m, dtype=np.int64)
        # a path of d splits holds at most d far children plus the node on top
        width = self._depth + 1
        stack_node = np.empty(m * width, dtype=np.int64)
        stack_bound = np.empty(m * width)
        base = np.arange(m) * width
        stack_node[base] = 0  # the root
        stack_bound[base] = -np.inf
        top = base.copy()  # flat slot of each query's top entry
        act = np.arange(m)  # queries whose stack is not empty
        while len(act):
            slot = top[act]
            node = stack_node[slot]
            live = stack_bound[slot] <= best_d2[act]
            top[act] -= 1
            act_live = act[live]
            node = node[live]
            leaf = self._split_dim[node] < 0
            if leaf.any():
                self._visit_leaves(act_live[leaf], node[leaf], q,
                                   best_d2, best_idx, evals, comps)
            inner = ~leaf
            if inner.any():
                self._split(act_live[inner], node[inner], q, top,
                            stack_node, stack_bound, comps)
            act = act[top[act] >= base[act]]
        return best_idx, best_d2, evals, comps

    def _visit_leaves(self, sel, node, q, best_d2, best_idx, evals, comps):
        # np.take: numpy's fancy row indexing takes a slower generic path
        diff = np.take(q, sel, axis=0)[:, None, :] - np.take(self._leaf_pts, node, axis=0)
        d2 = np.einsum("mkd,mkd->mk", diff, diff)
        # lexicographic (distance, index) minimum over the leaf
        d2min = d2.min(axis=1)
        cand = np.where(d2 == d2min[:, None], self._leaf_idx[node], _BIG).min(axis=1)
        take = (d2min < best_d2[sel]) | (
            (d2min == best_d2[sel]) & (cand < best_idx[sel])
        )
        upd = sel[take]
        best_d2[upd] = d2min[take]
        best_idx[upd] = cand[take]
        k = self._count[node]
        evals[sel] += k
        comps[sel] += k

    def _split(self, sel, node, q, top, stack_node, stack_bound, comps):
        s = q[sel, self._split_dim[node]] - self._split_val[node]
        comps[sel] += 1
        near_left = s < 0.0
        # the far child is crossed only if the best sphere still reaches the plane
        far = top[sel] + 1
        stack_node[far] = 2 * node + 1 + near_left
        stack_bound[far] = s * s
        stack_node[far + 1] = 2 * node + 2 - near_left
        stack_bound[far + 1] = -np.inf
        top[sel] = far + 1
