"""Balanced space-partitioning tree for exact nearest-neighbor search in 3-space.

Queries return exactly what a linear scan would, including the tie rule (equal
distances resolve to the lowest point index), and report how many point
distances and scalar comparisons each lookup performed.

A batch is searched in lockstep. Each query keeps an explicit stack of
(node, bound) entries and every vectorized step pops one entry for every query
whose stack is not empty. An entry is visited only while its bound does not
exceed the query's best squared distance: the near child of a split is pushed
with bound -inf, the far child with the squared distance to the splitting
plane. Near is pushed last, so each query visits nodes in the depth-first
order of the one-at-a-time walk, and its result and counters are those of
that walk.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_BIG = np.iinfo(np.int64).max


class KDTree:
    def __init__(self, points, leaf_size: int = 8):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise InvalidInputError("need a nonempty (n, d) point array")
        if leaf_size < 1:
            raise InvalidInputError("leaf_size must be >= 1")
        self.points = points
        self.leaf_size = leaf_size
        self._perm = np.arange(len(points))
        # node arrays; leaves carry (start, end) into _perm, internals a split
        self._split_dim = []
        self._split_val = []
        self._left = []
        self._right = []
        self._start = []
        self._end = []
        self._depth = 0
        self._root = self._build(0, len(points), 0)
        self._split_dim = np.asarray(self._split_dim, dtype=np.int64)
        self._split_val = np.asarray(self._split_val, dtype=np.float64)
        self._left = np.asarray(self._left, dtype=np.int64)
        self._right = np.asarray(self._right, dtype=np.int64)
        self._start = np.asarray(self._start, dtype=np.int64)
        self._end = np.asarray(self._end, dtype=np.int64)
        # leaf tables, one row per node: point indices padded with _BIG and
        # coordinates padded with +inf, so padding never wins a distance
        n_nodes = len(self._split_dim)
        self._count = np.where(self._split_dim < 0, self._end - self._start, 0)
        self._leaf_idx = np.full((n_nodes, leaf_size), _BIG, dtype=np.int64)
        self._leaf_pts = np.full((n_nodes, leaf_size, points.shape[1]), np.inf)
        for node in np.flatnonzero(self._split_dim < 0):
            idx = self._perm[self._start[node]:self._end[node]]
            self._leaf_idx[node, :len(idx)] = idx
            self._leaf_pts[node, :len(idx)] = points[idx]

    def __len__(self) -> int:
        return len(self.points)

    def _new_node(self) -> int:
        for arr in (self._split_dim, self._split_val, self._left,
                    self._right, self._start, self._end):
            arr.append(-1)
        return len(self._split_dim) - 1

    def _build(self, lo: int, hi: int, depth: int) -> int:
        node = self._new_node()
        self._depth = max(self._depth, depth)
        if hi - lo <= self.leaf_size:
            self._start[node] = lo
            self._end[node] = hi
            return node
        sub = self._perm[lo:hi]
        coords = self.points[sub]
        spread = coords.max(axis=0) - coords.min(axis=0)
        dim = int(np.argmax(spread))
        order = np.argsort(coords[:, dim], kind="stable")
        self._perm[lo:hi] = sub[order]
        mid = (hi - lo) // 2
        # everything at or beyond the split value lives in the right subtree
        self._split_dim[node] = dim
        self._split_val[node] = self.points[self._perm[lo + mid], dim]
        self._left[node] = self._build(lo, lo + mid, depth + 1)
        self._right[node] = self._build(lo + mid, hi, depth + 1)
        return node

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
        stack_node[base] = self._root
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
        diff = q[sel][:, None, :] - self._leaf_pts[node]
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
        left = self._left[node]
        right = self._right[node]
        # the far child is crossed only if the best sphere still reaches the plane
        far = top[sel] + 1
        stack_node[far] = np.where(near_left, right, left)
        stack_bound[far] = s * s
        stack_node[far + 1] = np.where(near_left, left, right)
        stack_bound[far + 1] = -np.inf
        top[sel] = far + 1
