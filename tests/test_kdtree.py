import numpy as np
import pytest

from grassbloch.errors import InvalidInputError
from grassbloch.kdtree import _BIG, KDTree, _radix_argsort
from grassbloch.zopt import build_z_opt


def sphere_points(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


SIZES = [(1, 1), (2, 1), (3, 1), (5, 2), (64, 8), (64, 1), (300, 8), (300, 1), (4096, 16)]


def linear_scan(points, queries):
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    # lowest index among exact ties
    return d2.argmin(axis=1)


def reference_query(tree, q):
    """The one-node-at-a-time recursive walk the lockstep traversal replaces.

    Each call splits the active query subset at one node, searches the near
    side, then crosses the plane for the queries whose best sphere reaches it.
    """
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    m = len(q)
    best_d2 = np.full(m, np.inf)
    best_idx = np.full(m, _BIG, dtype=np.int64)
    evals = np.zeros(m, dtype=np.int64)
    comps = np.zeros(m, dtype=np.int64)

    def search(node, sel):
        if len(sel) == 0:
            return
        if tree._split_dim[node] < 0:
            pts_idx = tree._perm[tree._start[node]:tree._end[node]]
            pts = tree.points[pts_idx]
            diff = q[sel][:, None, :] - pts[None, :, :]
            d2 = np.einsum("mkd,mkd->mk", diff, diff)
            k = len(pts_idx)
            d2min = d2.min(axis=1)
            cand = np.where(d2 == d2min[:, None], pts_idx[None, :], _BIG).min(axis=1)
            take = (d2min < best_d2[sel]) | (
                (d2min == best_d2[sel]) & (cand < best_idx[sel])
            )
            upd = sel[take]
            best_d2[upd] = d2min[take]
            best_idx[upd] = cand[take]
            evals[sel] += k
            comps[sel] += k
            return
        s = q[sel, tree._split_dim[node]] - tree._split_val[node]
        comps[sel] += 1
        near_left = s < 0.0
        left_sel = sel[near_left]
        right_sel = sel[~near_left]
        left, right = 2 * node + 1, 2 * node + 2
        search(left, left_sel)
        search(right, right_sel)
        s2 = s * s
        search(right, left_sel[s2[near_left] <= best_d2[left_sel]])
        search(left, right_sel[s2[~near_left] <= best_d2[right_sel]])

    search(0, np.arange(m))
    return best_idx, best_d2, evals, comps


def reference_build(points, leaf_size):
    """The recursive one-node-at-a-time build the level-by-level one replaces.

    Nodes are numbered as a heap: node i's children are 2i + 1 and 2i + 2.
    A segment of more than leaf_size points splits on its widest axis after a
    stable sort, at its middle point. Slots no node takes keep split_dim -1,
    start and end -1 and count 0.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    perm = np.arange(len(points))
    nodes = {}  # id -> [split_dim, split_val, start, end]
    depth = 0

    def build(node, lo, hi, d):
        nonlocal depth
        nodes[node] = [-1, -1.0, -1, -1]
        depth = max(depth, d)
        if hi - lo <= leaf_size:
            nodes[node][2:] = [lo, hi]
            return
        sub = perm[lo:hi]
        coords = points[sub]
        dim = int(np.argmax(coords.max(axis=0) - coords.min(axis=0)))
        perm[lo:hi] = sub[np.argsort(coords[:, dim], kind="stable")]
        mid = (hi - lo) // 2
        nodes[node][:2] = [dim, points[perm[lo + mid], dim]]
        build(2 * node + 1, lo, lo + mid, d + 1)
        build(2 * node + 2, lo + mid, hi, d + 1)

    build(0, 0, len(points), 0)
    size = max(nodes) + 1
    out = {"_perm": perm, "_depth": depth}
    for k, (name, fill, dtype) in enumerate([
        ("_split_dim", -1, np.int64), ("_split_val", -1.0, np.float64),
        ("_start", -1, np.int64), ("_end", -1, np.int64),
    ]):
        out[name] = np.full(size, fill, dtype=dtype)
        for node, fields in nodes.items():
            out[name][node] = fields[k]
    leaf = (out["_split_dim"] < 0) & (out["_start"] >= 0)
    out["_count"] = np.where(leaf, out["_end"] - out["_start"], 0)
    out["_leaf_idx"] = np.full((size, leaf_size), _BIG, dtype=np.int64)
    out["_leaf_pts"] = np.full((size, leaf_size, points.shape[1]), np.inf)
    for node in np.flatnonzero(leaf):
        # each leaf's slots hold its points in index order
        idx = np.sort(perm[out["_start"][node]:out["_end"][node]])
        out["_leaf_idx"][node, :len(idx)] = idx
        out["_leaf_pts"][node, :len(idx)] = points[idx]
    return out


def assert_same_build(points, leaf_size):
    tree = KDTree(points, leaf_size=leaf_size)
    for name, want in reference_build(points, leaf_size).items():
        got = getattr(tree, name)
        assert np.asarray(got).dtype == np.asarray(want).dtype, name
        assert np.array_equal(got, want), name
    return tree


@pytest.mark.parametrize("n,leaf", SIZES + [(8, 8), (7, 8), (9, 8), (33, 1), (101, 3),
                                            (1023, 8), (4097, 8)])
def test_build_matches_reference(n, leaf):
    assert_same_build(sphere_points(n, seed=n), leaf)


@pytest.mark.parametrize("leaf", [1, 2, 3, 8])
def test_build_with_tied_split_coordinates(leaf):
    # integer grids: ties on every axis, whole segments with zero spread on
    # some axes, and duplicate points
    g = np.random.default_rng(leaf).integers(-2, 3, (301, 3)).astype(np.float64)
    assert_same_build(g, leaf)
    assert_same_build(np.concatenate([g, g]), leaf)
    assert_same_build(np.zeros((37, 3)), leaf)


@pytest.mark.parametrize("B", [6, 9, 12, 14])
def test_build_on_zopt_bloch_points(B):
    # each ring of a layered set holds several rounded z values, so the splits
    # on z meet ties and near-ties
    assert_same_build(build_z_opt(B).bloch, 8)


@pytest.mark.parametrize("B", range(17))
def test_heap_slots_for_power_of_two_sets(B):
    # every constellation the program builds has 2^B points and leaf 8, and
    # its heap has no unused slot
    n = 2**B
    tree = KDTree(sphere_points(n, seed=B), leaf_size=8)
    assert len(tree._split_dim) == 2 * max(1, n // 8) - 1
    assert np.all((tree._split_dim >= 0) | (tree._count > 0))


def test_heap_slots_for_uneven_set():
    # leaf depths differ by one, so up to about twice the nodes' slots
    n = 4097
    tree = KDTree(sphere_points(n, seed=n), leaf_size=8)
    assert len(tree._split_dim) < n // 2
    assert tree._count.sum() == n


def split_ties(tree):
    """Check left <= split <= right along the split axis at every internal
    node, and return how many left-subtree points equal their split value."""
    ranges = {}
    ties = 0
    # children have larger heap ids than their parent
    for node in range(len(tree._split_dim) - 1, -1, -1):
        if tree._split_dim[node] < 0:
            if tree._end[node] > 0:  # a leaf, not an unused slot
                ranges[node] = (tree._start[node], tree._end[node])
            continue
        lo, mid = ranges[2 * node + 1]
        assert ranges[2 * node + 2][0] == mid
        hi = ranges[2 * node + 2][1]
        ranges[node] = (lo, hi)
        x = tree.points[tree._perm, tree._split_dim[node]]
        val = tree._split_val[node]
        assert x[lo:mid].max() <= val <= x[mid:hi].min()
        ties += int(np.count_nonzero(x[lo:mid] == val))
    return ties


@pytest.mark.parametrize("points", [
    pytest.param(build_z_opt(8).bloch, id="zopt8"),
    pytest.param(build_z_opt(12).bloch, id="zopt12"),
    # the leaf = 1 grid of test_build_with_tied_split_coordinates
    pytest.param(np.random.default_rng(1).integers(-2, 3, (301, 3)).astype(np.float64),
                 id="grid"),
])
def test_ties_with_split_value_may_sit_left(points):
    # the stable sort keeps a run of equal coordinates in position order, so
    # points before the middle that equal its coordinate stay in the left
    # subtree; the far-child bound s^2 needs only left <= split <= right
    assert split_ties(KDTree(points, leaf_size=8)) > 0


def assert_same_as_reference(tree, q):
    got = tree.query(q)
    want = reference_query(tree, q)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got


@pytest.mark.parametrize("n,leaf", SIZES)
def test_matches_reference_walk(n, leaf):
    pts = sphere_points(n, seed=n)
    q = sphere_points(500, seed=n + 1)
    assert_same_as_reference(KDTree(pts, leaf_size=leaf), q)


@pytest.mark.parametrize("n,leaf", SIZES)
def test_matches_linear_scan(n, leaf):
    pts = sphere_points(n, seed=n)
    tree = KDTree(pts, leaf_size=leaf)
    q = sphere_points(500, seed=n + 1)
    idx, d2, evals, comps = tree.query(q)
    assert np.array_equal(idx, linear_scan(pts, q))
    brute = ((q - pts[idx]) ** 2).sum(-1)
    assert np.allclose(d2, brute, atol=1e-12)
    assert np.all(evals >= 1) and np.all(comps >= evals)


def test_tie_breaks_to_lowest_index():
    pts = np.array([
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    ])
    tree = KDTree(pts, leaf_size=1)
    idx, _, _, _ = assert_same_as_reference(
        tree, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert list(idx) == [0, 0]


@pytest.mark.parametrize("leaf", [1, 2, 3, 8])
def test_grid_ties_match_reference(leaf):
    # a doubled integer grid queried on half-integers: many exact ties,
    # duplicate points and queries lying on splitting planes
    g = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3, indexing="ij"), -1).reshape(-1, 3)
    pts = np.concatenate([g, g])
    q = np.random.default_rng(leaf).integers(-2, 3, (400, 3)) / 2.0
    idx, _, _, _ = assert_same_as_reference(KDTree(pts, leaf_size=leaf), q)
    assert np.array_equal(idx, linear_scan(pts, q))


def test_duplicate_coordinates_on_split_axis():
    # many points sharing coordinates stress the plane bookkeeping
    base = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0],
                     [0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    tree = assert_same_build(base, 1)
    q = sphere_points(200, seed=3)
    assert np.array_equal(assert_same_as_reference(tree, q)[0], linear_scan(base, q))


def test_counters_shrink_with_tree():
    pts = sphere_points(1024, seed=0)
    q = sphere_points(2000, seed=1)
    flat = KDTree(pts, leaf_size=1024)
    deep = KDTree(pts, leaf_size=8)
    _, _, ev_flat, _ = flat.query(q)
    _, _, ev_deep, _ = deep.query(q)
    assert ev_flat.mean() == 1024
    assert ev_deep.mean() < 100


def test_query_single_row():
    pts = sphere_points(32, seed=5)
    tree = KDTree(pts, leaf_size=4)
    idx, _, _, _ = assert_same_as_reference(tree, pts[7])
    assert idx[0] == 7


def test_query_empty_batch():
    tree = KDTree(sphere_points(32, seed=5), leaf_size=4)
    out = assert_same_as_reference(tree, np.empty((0, 3)))
    assert [a.shape for a in out] == [(0,)] * 4


@pytest.mark.parametrize("n,leaf", [(1, 8), (33, 1), (37, 4), (4097, 8)])
def test_query_empty_batch_on_other_shapes(n, leaf):
    # a depth-0 tree, leaf size 1 and two leaf depths
    tree = KDTree(sphere_points(n, seed=5), leaf_size=leaf)
    out = assert_same_as_reference(tree, np.empty((0, 3)))
    assert [a.shape for a in out] == [(0,)] * 4


def test_rejects_empty():
    with pytest.raises(InvalidInputError):
        KDTree(np.empty((0, 3)))
    with pytest.raises(InvalidInputError):
        KDTree(np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        KDTree(np.array([[0.0, 0.0, 1.0], [np.inf, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        KDTree(sphere_points(4, seed=0), leaf_size=0)


@pytest.mark.parametrize("n,leaf,depths", [(37, 3, 1), (37, 4, 2), (4097, 8, 2), (1023, 8, 1)])
def test_leaf_depths_match_reference(n, leaf, depths):
    # with two leaf depths, some queries reach their first leaf a level
    # above the others and stop descending there
    tree = KDTree(sphere_points(n, seed=n), leaf_size=leaf)
    leaves = np.flatnonzero(tree._count > 0)
    assert len(np.unique(np.frexp(leaves + 1)[1])) == depths
    q = sphere_points(700, seed=n + 2)
    idx, _, _, _ = assert_same_as_reference(tree, q)
    assert np.array_equal(idx, linear_scan(tree.points, q))


@pytest.mark.parametrize("leaf", [1, 3, 8])
def test_queries_on_split_planes_match_reference(leaf):
    # s == 0 sends a query right with far bound 0, which stays live against
    # every best distance, including an exact hit (d2 = 0)
    pts = sphere_points(200, seed=leaf)
    tree = KDTree(pts, leaf_size=leaf)
    inner = np.flatnonzero(tree._split_dim >= 0)
    q = sphere_points(len(inner), seed=leaf + 10)
    q[np.arange(len(inner)), tree._split_dim[inner]] = tree._split_val[inner]
    # every point, the ones that carry a split value among them, lies on
    # its own plane at distance 0
    q = np.concatenate([q, pts])
    idx, _, _, _ = assert_same_as_reference(tree, q)
    assert np.array_equal(idx, linear_scan(pts, q))


def test_ties_inside_one_leaf_go_to_the_lowest_index():
    # six unit vectors, all at squared distance exactly 1 from the origin,
    # plus six far points that make the root split on x. The stable sort on x
    # puts index 0 (x = 1) last in its leaf's _perm run; the leaf row lists
    # the indices in order, so the tie goes to index 0
    unit = np.array([[1.0, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [-1, 0, 0]])
    far = np.column_stack([10.0 + np.arange(6), np.zeros(6), np.zeros(6)])
    tree = assert_same_build(np.concatenate([unit, far]), 8)
    assert list(tree._perm[:6]) == [5, 1, 2, 3, 4, 0]
    assert list(tree._leaf_idx[1]) == [0, 1, 2, 3, 4, 5, _BIG, _BIG]
    q = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [-0.25, 0.0, 0.0]])
    idx, d2, _, _ = assert_same_as_reference(tree, q)
    assert list(idx) == [0, 3, 5] and d2[0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_non_finite_queries_rejected(bad):
    # +inf would meet the leaf padding's +inf, and inf - inf = NaN would win
    # the leaf minimum; the query refuses every non-finite row at the boundary
    tree = KDTree(sphere_points(300, seed=4), leaf_size=8)
    q = sphere_points(6, seed=5)
    q[2, 1] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        tree.query(q)
    with pytest.raises(InvalidInputError, match="finite"):
        tree.query(q[2])


@pytest.mark.parametrize("B", [8, 12])
def test_polar_cap_queries_match_reference(B):
    # a query in a z-opt cap is nearly equidistant to the first ring: the
    # longest walks, which the batch finishes with a handful of queries
    tree = KDTree(build_z_opt(B).bloch, leaf_size=8)
    t = np.linspace(0.0, 0.2, 50)
    cap = np.stack([np.sin(t) * np.cos(7 * t), np.sin(t) * np.sin(7 * t), np.cos(t)], 1)
    q = np.concatenate([cap, -cap, sphere_points(500, seed=B)])
    _, _, evals, _ = assert_same_as_reference(tree, q)
    assert evals.max() > 100


@pytest.mark.parametrize("high", [1, 2**16 - 1, 2**16, 2**32 + 5, 2**62])
def test_radix_argsort_is_the_stable_argsort(high):
    rng = np.random.default_rng(high % 1000)
    for n in [1, 2, 17, 4096]:
        key = rng.integers(0, high, n, endpoint=True)
        key[: n // 3] = key[n // 3: 2 * (n // 3)]  # duplicates
        assert np.array_equal(_radix_argsort(key), np.argsort(key, kind="stable"))
