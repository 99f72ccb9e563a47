import cmath
import math
import tracemalloc

import numpy as np
import pytest

from grassbloch import geometry
from grassbloch.errors import DegenerateInputError, InvalidInputError
from grassbloch.geometry import (
    Constellation,
    angles_to_codewords,
    bloch_array,
    canonicalize_array,
    fejes_toth_bound,
    min_chordal_distance_array,
    min_euclidean_distance_array,
    pairwise_min_bloch_dot,
)
from grassbloch.builders import exp_map_psk
from grassbloch.zopt import build_z_opt, realize_codewords, zopt_structure

R2 = 1.0 / math.sqrt(2.0)


def random_angles(n, seed=0):
    rng = np.random.default_rng(seed)
    theta = np.arccos(rng.uniform(-1.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return theta, phi


def random_codewords(n, seed=0):
    return angles_to_codewords(*random_angles(n, seed))


def sphere_points(theta, phi):
    """The reference Bloch points: unit vectors at polar angle theta, azimuth phi."""
    return np.column_stack([np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi), np.cos(theta)])


def chordal(a, b):
    """The reference chordal distance sqrt(1 - |<a, b>|^2) of two unit 2-vectors."""
    inner = abs(np.vdot(a, b))
    return math.sqrt(max(1.0 - min(inner * inner, 1.0), 0.0))


def pair(a, b):
    return np.array([a, b], dtype=np.complex128)


class TestCodeword:
    """The row rules a `Constellation` enforces, and canonical form."""

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            Constellation([[0.5, 0.5], [0.0, 1.0]], "external", 1)

    def test_rejects_non_canonical_phase(self):
        with pytest.raises(InvalidInputError):
            Constellation([[1j, 0.0], [0.0, 1.0]], "external", 1)

    def test_from_vector_canonicalizes(self):
        c = canonicalize_array([[2j, 2j]])[0]
        assert c[0] == pytest.approx(R2, abs=1e-15)
        assert c[1] == pytest.approx(R2, abs=1e-15)

    def test_from_vector_pole_phase(self):
        c = canonicalize_array([[0.0, 5j]])[0]
        assert c[0] == 0.0
        assert c[1] == 1.0


class TestChordalDistance:
    """min_chordal_distance_array on a pair is that pair's chordal distance."""

    def test_identical(self):
        assert min_chordal_distance_array(pair([1.0, 0.0], [1.0, 0.0])) == 0.0

    def test_orthogonal(self):
        assert min_chordal_distance_array(pair([1.0, 0.0], [0.0, 1.0])) == 1.0

    def test_half_power(self):
        d = min_chordal_distance_array(pair([1.0, 0.0], [R2, R2]))
        assert d == pytest.approx(R2, abs=1e-12)

    def test_symmetric(self):
        a, b = random_codewords(2, seed=3)
        d = min_chordal_distance_array(pair(a, b))
        assert d == min_chordal_distance_array(pair(b, a))
        assert d == pytest.approx(chordal(a, b), abs=1e-12)


def test_small_chordal_distance_to_full_precision():
    # adjacent codewords of 2048-PSK on the equator lie sin(pi / 2048) apart;
    # sqrt((1 - dot) / 2) read 7.3e-11 relative low here
    d = exp_map_psk(2048).min_chordal_distance
    assert abs(d / math.sin(math.pi / 2048) - 1.0) <= 1e-12


class TestEuclideanDistance:
    """min_euclidean_distance_array on a pair is that pair's distance."""

    def test_zero(self):
        assert min_euclidean_distance_array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]) == 0.0

    def test_antipodal(self):
        assert min_euclidean_distance_array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]) == 2.0

    def test_orthogonal_axes(self):
        d = min_euclidean_distance_array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestSphericalAngles:
    def test_pole_azimuth_normalized(self):
        # at either pole the azimuth names no other line
        north = angles_to_codewords([0.0, 0.0], [1.3, 0.0])
        assert north.tobytes() == angles_to_codewords([0.0] * 2, [0.0] * 2).tobytes()
        assert (north[0, 0], north[0, 1]) == (1.0, 0.0)
        south = bloch_array(angles_to_codewords([math.pi] * 2, [2.0, 0.0]))
        assert south == pytest.approx(np.array([[0.0, 0.0, -1.0]] * 2), abs=1e-12)
        assert angles_to_codewords([1.0], [2.0])[0, 1] == pytest.approx(
            cmath.exp(2j) * math.sin(0.5), abs=1e-15)


class TestAnglesToCodeword:
    def test_north_pole(self):
        c = angles_to_codewords([0.0], [0.0])[0]
        assert (c[0], c[1]) == (1.0, 0.0)

    def test_equator_phi0(self):
        c = angles_to_codewords([math.pi / 2.0], [0.0])[0]
        assert c[0] == pytest.approx(R2, abs=1e-15)
        assert c[1] == pytest.approx(R2, abs=1e-15)

    def test_equator_phi_quarter(self):
        c = angles_to_codewords([math.pi / 2.0], [math.pi / 2.0])[0]
        assert c[1] == pytest.approx(R2 * 1j, abs=1e-15)


class TestCodewordToBloch:
    """bloch_array maps codeword rows to their Bloch points."""

    def test_north_pole(self):
        assert bloch_array(pair([1.0, 0.0], [1.0, 0.0]))[0].tolist() == [0.0, 0.0, 1.0]

    def test_south_pole_phi_zero(self):
        p = bloch_array(pair([0.0, 1.0], [1.0, 0.0]))[0]
        assert p == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)

    def test_equator_imaginary(self):
        p = bloch_array(pair([R2, R2 * 1j], [1.0, 0.0]))[0]
        assert p == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_round_trip_on_angles(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(0.05, math.pi - 0.05, 200)
        phi = rng.uniform(0.0, 2.0 * math.pi, 200)
        p = bloch_array(angles_to_codewords(theta, phi))
        assert np.allclose(p, sphere_points(theta, phi), rtol=0.0, atol=1e-12)
        back_theta = np.arccos(p[:, 2])
        back_phi = np.arctan2(p[:, 1], p[:, 0]) % (2.0 * math.pi)
        assert np.allclose(back_theta, theta, rtol=0.0, atol=1e-12)
        assert np.allclose(back_phi, phi, rtol=0.0, atol=1e-12)


class TestDistanceIdentity:
    def test_euclidean_is_twice_chordal(self):
        cws = random_codewords(400, seed=11)
        for a, b in zip(cws[::2], cws[1::2]):
            d_e = min_euclidean_distance_array(bloch_array(pair(a, b)))
            d_c = min_chordal_distance_array(pair(a, b))
            assert abs(d_e - 2.0 * d_c) <= 1e-12
            assert abs(d_c - chordal(a, b)) <= 1e-12


class TestFejesTothBound:
    def test_triangle(self):
        # csc(pi/2) = 1 so the bound is sqrt(3)/2; matches the best 3-point
        # packing found by brute force over random great-circle triangles
        assert fejes_toth_bound(3) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)

    def test_three_point_brute_force(self):
        rng = np.random.default_rng(1)
        best = 0.0
        for _ in range(4000):
            pts = rng.standard_normal((3, 3))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            dmin = min(
                np.linalg.norm(pts[i] - pts[j]) for i in range(3) for j in range(i + 1, 3)
            )
            best = max(best, dmin)
        assert best <= 2.0 * fejes_toth_bound(3) + 1e-9
        assert best >= 2.0 * fejes_toth_bound(3) - 0.05

    def test_tetrahedron(self):
        assert fejes_toth_bound(4) == pytest.approx(math.sqrt(6.0) / 3.0, abs=1e-12)

    def test_icosahedron_cross_check(self):
        g = (1.0 + math.sqrt(5.0)) / 2.0
        verts = []
        for a in (-1.0, 1.0):
            for b in (-g, g):
                verts += [[0, a, b], [a, b, 0], [b, 0, a]]
        verts = np.asarray(verts) / math.sqrt(1.0 + g * g)
        dmin = min(
            np.linalg.norm(verts[i] - verts[j])
            for i in range(12) for j in range(i + 1, 12)
        )
        assert fejes_toth_bound(12) == pytest.approx(dmin / 2.0, abs=1e-12)
        assert fejes_toth_bound(12) == pytest.approx(0.5257311, abs=1e-7)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            fejes_toth_bound(2)

    def test_monotone_decreasing(self):
        vals = [fejes_toth_bound(C) for C in range(3, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestNormalizeReceived:
    """canonicalize_array projects received 2-vectors onto G(2,1)."""

    def test_common_phase(self):
        c = canonicalize_array([[2j, 2j]])[0]
        assert c[0] == pytest.approx(R2, abs=1e-15)
        assert c[1] == pytest.approx(R2, abs=1e-15)

    def test_real_axis(self):
        c = canonicalize_array([[3.0, 0.0]])[0]
        assert (c[0], c[1]) == (1.0, 0.0)

    def test_zero_first_entry(self):
        c = canonicalize_array([[0.0, 5j]])[0]
        assert (c[0], c[1]) == (0.0, 1.0)

    def test_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            canonicalize_array([[0.0, 0.0]])

    def test_idempotent_on_canonical(self):
        again = canonicalize_array([[0.6, 0.8j]])[0]
        assert again[0] == 0.6 and again[1] == 0.8j
        cws = random_codewords(50, seed=23)
        back = canonicalize_array(cws)
        assert np.abs(back - cws).max() <= 1e-15


class TestConstellation:
    def test_min_distance_poles(self):
        x = Constellation([[1.0, 0.0], [0.0, 1.0]], "external", 1)
        assert x.min_chordal_distance == pytest.approx(1.0, abs=1e-15)

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidInputError):
            Constellation([[1.0, 0.0], [1.0, 0.0]], "external", 1)

    def test_bad_method(self):
        with pytest.raises(InvalidInputError):
            Constellation([[1.0, 0.0], [0.0, 1.0]], "fancy", 1)

    def test_size_must_match_bits(self):
        with pytest.raises(InvalidInputError):
            Constellation(random_codewords(3, seed=2), "external", 2)

    @pytest.mark.parametrize("B", [math.nan, True, math.inf, 2000, 0])
    def test_bits_must_be_a_bit_load(self, B):
        # NaN passed a plain comparison; True == 1; 2.0**2000 overflows
        with pytest.raises(InvalidInputError, match="2\\^B"):
            Constellation([[1.0, 0.0], [0.0, 1.0]], "external", B)

    def test_shape_must_be_rows_of_two(self):
        with pytest.raises(InvalidInputError):
            Constellation(np.ones((4, 3)), "external", 2)

    def test_array_is_read_only(self):
        x = Constellation(random_codewords(4, seed=1), "external", 2)
        assert x.array.dtype == np.complex128 and x.array.shape == (4, 2)
        with pytest.raises(ValueError):
            x.array[0, 0] = 1.0

    def test_array_matches_scalar_distances(self):
        cws = random_codewords(24, seed=5)
        x = Constellation(cws, "external", None)
        brute = min(
            chordal(a, b)
            for i, a in enumerate(cws) for b in cws[i + 1:]
        )
        assert x.min_chordal_distance == pytest.approx(brute, abs=1e-12)

    def test_bloch_array_matches_scalar(self):
        theta, phi = random_angles(10, seed=9)
        arr = bloch_array(angles_to_codewords(theta, phi))
        assert np.allclose(arr, sphere_points(theta, phi), rtol=0.0, atol=1e-12)


def codeword_row(row):
    """The scalar reference rule: the row as stored, or None if it is refused.

    A row is accepted when both entries are finite, |c0|^2 + |c1|^2 is within
    1e-10 of 1, and c0 is real and nonnegative within 1e-10; c0 is then
    stored as max(Re c0, 0).
    """
    c0, c1 = complex(row[0]), complex(row[1])
    if not (cmath.isfinite(c0) and cmath.isfinite(c1)):
        return None
    if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > 1e-10:
        return None
    if abs(c0.imag) > 1e-10 or c0.real < -1e-10:
        return None
    return np.array([complex(max(c0.real, 0.0), 0.0), c1], dtype=np.complex128)


def scaled(row, norm2):
    k = math.sqrt(norm2)
    return (row[0] * k, row[1] * k)


class TestConstellationRows:
    """The vectorized row check and clamp against the scalar row rule."""

    @pytest.mark.parametrize("row, accepted", [
        ((-1e-11, 1.0), True),
        ((-1.1e-10, 1.0), False),
        ((complex(R2, 1e-11), R2), True),
        ((complex(R2, 1.1e-10), R2), False),
        ((-0.0, 1.0), True),
        (scaled((0.6, 0.8j), 1.0 + 0.9e-10), True),
        (scaled((0.6, 0.8j), 1.0 - 0.9e-10), True),
        (scaled((0.6, 0.8j), 1.0 + 1.1e-10), False),
        (scaled((0.6, 0.8j), 1.0 - 1.1e-10), False),
    ])
    def test_edge_rows_match_codeword(self, row, accepted):
        want = codeword_row(row)
        assert (want is not None) == accepted
        other = [0.0, 1.0] if abs(row[0]) > 0.5 else [1.0, 0.0]
        if not accepted:
            with pytest.raises(InvalidInputError):
                Constellation([row, other], "external", 1)
            return
        got = Constellation([row, other], "external", 1).array[0]
        assert got.tobytes() == want.tobytes()

    def test_random_rows_match_codeword_bits(self):
        rng = np.random.default_rng(31)
        rows = canonicalize_array(rng.standard_normal((256, 2))
                                  + 1j * rng.standard_normal((256, 2)))
        rows[:, 0] += 1j * rng.uniform(-5e-11, 5e-11, 256)
        # near the south pole c0 may sit just below zero; both clamp it to 0
        rows[:16, 0] = -rng.uniform(0.0, 5e-11, 16)
        rows[:16, 1] = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 16))
        want = np.array([codeword_row(r) for r in rows])
        got = Constellation(rows, "external", 8).array
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.6, math.nan)])
    def test_non_finite_rejected(self, bad):
        # the norm test alone would pass NaN: abs(nan - 1) > tol is False
        assert codeword_row((bad, 0.8j)) is None
        with pytest.raises(InvalidInputError, match="non-finite"):
            Constellation([[bad, 0.8j], [0.0, 1.0]], "external", 1)


def test_bound_sanity_for_constructed_sets():
    # every valid configuration must respect the packing bound
    rng = np.random.default_rng(4)
    for C in (3, 5, 9, 17):
        pts = rng.standard_normal((C, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        theta = np.arccos(np.clip(pts[:, 2], -1, 1))
        phi = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
        arr = angles_to_codewords(theta, phi)
        assert min_chordal_distance_array(arr) <= fejes_toth_bound(C) + 1e-9


# ---------------------------------------------------------------------------
# closest-pair sweep against the all-pairs scan


def reference_max_dot(points):
    """All-pairs maximum dot: upper-triangle blocks of a dense Gram matrix."""
    n = len(points)
    chunk = max(16, min(2048, (1 << 24) // max(n, 1)))
    best = -1.0
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dots = points[lo:hi] @ points[lo:].T
        rows, cols = np.tril_indices(hi - lo, k=0)
        dots[rows, cols] = -2.0
        best = max(best, float(dots.max()))
    return best


def reference_min_distance(points):
    """All-pairs minimum of |p - q|, each summed as dx^2 + dy^2 + dz^2."""
    best = math.inf
    for i in range(len(points) - 1):
        diff = points[i + 1:] - points[i]
        best = min(best, float(np.min(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
                                      + diff[:, 2] * diff[:, 2])))
    return math.sqrt(best)


def unit_rows(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=1)[:, None]


def uniform_points(n, seed):
    return unit_rows(np.random.default_rng(seed).standard_normal((n, 3)))


def axis_circle(phi, t):
    """Points at azimuths phi about the sweep axis, projecting onto it at t."""
    u = np.array(geometry._SWEEP_AXIS)
    a = np.cross(u, [1.0, 0.0, 0.0])
    a /= np.linalg.norm(a)
    b = np.cross(u, a)
    r = math.sqrt(1.0 - t * t)
    return t * u + r * (np.cos(phi)[:, None] * a + np.sin(phi)[:, None] * b)


def psk_ring(n, z):
    phi = 2.0 * math.pi * np.arange(n) / n
    r = math.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), np.full(n, z)])


def near_duplicates(n, seed):
    base = uniform_points(n, seed)
    nudge = np.random.default_rng(seed + 1).standard_normal((n, 3))
    return np.vstack([base, unit_rows(base + 1e-10 * unit_rows(nudge))])


def antipodal(n, seed):
    base = uniform_points(n, seed)
    return np.vstack([base, -base])


class TestClosestPairSweep:
    def check(self, points):
        points = np.ascontiguousarray(points, dtype=np.float64)
        dot, dist = pairwise_min_bloch_dot(points)
        assert abs(dot - reference_max_dot(points)) <= 1e-15
        assert dist == reference_min_distance(points)

    @pytest.mark.parametrize("C", [2, 3, 4, 7, 33, 256, 1000, 3000])
    def test_uniform(self, C):
        for seed in range(3):
            self.check(uniform_points(C, seed=100 * C + seed))

    @pytest.mark.parametrize("B", range(4, 13))
    def test_zopt_layers_share_z(self, B):
        self.check(bloch_array(build_z_opt(B).array))

    @pytest.mark.parametrize("z", [0.0, 0.3, -0.95])
    def test_psk_ring(self, z):
        self.check(psk_ring(500, z))

    def test_great_circle_perpendicular_to_axis(self):
        pts = axis_circle(np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, 2000), 0.0)
        t = pts @ np.array(geometry._SWEEP_AXIS)
        assert np.ptp(t) < 1e-12  # every pair falls inside the reach
        self.check(pts)

    def test_close_pair_at_the_last_offset(self):
        # the closest pair sits either side of a ring that projects onto one
        # point of the axis, so it is met at the last offset the sweep scans
        M, delta = 50, 1e-4
        ring = 2.0 * math.pi * np.arange(M) / M
        pair = np.vstack([axis_circle(np.array([math.pi / M]), 0.2 - delta),
                          axis_circle(np.array([math.pi / M]), 0.2 + delta)])
        pts = np.vstack([axis_circle(ring, -0.5), axis_circle(ring, 0.2), pair])
        expected = float(pair[0] @ pair[1])
        assert pairwise_min_bloch_dot(pts)[0] == pytest.approx(expected, abs=1e-15)
        self.check(pts)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_duplicates(self, seed):
        self.check(near_duplicates(300, seed))

    def test_antipodal_pairs(self):
        self.check(antipodal(200, seed=3))
        self.check(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        self.check(np.array([geometry._SWEEP_AXIS, [-c for c in geometry._SWEEP_AXIS]]))

    def test_two_and_three_points(self):
        self.check(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        self.check(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        self.check(psk_ring(3, 0.2))

    def test_fewer_than_two_points(self):
        assert pairwise_min_bloch_dot(np.empty((0, 3))) == (-1.0, math.inf)
        assert pairwise_min_bloch_dot(np.array([[0.0, 0.0, 1.0]])) == (-1.0, math.inf)

    def test_nan_point(self):
        pts = uniform_points(20, seed=4)
        pts[7, 1] = np.nan
        dot, dist = pairwise_min_bloch_dot(pts)
        assert math.isnan(dot) and math.isnan(dist)

    def test_memory_stays_linear(self):
        # a layered set of C = 16384 codewords; the all-pairs scan peaked near
        # 256 MiB here, the sweep holds a few arrays of C entries
        s = zopt_structure(14)
        theta = (np.arange(s.l) + 0.5) * (math.pi / s.l)
        arr = realize_codewords(theta, s)
        assert len(arr) == 16384
        tracemalloc.start()
        try:
            min_chordal_distance_array(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def reference_has_duplicate_rows(arr):
    view = np.round(arr.view(np.float64).reshape(len(arr), -1), 9)
    return len(np.unique(view, axis=0)) != len(arr)


def bloch_to_codewords(points):
    theta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    return angles_to_codewords(theta, np.arctan2(points[:, 1], points[:, 0]))


class TestDuplicateRows:
    def check(self, arr, expected):
        arr = np.ascontiguousarray(arr, dtype=np.complex128)
        assert reference_has_duplicate_rows(arr) is expected
        assert geometry._has_duplicate_rows(arr) is expected

    @pytest.mark.parametrize("shift, duplicate", [(1e-10, True), (1e-8, False)])
    @pytest.mark.parametrize("col", range(4))
    def test_rounding_to_nine_decimals(self, shift, col, duplicate):
        rows = random_codewords(40, seed=col).view(np.float64)
        extra = np.array([[0.6, 0.0, 0.48, 0.64]])
        twin = extra.copy()
        twin[0, col] += shift
        self.check(np.vstack([rows[:20], extra, rows[20:], twin]).view(np.complex128),
                   duplicate)

    def test_negative_zero_equals_zero(self):
        rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, -0.0],
                         [0.6, 0.0, 0.0, 0.8], [0.0, 0.0, 1.0, 0.0]])
        self.check(rows.view(np.complex128), True)
        self.check(rows[:3].view(np.complex128), False)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_duplicates(self, seed):
        self.check(bloch_to_codewords(near_duplicates(300, seed)), True)
        self.check(bloch_to_codewords(uniform_points(300, seed)), False)

    def test_zopt_b14(self):
        arr = build_z_opt(14).array
        self.check(arr, False)
        self.check(np.vstack([arr, arr[9000:9001]]), True)
