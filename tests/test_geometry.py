import math
import tracemalloc

import numpy as np
import pytest

from grassbloch import geometry
from grassbloch.errors import DegenerateInputError, InvalidInputError
from grassbloch.geometry import (
    BlochPoint,
    Codeword,
    Constellation,
    SphericalAngles,
    angles_to_codeword,
    bloch_array,
    canonicalize_array,
    chordal_distance,
    codeword_to_bloch,
    euclidean_distance,
    fejes_toth_bound,
    min_chordal_distance_array,
    pairwise_min_bloch_dot,
)
from grassbloch.zopt import build_z_opt, realize_codewords, zopt_structure

R2 = 1.0 / math.sqrt(2.0)


def random_codewords(n, seed=0):
    rng = np.random.default_rng(seed)
    theta = np.arccos(rng.uniform(-1.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return [angles_to_codeword(SphericalAngles(t, p)) for t, p in zip(theta, phi)]


class TestCodeword:
    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            Codeword(0.5, 0.5)

    def test_rejects_non_canonical_phase(self):
        with pytest.raises(InvalidInputError):
            Codeword(1j, 0.0)

    def test_from_vector_canonicalizes(self):
        c = Codeword.from_vector([2j, 2j])
        assert c.c0 == pytest.approx(R2, abs=1e-15)
        assert c.c1 == pytest.approx(R2, abs=1e-15)

    def test_from_vector_pole_phase(self):
        c = Codeword.from_vector([0.0, 5j])
        assert c.c0 == 0.0
        assert c.c1 == 1.0


class TestChordalDistance:
    def test_identical(self):
        a = Codeword(1.0, 0.0)
        assert chordal_distance(a, a) == 0.0

    def test_orthogonal(self):
        assert chordal_distance(Codeword(1.0, 0.0), Codeword(0.0, 1.0)) == 1.0

    def test_half_power(self):
        d = chordal_distance(Codeword(1.0, 0.0), Codeword(R2, R2))
        assert d == pytest.approx(R2, abs=1e-12)

    def test_symmetric(self):
        a, b = random_codewords(2, seed=3)
        assert chordal_distance(a, b) == chordal_distance(b, a)

    def test_rejects_bad_norm(self):
        good = Codeword(1.0, 0.0)
        bad = Codeword(1.0, 0.0)
        object.__setattr__(bad, "c1", 1e-4 + 0j)
        with pytest.raises(InvalidInputError):
            chordal_distance(good, bad)


class TestEuclideanDistance:
    def test_zero(self):
        p = BlochPoint(0.0, 0.0, 1.0)
        assert euclidean_distance(p, p) == 0.0

    def test_antipodal(self):
        assert euclidean_distance(BlochPoint(0, 0, 1), BlochPoint(0, 0, -1)) == 2.0

    def test_orthogonal_axes(self):
        d = euclidean_distance(BlochPoint(1, 0, 0), BlochPoint(0, 1, 0))
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestSphericalAngles:
    def test_pole_azimuth_normalized(self):
        assert SphericalAngles(0.0, 1.3).phi == 0.0
        assert SphericalAngles(math.pi, 2.0).phi == 0.0
        assert SphericalAngles(1.0, 2.0).phi == 2.0

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            SphericalAngles(-0.1, 0.0)
        with pytest.raises(InvalidInputError):
            SphericalAngles(1.0, 2.0 * math.pi)


class TestAnglesToCodeword:
    def test_north_pole(self):
        c = angles_to_codeword(SphericalAngles(0.0, 0.0))
        assert (c.c0, c.c1) == (1.0, 0.0)

    def test_equator_phi0(self):
        c = angles_to_codeword(SphericalAngles(math.pi / 2.0, 0.0))
        assert c.c0 == pytest.approx(R2, abs=1e-15)
        assert c.c1 == pytest.approx(R2, abs=1e-15)

    def test_equator_phi_quarter(self):
        c = angles_to_codeword(SphericalAngles(math.pi / 2.0, math.pi / 2.0))
        assert c.c1 == pytest.approx(R2 * 1j, abs=1e-15)


class TestCodewordToBloch:
    def test_north_pole(self):
        point, ang = codeword_to_bloch(Codeword(1.0, 0.0))
        assert (point.x, point.y, point.z) == (0.0, 0.0, 1.0)
        assert ang.theta == 0.0 and ang.phi == 0.0

    def test_south_pole_phi_zero(self):
        point, ang = codeword_to_bloch(Codeword(0.0, 1.0))
        assert point.z == pytest.approx(-1.0, abs=1e-12)
        assert ang.theta == pytest.approx(math.pi, abs=1e-12)
        assert ang.phi == 0.0

    def test_equator_imaginary(self):
        point, ang = codeword_to_bloch(Codeword(R2, R2 * 1j))
        assert (point.x, point.y, point.z) == pytest.approx((0, 1, 0), abs=1e-12)
        assert ang.theta == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert ang.phi == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_round_trip_on_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ang = SphericalAngles(rng.uniform(0.05, math.pi - 0.05),
                                  rng.uniform(0.0, 2.0 * math.pi))
            _, back = codeword_to_bloch(angles_to_codeword(ang))
            assert back.theta == pytest.approx(ang.theta, abs=1e-12)
            assert back.phi == pytest.approx(ang.phi, abs=1e-12)


class TestDistanceIdentity:
    def test_euclidean_is_twice_chordal(self):
        cws = random_codewords(400, seed=11)
        for a, b in zip(cws[::2], cws[1::2]):
            pa, _ = codeword_to_bloch(a)
            pb, _ = codeword_to_bloch(b)
            d_e = euclidean_distance(pa, pb)
            d_c = chordal_distance(a, b)
            assert abs(d_e - 2.0 * d_c) <= 1e-12


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
    """Codeword.from_vector projects a received 2-vector onto G(2,1)."""

    def test_common_phase(self):
        c = Codeword.from_vector([2j, 2j])
        assert c.c0 == pytest.approx(R2, abs=1e-15)
        assert c.c1 == pytest.approx(R2, abs=1e-15)

    def test_real_axis(self):
        c = Codeword.from_vector([3.0, 0.0])
        assert (c.c0, c.c1) == (1.0, 0.0)

    def test_zero_first_entry(self):
        c = Codeword.from_vector([0.0, 5j])
        assert (c.c0, c.c1) == (0.0, 1.0)

    def test_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            Codeword.from_vector([0.0, 0.0])

    def test_idempotent_on_canonical(self):
        c = Codeword(0.6, 0.8j)
        again = Codeword.from_vector([c.c0, c.c1])
        assert again.c0 == c.c0 and again.c1 == c.c1
        for cw in random_codewords(50, seed=23):
            back = Codeword.from_vector([cw.c0, cw.c1])
            assert abs(back.c0 - cw.c0) <= 1e-15
            assert abs(back.c1 - cw.c1) <= 1e-15


def rows_of(codewords):
    return np.array([c.vector for c in codewords])


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
            Constellation(rows_of(random_codewords(3, seed=2)), "external", 2)

    def test_shape_must_be_rows_of_two(self):
        with pytest.raises(InvalidInputError):
            Constellation(np.ones((4, 3)), "external", 2)

    def test_array_is_read_only(self):
        x = Constellation(rows_of(random_codewords(4, seed=1)), "external", 2)
        assert x.array.dtype == np.complex128 and x.array.shape == (4, 2)
        with pytest.raises(ValueError):
            x.array[0, 0] = 1.0

    def test_array_matches_scalar_distances(self):
        cws = random_codewords(24, seed=5)
        x = Constellation(rows_of(cws), "external", None)
        brute = min(
            chordal_distance(a, b)
            for i, a in enumerate(cws) for b in cws[i + 1:]
        )
        assert x.min_chordal_distance == pytest.approx(brute, abs=1e-12)

    def test_bloch_array_matches_scalar(self):
        cws = random_codewords(10, seed=9)
        arr = bloch_array(np.array([c.vector for c in cws]))
        for row, c in zip(arr, cws):
            p, _ = codeword_to_bloch(c)
            assert np.allclose(row, [p.x, p.y, p.z], atol=1e-12)


def codeword_row(row):
    """The scalar reference: Codeword's stored vector, or None if it refuses the row."""
    try:
        return Codeword(row[0], row[1]).vector
    except InvalidInputError:
        return None


def scaled(row, norm2):
    k = math.sqrt(norm2)
    return (row[0] * k, row[1] * k)


class TestConstellationRows:
    """The vectorized row check and clamp against the scalar Codeword rules."""

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
        cws = [angles_to_codeword(SphericalAngles(t, p)) for t, p in zip(theta, phi)]
        arr = np.array([c.vector for c in cws])
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
        got = pairwise_min_bloch_dot(points)
        assert abs(got - reference_max_dot(points)) <= 1e-15

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
        assert pairwise_min_bloch_dot(pts) == pytest.approx(expected, abs=1e-15)
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
        assert pairwise_min_bloch_dot(np.empty((0, 3))) == -1.0
        assert pairwise_min_bloch_dot(np.array([[0.0, 0.0, 1.0]])) == -1.0

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
