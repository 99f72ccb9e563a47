import math

import numpy as np
import pytest

from grassbloch import builders
from grassbloch.builders import (
    ball_shrink_factor,
    build_cube_split,
    build_exp_map,
    build_grass_lattice,
    build_man_opt,
    build_s_opt,
    cube_split_map,
    exp_map_constellation,
    exp_map_psk,
    exp_map_qam,
    normal_quantile,
    psk_symbols,
    qam_symbols,
)
from grassbloch.errors import InvalidInputError
from grassbloch.geometry import canonicalize_array, min_chordal_distance_array
from grassbloch.formats import load_packing
from grassbloch.packing import exact_packing, optimize_packing

import os

DATA = os.path.join(os.path.dirname(__file__), "data")


def assert_valid(constellation, count):
    arr = constellation.array
    assert len(arr) == count
    assert np.allclose(np.abs(arr[:, 0]) ** 2 + np.abs(arr[:, 1]) ** 2, 1.0, atol=1e-12)
    assert np.all(arr[:, 0].imag == 0.0)
    assert np.all(arr[:, 0].real >= 0.0)
    assert constellation.min_chordal_distance > 0.0


class TestSOpt:
    def test_two_poles(self):
        x = build_s_opt(exact_packing(2))
        assert np.allclose(sorted(np.abs(x.array[:, 0])), [0.0, 1.0], atol=1e-12)
        assert x.min_chordal_distance == pytest.approx(1.0, abs=1e-12)

    def test_tetrahedron(self):
        x = build_s_opt(exact_packing(4))
        assert x.min_chordal_distance == pytest.approx(math.sqrt(6.0) / 3.0, abs=1e-9)

    def test_icosahedron_attains_bound(self):
        from grassbloch.geometry import fejes_toth_bound
        x = build_s_opt(exact_packing(12))
        assert x.min_chordal_distance == pytest.approx(fejes_toth_bound(12), abs=1e-9)

    @pytest.mark.parametrize("C", [2, 3, 4, 6, 8, 12])
    def test_half_distance_exactly(self, C):
        p = exact_packing(C)
        x = build_s_opt(p)
        assert abs(x.min_chordal_distance - p.min_distance / 2.0) <= 1e-12

    def test_optimized_packing_half_distance(self):
        p = optimize_packing(10, seed=3)
        x = build_s_opt(p)
        assert abs(x.min_chordal_distance - p.min_distance / 2.0) <= 1e-12


class TestManOpt:
    def test_two(self):
        x = build_man_opt(2)
        assert x.min_chordal_distance == pytest.approx(1.0, abs=1e-9)

    def test_four_matches_tetrahedron(self):
        x = build_man_opt(4, seed=0)
        assert x.min_chordal_distance == pytest.approx(math.sqrt(6.0) / 3.0, abs=1e-6)

    def test_sixteen_close_to_reference_table(self):
        ref = load_packing(os.path.join(DATA, "packing16.txt"))
        x = build_man_opt(16, seed=0)
        assert x.min_chordal_distance >= 0.98 * ref.min_distance / 2.0
        assert x.method == "man-opt"


def reference_sweep_scale(make_symbols, lo, hi, steps=200):
    """The exhaustive grid-plus-refine scale search: a full d_min at every
    grid scale and every refine probe, the first scale winning exact ties."""
    best_s, best_d = lo, -1.0

    def probe(s):
        nonlocal best_s, best_d
        d = qam_d_min(make_symbols(s))
        if d > best_d:
            best_s, best_d = s, d

    for s in np.linspace(lo, hi, steps):
        probe(s)
    span = (hi - lo) / (steps - 1)
    for _ in range(30):
        span *= 0.6
        for s in (best_s - span, best_s + span):
            if lo <= s <= hi:
                probe(s)
    return best_s


def qam_d_min(symbols):
    """d_min of the exp-map points of the symbols, as the scale search probes it."""
    return min_chordal_distance_array(canonicalize_array(builders._exp_map_points(symbols)))


def qam_scale_range(m):
    """(lo, hi) of `exp_map_qam`'s scale search for an m x m grid."""
    s_max = (math.pi / 2.0 - 1e-9) / (math.sqrt(2.0) * (m - 1))
    return s_max * 1e-3, s_max


class TestExpMap:
    def test_zero_symbol(self):
        x = build_exp_map([0.0, 1.0])
        assert x.array[0, 0] == 1.0 and x.array[0, 1] == 0.0

    def test_unit_symbol_frozen(self):
        x = build_exp_map([0.0, 1.0])
        assert x.array[1, 0] == pytest.approx(math.cos(1.0), abs=1e-12)
        assert x.array[1, 1] == pytest.approx(-math.sin(1.0), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(InvalidInputError):
            build_exp_map([0.0, 1.6])

    def test_psk_radius_optimizer_vs_sweep(self):
        # oracle: plain 1-D scan of the built minimum distance
        C = 8
        radii = np.arange(1e-3, math.pi / 2 - 1e-9, 1e-3)
        best = max(
            min_chordal_distance_array(build_exp_map(psk_symbols(C, r)).array)
            for r in radii[::5]
        )
        x = exp_map_psk(C)
        assert x.min_chordal_distance >= best - 1e-3

    def test_psk_known_optimum(self):
        # a single ring is widest at the equator, giving sin(pi/C)
        x = exp_map_psk(8)
        assert x.min_chordal_distance == pytest.approx(math.sin(math.pi / 8), abs=1e-6)

    def test_qam_square_only(self):
        with pytest.raises(InvalidInputError):
            exp_map_qam(8)

    def test_qam_16(self):
        x = exp_map_qam(16)
        assert_valid(x, 16)
        assert x.min_chordal_distance > math.sin(math.pi / 16)  # beats one-ring PSK

    @pytest.mark.parametrize("C", [-4, 0, 1, 2, 3])
    def test_qam_too_small(self, C):
        with pytest.raises(InvalidInputError, match=f"not {C}$"):
            exp_map_qam(C)

    @pytest.mark.parametrize("C", [4, 16, 64, 256, 1024])
    def test_sweep_scale_matches_exhaustive(self, C):
        m = round(math.sqrt(C))
        lo, hi = qam_scale_range(m)
        want = reference_sweep_scale(lambda s: qam_symbols(C, s), lo, hi)
        assert builders._sweep_scale(m, lo, hi) == want
        assert np.array_equal(exp_map_qam(C).array, build_exp_map(qam_symbols(C, want)).array)

    @pytest.mark.parametrize("B", [2, 4, 6, 8, 10, 12])
    def test_pair_bound_covers_d_min(self, B):
        # up to s_max, where the four corners close in on the south pole and
        # d_min falls to about 1.4e-9
        m = 2 ** (B // 2)
        scales = np.linspace(*qam_scale_range(m), 400)
        bounds = np.concatenate([builders._pair_bounds(m, scales[i : i + 8]) for i in range(0, 400, 8)])
        d = np.array([qam_d_min(qam_symbols(m * m, s)) for s in scales])
        assert d[-1] < 1e-8
        assert np.all(bounds >= d)

    def test_sweep_scale_probe_count(self, monkeypatch):
        # probing every scale takes 260 full d_min evaluations
        calls = []

        def counting(points):
            calls.append(len(points))
            return min_chordal_distance_array(points)

        monkeypatch.setattr(builders, "min_chordal_distance_array", counting)
        for B in (2, 4, 6, 8, 10, 12):
            calls.clear()
            exp_map_constellation(B)
            assert 0 < len(calls) <= 40, (B, len(calls))

    def test_auto_choice(self):
        assert exp_map_constellation(3).C == 8
        assert exp_map_constellation(4).C == 16

    def test_symbol_helpers(self):
        assert len(psk_symbols(8, 0.5)) == 8
        q = qam_symbols(16, 0.1)
        assert len(q) == 16 and len(set(np.round(q, 12))) == 16


class TestNormalQuantile:
    def test_against_erf_inversion(self):
        # oracle: bisection on the CDF built from math.erf; restricted to the
        # region where the float64 CDF itself resolves x to better than 1e-9
        def cdf(x):
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        for u in (1e-6, 1e-4, 0.2, 0.5, 0.75, 1 - 1e-5, 1 - 1e-6):
            lo, hi = -40.0, 40.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if cdf(mid) < u:
                    lo = mid
                else:
                    hi = mid
            assert normal_quantile(u) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_cdf_round_trip(self):
        us = np.linspace(1e-6, 1.0 - 1e-6, 999)
        xs = normal_quantile(us)
        back = 0.5 * (1.0 + np.vectorize(math.erf)(xs / math.sqrt(2.0)))
        assert np.max(np.abs(back - us)) < 1e-12

    def test_symmetry(self):
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.25) == pytest.approx(-normal_quantile(0.75), abs=1e-14)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            normal_quantile(0.0)
        with pytest.raises(InvalidInputError):
            normal_quantile(1.0)
        with pytest.raises(InvalidInputError):
            normal_quantile(math.nan)
        with pytest.raises(InvalidInputError):
            normal_quantile(np.array([0.3, math.nan]))


def reference_cell_map(a, cell):
    """Straight-line transcription of the cell mapping, kept independent."""
    w = normal_quantile(a[0]) + 1j * normal_quantile(a[1])
    e = math.exp(-abs(w) ** 2 / 2.0)
    t = math.sqrt((1.0 - e) / (1.0 + e)) * (w / abs(w))
    if cell == 1:
        vec = np.array([1.0, t])
    else:
        vec = np.array([t, 1.0])
    return vec / math.sqrt(1.0 + abs(t) ** 2)


class TestCubeSplit:
    def test_single_bit_cell_centers(self):
        x = build_cube_split(1)
        assert np.allclose(x.array, [[1.0, 0.0], [0.0, 1.0]])

    def test_counts_and_structure(self):
        for B in (2, 3, 4, 5, 6):
            x = build_cube_split(B)
            assert_valid(x, 2**B)
            # cell membership shows up in which coordinate dominates
            mags = np.abs(x.array)
            dominant_first = mags[:, 0] > mags[:, 1]
            assert dominant_first.sum() == 2 ** (B - 1)

    def test_map_matches_reference(self):
        rng = np.random.default_rng(8)
        for cell in (1, 2):
            got = cube_split_map((0.25, 0.25), cell)
            want = reference_cell_map((0.25, 0.25), cell)
            assert np.allclose(got, want, atol=1e-12)
            for _ in range(50):
                a = rng.uniform(0.01, 0.99, 2)
                assert np.allclose(
                    cube_split_map(a, cell), reference_cell_map(a, cell), atol=1e-12
                )

    def test_batched_map_matches_reference_rows(self):
        rng = np.random.default_rng(9)
        grid = rng.uniform(0.01, 0.99, (5, 8, 2))
        for cell in (1, 2):
            got = cube_split_map(grid, cell)
            assert got.shape == (5, 8, 2)
            for a, row in zip(grid.reshape(-1, 2), got.reshape(-1, 2)):
                assert np.allclose(row, reference_cell_map(a, cell), atol=1e-12)

    def test_grid_centre_is_basis_vector(self):
        # the quantile of (1/2, 1/2) is 0, so the point is the cell's basis vector
        assert np.array_equal(cube_split_map((0.5, 0.5), 1), [1.0, 0.0])
        assert np.array_equal(cube_split_map(np.full((3, 2), 0.5), 2), [[0.0, 1.0]] * 3)

    def test_bad_cell(self):
        with pytest.raises(InvalidInputError):
            cube_split_map((0.3, 0.3), 3)

    def test_nan_coordinate_rejected(self):
        # a NaN grid value would divide 0/0 on its way into the unit disk
        with pytest.raises(InvalidInputError):
            cube_split_map((math.nan, 0.3), 1)


class TestGrassLattice:
    def test_single_bit_grid(self):
        x = build_grass_lattice(1, alpha=0.25)
        assert_valid(x, 4)
        # grid points 0.25 and 0.75 per axis
        zs = normal_quantile(np.array([0.25, 0.75])) / math.sqrt(2.0)
        mags = sorted(np.abs(x.array[:, 1]))
        t = abs(zs[0] + 1j * zs[0])
        expected_min = t * ball_shrink_factor(t)
        assert mags[0] == pytest.approx(expected_min, abs=1e-12)

    def test_first_entry_positive(self):
        x = build_grass_lattice(2)
        assert np.all(x.array[:, 0].real > 0.0)

    def test_alpha_domain(self):
        with pytest.raises(InvalidInputError):
            build_grass_lattice(1, alpha=0.5)
        with pytest.raises(InvalidInputError):
            build_grass_lattice(1, alpha=0.0)

    def test_shrink_factor_small_argument(self):
        # series sqrt(1 - exp(-t^2))/t = 1 - t^2/4 + O(t^4)
        for t in (1e-8, 1e-5, 1e-3):
            val = float(ball_shrink_factor(t))
            assert math.isfinite(val)
            assert val == pytest.approx(1.0 - t * t / 4.0, abs=1e-9)

    def test_shrink_factor_moderate(self):
        t = 0.8
        assert ball_shrink_factor(t) == pytest.approx(
            math.sqrt(1.0 - math.exp(-t * t)) / t, abs=1e-15
        )

    def test_counts(self):
        for br in (1, 2, 3):
            assert_valid(build_grass_lattice(br), 4**br)
