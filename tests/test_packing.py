import math
import os

import numpy as np
import pytest

from grassbloch.errors import FormatError, InvalidInputError, UnsupportedError
from grassbloch.geometry import fejes_toth_bound, min_euclidean_distance_array
from grassbloch.packing import (
    PackingSet,
    exact_packing,
    fibonacci_points,
    load_packing,
    optimize_packing,
    save_packing,
    softmin_objective,
)

DATA = os.path.join(os.path.dirname(__file__), "data")

TETRA = 2.0 * math.sqrt(2.0 / 3.0)
ANTIPRISM = 2.0 * math.sqrt((4.0 - math.sqrt(2.0)) / 7.0)
ICOSA = 2.0 * fejes_toth_bound(12)


class TestExactPacking:
    @pytest.mark.parametrize("C,expected", [
        (2, 2.0),
        (3, math.sqrt(3.0)),
        (4, TETRA),
        (6, math.sqrt(2.0)),
        (8, ANTIPRISM),
        (12, ICOSA),
    ])
    def test_min_distances(self, C, expected):
        p = exact_packing(C)
        assert p.C == C
        assert p.min_distance == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("C", [3, 4, 6, 12])
    def test_attains_bound(self, C):
        assert exact_packing(C).min_distance == pytest.approx(
            2.0 * fejes_toth_bound(C), abs=1e-9
        )

    def test_eight_below_bound(self):
        assert exact_packing(8).min_distance < 2.0 * fejes_toth_bound(8) - 1e-3

    def test_unsupported_count(self):
        with pytest.raises(UnsupportedError):
            exact_packing(5)


class TestOptimizePacking:
    def test_rediscovers_tetrahedron(self):
        p = optimize_packing(4, seed=0)
        assert p.min_distance >= TETRA - 1e-6

    def test_five_points(self):
        # the best five-point spread is a square pyramid at 90 degrees
        p = optimize_packing(5, seed=0)
        assert p.min_distance == pytest.approx(math.sqrt(2.0), abs=1e-4)

    def test_rediscovers_icosahedron(self):
        p = optimize_packing(12, seed=0)
        assert p.min_distance >= ICOSA - 1e-4

    def test_reproducible_bitwise(self):
        a = optimize_packing(7, seed=9)
        b = optimize_packing(7, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_seed_changes_result(self):
        a = optimize_packing(7, seed=1)
        b = optimize_packing(7, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_all_pairs_respect_min(self):
        p = optimize_packing(9, seed=0)
        d = min_euclidean_distance_array(p.points)
        assert d == pytest.approx(p.min_distance, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(InvalidInputError):
            optimize_packing(1)


def test_softmin_counts_all_pairs():
    pts = fibonacci_points(9)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    val, pairs = softmin_objective(pts, 0.05)
    assert pairs == 9 * 8 // 2
    assert val <= min_euclidean_distance_array(pts)


class TestPackingSet:
    def test_rejects_cached_mismatch(self):
        pts = exact_packing(4).points
        with pytest.raises(InvalidInputError):
            PackingSet(pts, "exact", 1.0)

    def test_rejects_non_unit(self):
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
        with pytest.raises(InvalidInputError):
            PackingSet(pts, "exact", 4.0)

    def test_rejects_nan_point(self):
        pts = exact_packing(4).points.copy()
        pts[1] = np.nan
        with pytest.raises(InvalidInputError):
            PackingSet(pts, "exact", 2.0)

    def test_rejects_nan_cached_distance(self):
        with pytest.raises(InvalidInputError):
            PackingSet(exact_packing(4).points, "exact", float("nan"))


class TestLoadPacking:
    def test_two_antipodal(self, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("0 0 1\n0 0 -1\n")
        p = load_packing(f)
        assert p.C == 2 and p.min_distance == pytest.approx(2.0)
        assert p.source == "file"

    def test_header_and_comments(self, tmp_path):
        f = tmp_path / "hdr.txt"
        f.write_text("# a comment\n2\n0 0 1\n0 0 -1  # inline\n")
        assert load_packing(f).C == 2

    def test_header_mismatch(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3\n0 0 1\n0 0 -1\n")
        with pytest.raises(FormatError):
            load_packing(f)

    def test_duplicate_rejected(self, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("0 0 1\n0 0 1\n")
        with pytest.raises(FormatError):
            load_packing(f)

    def test_bad_norm_rejected_with_line(self, tmp_path):
        f = tmp_path / "norm.txt"
        f.write_text("0 0 1\n0 0 1.001\n")
        with pytest.raises(FormatError) as err:
            load_packing(f)
        assert err.value.line == 2

    def test_nan_rejected_with_line(self, tmp_path):
        f = tmp_path / "nan_row.txt"
        f.write_text("3\n0 0 1\nnan 0 0\n1 0 0\n")
        with pytest.raises(FormatError) as err:
            load_packing(f)
        assert err.value.line == 3

    def test_small_norm_drift_renormalized(self, tmp_path):
        f = tmp_path / "drift.txt"
        f.write_text("0 0 1.0000005\n0 0 -1\n")
        p = load_packing(f)
        assert np.allclose(np.linalg.norm(p.points, axis=1), 1.0, atol=1e-12)

    def test_non_numeric(self, tmp_path):
        f = tmp_path / "nan.txt"
        f.write_text("0 0 one\n0 0 -1\n")
        with pytest.raises(FormatError) as err:
            load_packing(f)
        assert err.value.line == 1

    def test_icosahedron_file_round_trip(self, tmp_path):
        f = tmp_path / "ico.txt"
        save_packing(f, exact_packing(12))
        p = load_packing(f)
        assert p.min_distance == pytest.approx(ICOSA, abs=1e-9)

    def test_frozen_sixteen(self):
        p = load_packing(os.path.join(DATA, "packing16.txt"))
        assert p.C == 16
        assert p.min_distance > 0.87
