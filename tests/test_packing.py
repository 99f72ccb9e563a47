import functools
import math
import os
import tracemalloc

import numpy as np
import pytest

from grassbloch import packing
from grassbloch.errors import FormatError, InvalidInputError, UnsupportedError
from grassbloch.geometry import fejes_toth_bound, min_euclidean_distance_array
from grassbloch.packing import (
    PackingConfig,
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

LIGHT = PackingConfig(starts=1, phase1_iters=150, phase2_sweeps=250)
TWO_STARTS = PackingConfig(starts=2, phase1_iters=150, phase2_sweeps=250)
ONE_ITER = PackingConfig(starts=1, phase1_iters=1, phase2_sweeps=250)
#: enough sweeps that the polish of a small set ends on the step bound
TO_MIN_STEP = PackingConfig(starts=1, phase1_iters=150, phase2_sweeps=2000)


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

    @pytest.mark.parametrize("budget", [
        {"starts": 0}, {"starts": -3}, {"phase1_iters": -5}, {"phase2_sweeps": -1},
    ])
    def test_rejects_invalid_budget(self, budget):
        with pytest.raises(InvalidInputError):
            PackingConfig(**budget)

    def test_zero_phase_budgets_allowed(self):
        p = optimize_packing(7, seed=0, config=PackingConfig(1, 0, 0))
        assert p.min_distance > 0.0

    def test_keeps_the_benchmark_construct_floor(self):
        # s-opt -B 9 of the benchmark's construct workload: the packing's
        # minimum distance is twice the constellation's chordal d_min, which
        # the benchmark holds to within 1e-9 of 0.07923886313244705
        p = optimize_packing(512, seed=0, config=LIGHT)
        assert p.min_distance >= 0.1584777262648934 * (1.0 - 1e-12)

    def test_optimizer_memory_is_bounded(self):
        # a handful of C x C float64 buffers per phase, not fresh temporaries
        # for every elementwise step
        C = 512
        tracemalloc.start()
        try:
            optimize_packing(C, seed=0, config=PackingConfig(1, 20, 20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * C * C * 8


# Dense reference for the two optimizer phases: fresh arrays for every step
# and a new distance matrix for every sweep. The buffered phases in `packing`
# must reproduce its points bit for bit.


def reference_pairwise_distances(points):
    dots = np.clip(points @ points.T, -1.0, 1.0)
    np.fill_diagonal(dots, 1.0)
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots))


def reference_softmin_phase(points, cfg):
    decay = (packing._EPS_FINAL / packing._EPS_START) ** (1.0 / max(cfg.phase1_iters - 1, 1))
    d = reference_pairwise_distances(points)
    np.fill_diagonal(d, np.inf)
    eps = packing._EPS_START * float(d.min())
    for _ in range(cfg.phase1_iters):
        d = reference_pairwise_distances(points)
        np.fill_diagonal(d, np.inf)
        dmin = float(d.min())
        w = np.exp(-(d - dmin) / eps)
        np.fill_diagonal(w, 0.0)
        w /= w.sum()
        inv = np.where(d > 0, 1.0 / d, 0.0)
        coef = w * inv
        g = points * coef.sum(axis=1)[:, None] - coef @ points
        g = packing._project_tangent(points, g)
        gmax = float(np.abs(g).max())
        if gmax > 0:
            points = packing._renormalize(points + (packing._STEP_SCALE * eps / gmax) * g)
        eps *= decay
    return points


def reference_maximin_polish(points, cfg, stops):
    """`stops` receives why the polish ended: "step" or "budget"."""
    step = packing._PHASE2_STEP
    d = reference_pairwise_distances(points)
    np.fill_diagonal(d, np.inf)
    best_f = float(d.min())
    best_points = points.copy()
    stop = "budget"
    for _ in range(cfg.phase2_sweeps):
        if step < packing._MIN_STEP:
            stop = "step"
            break
        d = reference_pairwise_distances(best_points)
        np.fill_diagonal(d, np.inf)
        f = float(d.min())
        nn = d.min(axis=1)
        slack = min(0.05, max(2.0 * step, 1e-12))
        active = nn <= f * (1.0 + slack)
        near = d <= (nn * (1.0 + slack))[:, None]
        weight = np.where(np.isfinite(d) & near,
                          (nn * (1.0 + slack))[:, None] - d, 0.0)
        inv = np.where(weight > 0, weight / np.maximum(d, 1e-15), 0.0)
        g = best_points * inv.sum(axis=1)[:, None] - inv @ best_points
        g = packing._project_tangent(best_points, g)
        norms = np.linalg.norm(g, axis=1)
        move = active & (norms > 0)
        if not np.any(move):
            step *= 0.5
            continue
        g[move] /= norms[move][:, None]
        g[~move] = 0.0
        trial = packing._renormalize(best_points + (step * f) * g)
        dt = reference_pairwise_distances(trial)
        np.fill_diagonal(dt, np.inf)
        ft = float(dt.min())
        if ft > best_f:
            best_points = trial
            best_f = ft
            step = min(step * 1.3, packing._PHASE2_STEP)
        else:
            step *= 0.5
    stops.append(stop)
    return best_points


ORACLE_GRID = (
    [(C, seed, cfg) for C in (3, 5, 16, 33, 100) for seed in (0, 7)
     for cfg in (LIGHT, TWO_STARTS, ONE_ITER)]
    + [(C, seed, TO_MIN_STEP) for C in (5, 16) for seed in (0, 7)]
    + [(512, 0, LIGHT), (512, 7, LIGHT)]
)


@pytest.mark.parametrize("C, seed, cfg", ORACLE_GRID, ids=[
    f"C{C}-seed{seed}-{cfg.starts}/{cfg.phase1_iters}/{cfg.phase2_sweeps}"
    for C, seed, cfg in ORACLE_GRID])
def test_optimizer_matches_dense_reference(monkeypatch, C, seed, cfg):
    got = optimize_packing(C, seed=seed, config=cfg)
    stops = []
    monkeypatch.setattr(packing, "_softmin_phase", reference_softmin_phase)
    monkeypatch.setattr(packing, "_maximin_polish",
                        functools.partial(reference_maximin_polish, stops=stops))
    want = optimize_packing(C, seed=seed, config=cfg)
    assert np.array_equal(got.points, want.points)
    assert got.min_distance == want.min_distance
    assert len(stops) == cfg.starts
    if cfg is TO_MIN_STEP:
        assert stops == ["step"]


def test_softmin_counts_all_pairs():
    pts = fibonacci_points(9)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    val, pairs = softmin_objective(pts, 0.05)
    assert pairs == 9 * 8 // 2
    assert val <= min_euclidean_distance_array(pts)


class TestPackingSet:
    @pytest.mark.parametrize("make", [lambda: exact_packing(12).points,
                                      lambda: fibonacci_points(50)])
    def test_min_distance_is_derived(self, make):
        p = make()
        p = p / np.linalg.norm(p, axis=1)[:, None]
        assert PackingSet(p).min_distance == min_euclidean_distance_array(p)

    def test_rejects_non_unit(self):
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
        with pytest.raises(InvalidInputError):
            PackingSet(pts)

    def test_rejects_nan_point(self):
        pts = exact_packing(4).points.copy()
        pts[1] = np.nan
        with pytest.raises(InvalidInputError):
            PackingSet(pts)

    def test_rejects_duplicate(self):
        pts = exact_packing(4).points.copy()
        pts[2] = pts[0]
        with pytest.raises(InvalidInputError, match="duplicate"):
            PackingSet(pts)


class TestLoadPacking:
    def test_two_antipodal(self, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("0 0 1\n0 0 -1\n")
        p = load_packing(f)
        assert p.C == 2 and p.min_distance == pytest.approx(2.0)

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

    def test_duplicate_through_cli_exits_3(self, tmp_path):
        from grassbloch.cli import main

        f = tmp_path / "dup4.txt"
        f.write_text("0 0 1\n0 0 -1\n1 0 0\n0 0 1\n")
        assert main(["construct", "--method", "s-opt", "-B", "2", "--packing-file",
                     str(f), "-o", str(tmp_path / "s.json")]) == 3

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
