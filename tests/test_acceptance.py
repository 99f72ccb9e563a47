"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The suite is self-contained
but heavier than the unit tests (several minutes; Monte Carlo cells use 1e5
seeded trials each).
"""

import math

import numpy as np
import pytest

from grassbloch import packing
from grassbloch.builders import (
    build_cube_split,
    build_grass_lattice,
    build_man_opt,
    build_s_opt,
    exp_map_constellation,
)
from grassbloch.channel import bench_detectors, run_ser
from grassbloch.detectors import GlrtDetector, ZoptDetector
from grassbloch.geometry import bloch_array, fejes_toth_bound
from grassbloch.packing import EXACT_COUNTS, PackingConfig, exact_packing, optimize_packing, fibonacci_points
from grassbloch.zopt import build_z_opt, candidate_distances, zopt_structure

SEED = 20240811

# lighter optimizer settings for the large constructions; compliance with the
# distance bound does not depend on packing quality
LIGHT = PackingConfig(starts=1, phase1_iters=150, phase2_sweeps=250)
MID = PackingConfig(starts=2, phase1_iters=300, phase2_sweeps=600)


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    return ok


def _packing_for(C, seed=SEED):
    if C in EXACT_COUNTS:
        return exact_packing(C)
    cfg = LIGHT if C >= 256 else MID
    return optimize_packing(C, seed=seed, config=cfg)


@pytest.fixture(scope="module")
def zopts():
    return {B: build_z_opt(B) for B in range(1, 13)}


@pytest.fixture(scope="module")
def families46(zopts):
    out = {}
    for B in (4, 6):
        C = 2**B
        out[("s-opt", B)] = build_s_opt(_packing_for(C))
        out[("z-opt", B)] = zopts[B]
        out[("man-opt", B)] = build_man_opt(C, seed=SEED + 1, config=MID)
        out[("exp-map", B)] = exp_map_constellation(B)
        out[("cube-split", B)] = build_cube_split(B)
        out[("grass-lattice", B)] = build_grass_lattice(B // 2)
    return out


def test_criterion_1_distance_identity():
    rng = np.random.default_rng(SEED)
    n = 10000
    theta = np.arccos(rng.uniform(-1.0, 1.0, 2 * n))
    phi = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
    pts = np.column_stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    a, b = pts[:n], pts[n:]
    inner = np.abs(np.sum(np.conj(a) * b, axis=1))
    d_c = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(inner, 1.0) ** 2))
    d_e = np.linalg.norm(bloch_array(a) - bloch_array(b), axis=1)
    worst = float(np.max(np.abs(d_e - 2.0 * d_c)))
    ok = worst <= 1e-12
    assert report(1, ok, f"max |d_E - 2 d_c| = {worst:.2e} over {n} random pairs")


def test_criterion_2_bound_attainment(zopts):
    details = []
    ok = True
    for C in (3, 4, 6, 12):
        d = build_s_opt(exact_packing(C)).min_chordal_distance
        b = fejes_toth_bound(C)
        ok &= abs(d - b) <= 1e-9
        details.append(f"C={C}: |d-b|={abs(d - b):.1e}")
    closed = {1: 1.0, 2: math.sqrt(6.0) / 3.0, 3: math.sqrt((4.0 - math.sqrt(2.0)) / 7.0)}
    for B, expected in closed.items():
        d = zopts[B].min_chordal_distance
        ok &= abs(d - expected) <= 1e-9
        details.append(f"B={B}: |d-closed|={abs(d - expected):.1e}")
    assert report(2, ok, "; ".join(details))


def test_criterion_3_bound_compliance(zopts, families46):
    checked = 0
    worst = -np.inf
    ok = True
    for B in range(1, 11):
        C = 2**B
        sets = [build_s_opt(_packing_for(C)),
                build_man_opt(C, seed=SEED + 2, config=LIGHT if C >= 256 else MID),
                exp_map_constellation(B),
                build_cube_split(B)]
        sets.append(zopts[B])
        if B % 2 == 0:
            sets.append(build_grass_lattice(B // 2))
        for x in sets:
            bound = fejes_toth_bound(C) if C >= 3 else 1.0
            margin = x.min_chordal_distance - bound
            worst = max(worst, margin)
            ok &= margin <= 1e-9
            checked += 1
    assert report(3, ok, f"{checked} constellations, worst d_min - bound = {worst:.2e}")


def test_criterion_4_zopt_near_optimality(zopts):
    ratios = {}
    consistency_ok = True
    for B in range(1, 13):
        z = zopts[B]
        d = z.min_chordal_distance
        cd = candidate_distances(z.theta[: z.structure.n_v], z.structure)
        consistency_ok &= abs(cd.minimum / 2.0 - d) <= 1e-12
        if 2**B >= 3:
            ratios[B] = d / fejes_toth_bound(2**B)
    print("  achieved ratio per B:",
          {B: round(r, 4) for B, r in ratios.items()})
    threshold_ok = all(ratios[B] >= 0.90 for B in range(4, 9))
    detail = (f"candidate-vs-all-pairs consistent B=1..12: {consistency_ok}; "
              f"ratio >= 0.90 for B=4..8: {threshold_ok} "
              f"(B=7 doubled-cap structure reaches {ratios[7]:.4f})")
    ok = consistency_ok and threshold_ok
    assert report(4, ok, detail)


def test_criterion_5_sopt_detector_equivalence(families46):
    trials = 100000
    cells = 0
    mismatches = 0
    for (family, B), x in families46.items():
        for N in (1, 2, 4):
            for i_snr, snr in enumerate((0.0, 10.0, 20.0)):
                rep = bench_detectors(
                    x, ["glrt", "sopt"], trials=trials, N=N,
                    seed=SEED + 17 * i_snr, snr_db=snr,
                )
                mismatches += rep[1].mismatches_vs_first
                cells += 1
    ok = mismatches == 0
    assert report(5, ok,
                  f"{cells} cells x {trials} trials: {mismatches} decision mismatches")


def test_criterion_6_zopt_detector_equivalence(zopts):
    trials = 100000
    cells = 0
    mismatches = 0
    max_evals = 0
    for B in range(1, 13):
        z = zopts[B]
        for N in (1, 2, 4):
            for i_snr, snr in enumerate((0.0, 10.0, 20.0)):
                rep = bench_detectors(
                    z, ["glrt", "zopt"], trials=trials, N=N,
                    seed=SEED + 31 * i_snr + B, snr_db=snr,
                )
                mismatches += rep[1].mismatches_vs_first
                max_evals = max(max_evals, rep[1].max_distance_evals)
                cells += 1
    ok = mismatches == 0 and max_evals <= 4
    assert report(6, ok,
                  f"{cells} cells x {trials} trials: {mismatches} mismatches, "
                  f"max distance evals {max_evals}")


def test_criterion_7_complexity_counters(zopts):
    # exhaustive detector: mean distance evaluations exactly C
    glrt_ok = True
    for B in (4, 6, 8):
        rep = bench_detectors(zopts[B], ["glrt"], trials=5000, N=1, seed=SEED)
        glrt_ok &= rep[0].mean_distance_evals == float(2**B)

    # tree detector: comparisons fit a + b log2(C) with small relative residual
    Bs = list(range(4, 13))
    comps = []
    for B in Bs:
        rep = bench_detectors(zopts[B], ["sopt"], trials=20000, N=2,
                              seed=SEED + B, snr_db=10.0)
        comps.append(rep[0].mean_comparisons)
    A = np.column_stack([np.ones(len(Bs)), np.asarray(Bs, float)])
    coef, *_ = np.linalg.lstsq(A, np.asarray(comps), rcond=None)
    resid = float(np.linalg.norm(comps - A @ coef) / np.linalg.norm(comps))
    fit_ok = resid < 0.20

    # layered detector: distance evaluations bounded by 4 regardless of C
    zopt_ok = True
    for B in (4, 8, 12):
        rep = bench_detectors(zopts[B], ["zopt"], trials=20000, N=1,
                              seed=SEED + B, snr_db=0.0)
        zopt_ok &= rep[0].max_distance_evals <= 4
    ok = glrt_ok and fit_ok and zopt_ok
    assert report(7, ok,
                  f"glrt mean evals == C: {glrt_ok}; comparisons fit "
                  f"a={coef[0]:.2f}, b={coef[1]:.2f}, rel resid={resid:.3f}; "
                  f"layered evals <= 4: {zopt_ok}")


def test_criterion_8_construction_cost_counts():
    table_nv = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 5, 8: 8, 9: 16,
                10: 16, 11: 32, 12: 32, 13: 64, 14: 64, 15: 128, 16: 128}
    ok = True
    for B in range(1, 17):
        s = zopt_structure(B)
        ok &= s.n_v == table_nv[B]
        if B >= 4:
            free = np.linspace(0.2, math.pi / 2 - 0.1, s.n_v)
            cd = candidate_distances(free, s)
            expected = 2 * s.n_v + (3 if B == 5 else 1 if B == 7 else 0)
            ok &= cd.count == expected
        # layered optimization touches n_v variables; the direct approach
        # moves every point with two free angles, i.e. 2C variables
        ok &= 2 * s.C == 2 * 2**B
    # phase 1's own kernel weighs every pair of 24 points, and no point with itself
    pts = fibonacci_points(24)
    gram, w = packing._gram_buffer(24)
    packing._softmin_weights(packing._pairwise_distances(pts, gram, np.empty((24, 24))), 0.1, w)
    ok &= np.count_nonzero(w) // 2 == 24 * 23 // 2 and not w.diagonal().any()
    assert report(8, ok,
                  "candidate evals per call = 2 n_v (+3 halved caps, +1 doubled caps), "
                  f"phase 1 weighs all C(C-1)/2 pairs, n_v column matches for B<=16: {ok}")


def test_criterion_9_ser_behavior(zopts, families46):
    trials = 400000
    snrs = [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]
    curve = run_ser(zopts[6], "zopt", snrs, trials=100000, N=2, seed=SEED)
    monotone = all(a >= b for a, b in zip(curve.ser, curve.ser[1:]))

    ser = {}
    sigma = {}
    for fam in ("s-opt", "z-opt", "cube-split", "exp-map"):
        c = run_ser(families46[(fam, 6)], "glrt", [20.0], trials=trials,
                    N=2, seed=SEED)
        ser[fam] = c.ser[0]
        sigma[fam] = math.sqrt(max(c.ser[0] * (1 - c.ser[0]), 1e-12) / trials)

    def ordered(a, b):
        # ordering must hold beyond the combined binomial error bars
        return ser[a] <= ser[b] + 3.0 * math.hypot(sigma[a], sigma[b])

    order_ok = (ordered("s-opt", "z-opt") and ordered("z-opt", "cube-split")
                and ordered("s-opt", "exp-map"))
    ok = monotone and order_ok
    assert report(
        9, ok,
        f"SER non-increasing over {snrs}: {monotone}; at 20 dB "
        + ", ".join(f"{k}={v:.5f}" for k, v in ser.items()),
    )


def test_criterion_10_anchor_table_voronoi(zopts):
    from test_detectors import anchor_table, geometric_anchor_table

    ok = True
    for B in range(1, 9):
        z = zopts[B]
        ok &= np.array_equal(anchor_table(z.structure), geometric_anchor_table(z))

        # dense interior sampling labeled by the exhaustive detector
        s = z.structure
        glrt = GlrtDetector(z)
        det = ZoptDetector(z)
        edges = np.concatenate([[0.0], z.theta, [math.pi]])
        t_samples = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            t_samples.extend(np.linspace(lo, hi, 6)[1:-1] + 1e-4)
        h = math.pi / s.z_max
        p_samples = []
        for j0 in range(2 * s.z_max):
            p_samples.extend(j0 * h + np.array([0.137, 0.519, 0.871]) * h)
        tt, pp = np.meshgrid(np.asarray(t_samples), np.asarray(p_samples),
                             indexing="ij")
        v = np.column_stack([
            np.cos(tt.ravel() / 2.0),
            np.exp(1j * pp.ravel()) * np.sin(tt.ravel() / 2.0),
        ])
        gi, _, _ = glrt.detect_batch(v[:, :, None])
        zi, evals, _ = det.detect_batch(v[:, :, None])
        ok &= np.array_equal(gi, zi) and evals.max() <= 4
    assert report(10, ok, "closed-form anchors match geometry and the "
                          "exhaustive labels on every sampled grid cell, B=1..8")
