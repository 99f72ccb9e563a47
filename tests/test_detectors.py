import math
import tracemalloc

import numpy as np
import pytest

from grassbloch.builders import build_s_opt
from grassbloch.channel import bench_detectors, make_detector
from grassbloch.detectors import (
    GlrtDetector,
    SoptDetector,
    ZoptDetector,
    _checked,
    _gram_parts,
    _score_matrix_parts,
    azimuth_region,
    cell_vertex,
    polar_region,
    rough_estimate,
)
from grassbloch.errors import DegenerateInputError, InvalidInputError
from grassbloch.geometry import Constellation, canonicalize_array
from grassbloch.packing import exact_packing
from grassbloch.zopt import (
    ZOptConstellation,
    ZOptStructure,
    build_z_opt,
    expand_theta,
    layer_azimuths,
    optimize_zopt,
    zopt_structure,
)

#: searched structures with k half rings per cap: B = 9 (k = 3) and B = 11 (k = 7)
K_CAP_ROWS = [(16,) * 3 + (32,) * 13 + (16,) * 3, (32,) * 7 + (64,) * 25 + (32,) * 7]


def noiseless_observation(codeword_row, h=0.8 - 0.6j, N=1):
    x = np.asarray(codeword_row).reshape(2, 1)
    hrow = np.full((1, N), h, dtype=np.complex128)
    return math.sqrt(2.0) * x @ hrow


class TestRoughEstimate:
    def test_single_column_passthrough(self):
        y = np.array([[1.0], [1j]])
        est = rough_estimate(y)
        assert np.array_equal(est, y[:, 0])

    def test_rank_one_recovery(self):
        x = np.array([0.6, 0.8j])
        Y = np.outer(x, [1.0, 2.0, -1j])
        est = rough_estimate(Y)
        inner = abs(np.vdot(est, x) / np.linalg.norm(x))
        assert inner == pytest.approx(1.0, abs=1e-9)

    def test_identity_tie_rule(self):
        est = rough_estimate(np.eye(2, dtype=complex))
        assert np.array_equal(est, [1.0 + 0j, 0.0 + 0j])

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            rough_estimate(np.zeros((2, 2)))


class TestGlrt:
    def test_noiseless_every_codeword(self):
        x = build_s_opt(exact_packing(8))
        det = GlrtDetector(x)
        for i, row in enumerate(x.array):
            res = det.detect(noiseless_observation(row, N=3))
            assert res.index == i
            assert res.distance_evals == len(x)

    def test_two_poles(self):
        x = Constellation([[1.0, 0.0], [0.0, 1.0]], "external", 1)
        res = GlrtDetector(x).detect(np.array([[1.0], [0.1]]))
        assert res.index == 0

    def test_counter_is_size(self):
        x = build_s_opt(exact_packing(12))
        res = GlrtDetector(x).detect(noiseless_observation(x.array[3]))
        assert res.distance_evals == 12 and res.comparisons == 12

    def test_score_memory_is_bounded(self):
        # 4096 rows at C = 4096: one (rows, C) score matrix would take 128 MiB
        det = GlrtDetector(build_z_opt(12))
        Ys = np.random.default_rng(40).standard_normal((4096, 2, 2, 2)) @ [1.0, 1j]
        tracemalloc.start()
        try:
            idx, evals, comps = det.detect_batch(Ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        want = [det.detect(Y) for Y in Ys]
        assert idx.tolist() == [r.index for r in want]
        assert evals.tolist() == [r.distance_evals for r in want]
        assert comps.tolist() == [r.comparisons for r in want]


    @pytest.mark.parametrize("B, rows", [(6, 2 * 2048 + 5), (9, 1000), (12, 1000)])
    def test_blocks_match_one_product(self, B, rows):
        # block sizes 2048, 256 and 32 rows; no row count is a multiple
        x = build_z_opt(B)
        Ys = np.random.default_rng(B).standard_normal((rows, 2, 2, 2)) @ [1.0, 1j]
        g00, g11, g01 = _gram_parts(Ys)
        A = np.column_stack([g00, g11, 2.0 * g01.real, -2.0 * g01.imag])
        want = np.argmax(A @ _score_matrix_parts(x.array), axis=1)
        idx, evals, comps = GlrtDetector(x).detect_batch(Ys)
        assert np.array_equal(idx, want)
        assert evals.tolist() == comps.tolist() == [len(x)] * rows


class TestSopt:
    def test_noiseless(self):
        x = build_s_opt(exact_packing(12))
        det = SoptDetector(x)
        for i, row in enumerate(x.array):
            assert det.detect(noiseless_observation(row, N=2)).index == i

    def test_functional_entry(self):
        x = build_s_opt(exact_packing(4))
        res = SoptDetector(x).detect(noiseless_observation(x.array[2]))
        assert res.index == 2
        assert res.comparisons >= 1

    def test_tie_to_lowest_index(self):
        x = Constellation([[1.0, 0.0], [0.0, 1.0]], "external", 1)
        # equator point is equidistant from both poles
        res = SoptDetector(x).detect(np.array([[1.0], [1.0]]) / math.sqrt(2.0))
        assert res.index == 0

    def test_agrees_with_glrt_on_noise(self):
        x = build_s_opt(exact_packing(8))
        rep = bench_detectors(x, ["glrt", "sopt"], trials=5000, N=2, seed=1, snr_db=5.0)
        assert rep[1].mismatches_vs_first == 0

    def test_agrees_with_glrt_on_arbitrary_constellation(self):
        # the tree detector is not tied to any construction
        rng = np.random.default_rng(77)
        raw = rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2))
        x = Constellation(canonicalize_array(raw), "external", 5)
        for N in (1, 2):
            rep = bench_detectors(x, ["glrt", "sopt"], trials=20000, N=N,
                                  seed=4, snr_db=8.0)
            assert rep[1].mismatches_vs_first == 0


class TestRegions:
    def test_azimuth_zero(self):
        assert azimuth_region(0.0, 8) == 0

    def test_azimuth_example(self):
        assert azimuth_region(0.5, 8) == 1  # 0.5 / (pi/8) = 1.27...

    def test_azimuth_near_wrap(self):
        assert azimuth_region(2.0 * math.pi - 1e-12, 8) == 15

    def test_azimuth_wraps_exact_two_pi(self):
        assert azimuth_region(2.0 * math.pi, 8) == 0

    def test_polar_below_and_above(self):
        theta = np.array([0.5, 1.2, 1.94, 2.64])
        assert polar_region(0.3, theta) == 0
        assert polar_region(3.0, theta) == 4
        assert polar_region(1.0, theta) == 1

    def test_polar_counts_strictly_less(self):
        theta = np.array([0.5, 1.2])
        assert polar_region(1.2, theta) == 1

    def test_batched_match_scalars(self):
        phis = np.array([0.0, 0.5, 2.0 * math.pi - 1e-12, 2.0 * math.pi])
        assert azimuth_region(phis, 8).tolist() == [0, 1, 15, 0]
        theta = np.array([0.5, 1.2, 1.94, 2.64])
        assert polar_region(np.array([0.3, 3.0, 1.0, 1.2]), theta).tolist() == [0, 4, 1, 1]


def geometric_anchor_table(z):
    """Independent anchor table from the layer geometry itself."""
    s = z.structure
    h = math.pi / s.z_max
    table = np.zeros((s.l + 1, 2 * s.z_max), dtype=np.int64)
    for i in range(s.l + 1):
        layer = max(i, 1)
        phis = layer_azimuths(s, layer)
        for j0 in range(2 * s.z_max):
            center = (j0 + 0.5) * h
            gaps = np.abs(phis - center)
            gaps = np.minimum(gaps, 2.0 * math.pi - gaps)
            n = int(np.argmin(gaps))
            table[i, j0] = z.structure.layer_offsets[layer - 1] + n + 1
    return table


def reference_half_layers(s):
    """Rings of z_max / 2 points in each polar cap, counted from the top."""
    n = 0
    while n < s.l // 2 and 2 * s.Z_l[n] == s.z_max:
        n += 1
    return n


def reference_ring_step(ic, l, half_layers):
    """Sectors between neighboring points of 1-based layer ic: 4 in the
    `half_layers` cap rings at each pole, 2 elsewhere."""
    if not half_layers:
        return 2
    return np.where((ic <= half_layers) | (ic > l - half_layers), 4, 2)


def reference_cell_vertex(i, j0, z_max, l, half_layers):
    """The cell map written out per cap shape: the reference for `cell_vertex`.

    Every layer above the anchor's counts z_max codewords, less z_max / 2
    for each cap ring among them.
    """
    layer = np.maximum(np.asarray(i, dtype=np.int64), 1)
    j0 = np.asarray(j0, dtype=np.int64)
    m = reference_ring_step(layer, l, half_layers)
    b = 1 - layer % 2
    k = (2 * j0 + 1 - 2 * b + m) // (2 * m)
    index = (layer - 1) * z_max + k % (2 * z_max // m) + 1
    if half_layers:
        halves_above = (np.minimum(layer - 1, half_layers)
                        + np.maximum(layer - 1 - (l - half_layers), 0))
        index -= halves_above * (z_max // 2)
    return index, b + m * k


def k_cap_constellation(Z_l):
    s = ZOptStructure(Z_l)
    return ZOptConstellation(s, expand_theta(optimize_zopt(s), s))


class TestAnchorClosedForm:
    @pytest.mark.parametrize("B", list(range(1, 9)))
    def test_matches_geometry(self, B):
        z = build_z_opt(B)
        assert np.array_equal(ZoptDetector(z).anchor_table(), geometric_anchor_table(z))

    @pytest.mark.parametrize("Z_l", [zopt_structure(B).Z_l for B in range(1, 17)] + K_CAP_ROWS)
    def test_matches_cap_shape_reference(self, Z_l):
        s = ZOptStructure(Z_l)
        ii, jj = np.meshgrid(np.arange(s.l + 1), np.arange(2 * s.z_max), indexing="ij")
        index, a = cell_vertex(ii, jj, s)
        ref_index, ref_a = reference_cell_vertex(ii, jj, s.z_max, s.l, reference_half_layers(s))
        assert np.array_equal(index, ref_index)
        assert np.array_equal(a, ref_a)

    @pytest.mark.parametrize("Z_l", K_CAP_ROWS)
    def test_k_cap_rows_match_geometry(self, Z_l):
        z = k_cap_constellation(Z_l)
        assert np.array_equal(ZoptDetector(z).anchor_table(), geometric_anchor_table(z))

    def test_first_cell_anchor_b4(self):
        assert int(ZoptDetector(build_z_opt(4)).anchor_index(1, 0)) == 1


class TestCandidateOffsets:
    @pytest.mark.parametrize("B", [2, 4, 5, 6, 7])
    def test_offset_is_distance_to_anchor_azimuth(self, B):
        # the azimuth offset used in the candidate metric must equal the
        # angular distance from the query to the anchor codeword's own azimuth
        z = build_z_opt(B)
        s = z.structure
        arr = z.array
        h = math.pi / s.z_max
        rng = np.random.default_rng(B)
        for j0 in range(2 * s.z_max):
            phi_z = (j0 + rng.uniform(0.05, 0.95)) * h
            for ic in range(1, s.l + 1):
                index, a = cell_vertex(np.asarray([ic]), np.asarray([j0]), s)
                got = abs(phi_z - float(a[0]) * h)
                anchor = int(index[0]) - 1
                c1 = arr[anchor, 1]
                phi_anchor = float(np.angle(c1) % (2.0 * math.pi))
                gap = abs(phi_z - phi_anchor)
                gap = min(gap, 2.0 * math.pi - gap)
                assert got == pytest.approx(gap, abs=1e-9)


class TestZoptDetector:
    @pytest.mark.parametrize("B", list(range(1, 13)))
    def test_noiseless_exact_recovery(self, B):
        z = build_z_opt(B)
        det = ZoptDetector(z)
        pts = z.array
        rng = np.random.default_rng(B)
        h = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        Y = math.sqrt(2.0) * pts[:, :, None] * h[:, None, None]
        idx, evals, comps = det.detect_batch(Y)
        assert np.array_equal(idx, np.arange(len(pts)))
        assert evals.max() <= 4

    def test_voronoi_oracle_against_glrt(self):
        # dense angular sampling of cell interiors; every sample must agree
        # with the GLRT (points exactly on symmetry planes are excluded since
        # a tie there is resolved by arithmetic noise, not by either rule)
        for B in (3, 4, 5, 7):
            z = build_z_opt(B)
            glrt = GlrtDetector(z)
            det = ZoptDetector(z)
            thetas = np.linspace(0.0213, math.pi - 0.0131, 40)
            phis = np.linspace(0.0137, 2.0 * math.pi - 0.0119, 80)
            tt, pp = np.meshgrid(thetas, phis, indexing="ij")
            v = np.column_stack([
                np.cos(tt.ravel() / 2.0),
                np.exp(1j * pp.ravel()) * np.sin(tt.ravel() / 2.0),
            ])
            Y = v[:, :, None]
            gi, _, _ = glrt.detect_batch(Y)
            zi, evals, _ = det.detect_batch(Y)
            assert np.array_equal(gi, zi)
            assert evals.max() <= 4

    def test_functional_entry(self):
        z = build_z_opt(4)
        res = ZoptDetector(z).detect(noiseless_observation(z.array[5]))
        assert res.index == 5
        assert res.distance_evals <= 4

    def test_state_requires_sorted_theta(self):
        s = zopt_structure(4)
        with pytest.raises(InvalidInputError):
            ZOptConstellation(s, np.array([1.0, 0.5, 2.0, 2.5]))

    @pytest.mark.parametrize("B", list(range(4, 17)))
    def test_state_is_structure_and_angles(self, B):
        # the paper's O(sqrt(C)) detector state: nothing the detector holds,
        # however deeply, is an array or tuple longer than the l layers
        z = build_z_opt(B)
        assert isinstance(z, Constellation)
        det = ZoptDetector(z)
        l = z.structure.l
        stack = list(vars(det).values())
        while stack:
            v = stack.pop()
            assert not isinstance(v, Constellation)
            if isinstance(v, np.ndarray):
                assert v.size <= l
            elif isinstance(v, (tuple, list)):
                assert len(v) <= l
                stack.extend(v)
            elif hasattr(v, "__dict__"):
                stack.extend(vars(v).values())


class TestKCapRows:
    @pytest.mark.parametrize("Z_l", K_CAP_ROWS)
    @pytest.mark.parametrize("snr_db", [0.0, 20.0])
    def test_zopt_matches_glrt(self, Z_l, snr_db):
        z = k_cap_constellation(Z_l)
        glrt, zopt = bench_detectors(z, ["glrt", "zopt"], trials=20000, N=1, seed=9,
                                     snr_db=snr_db)
        assert zopt.mismatches_vs_first == 0
        assert zopt.max_distance_evals <= 4
        assert zopt.errors == glrt.errors


class TestMakeDetector:
    def test_zopt_needs_structure(self):
        x = build_s_opt(exact_packing(4))
        with pytest.raises(InvalidInputError):
            make_detector("zopt", x)

    def test_unknown(self):
        x = build_s_opt(exact_packing(4))
        with pytest.raises(InvalidInputError):
            make_detector("brute", x)


class TestRejectedObservations:
    @pytest.mark.parametrize("tag", ["glrt", "sopt", "zopt"])
    def test_non_finite(self, tag):
        z = build_z_opt(4)
        det = make_detector(tag, z)
        Ys = np.tile(noiseless_observation(z.array[1], N=2), (3, 1, 1))
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            Ys_bad = Ys.copy()
            Ys_bad[1, 0, 1] = bad
            with pytest.raises(InvalidInputError):
                det.detect_batch(Ys_bad)
            with pytest.raises(InvalidInputError):
                det.detect(Ys_bad[1])

    @pytest.mark.parametrize("tag", ["glrt", "sopt", "zopt"])
    def test_zero_row_in_batch(self, tag):
        z = build_z_opt(4)
        Ys = np.tile(noiseless_observation(z.array[1], N=2), (3, 1, 1))
        Ys[2] = 0.0
        with pytest.raises(DegenerateInputError):
            make_detector(tag, z).detect_batch(Ys)


    @pytest.mark.parametrize("N", [1, 8])
    @pytest.mark.parametrize("tag", ["glrt", "sopt", "zopt"])
    def test_every_entry_point(self, tag, N):
        # the only public ways into a detector are detect and detect_batch
        z = build_z_opt(5)
        det = make_detector(tag, z)
        Y = noiseless_observation(z.array[7], h=0.6 + 0.3j, N=N)
        for bad, error in ((0.0, DegenerateInputError), (np.nan, InvalidInputError),
                           (np.inf, InvalidInputError)):
            Y_bad = Y * 0.0 if bad == 0.0 else np.where(np.arange(N) == 0, bad, Y)
            with pytest.raises(error):
                det.detect(Y_bad)
            with pytest.raises(error):
                det.detect_batch(np.stack([Y, Y_bad]))
        tiny = Y * 1e-320  # subnormal entries, rescaled exactly before detection
        want = det.detect(np.ldexp(tiny.real, 1070) + 1j * np.ldexp(tiny.imag, 1070))
        assert det.detect(tiny) == want
        assert det.detect_batch(tiny[None])[0][0] == want.index


class TestExtremeScale:
    # unless rescaled, entries near 1e200 overflow the Gram matrix and entries
    # near 1e-170 underflow it
    Y = np.array([[1.0, 0.3], [0.2j, 1.0]])

    @pytest.mark.parametrize("tag", ["glrt", "sopt", "zopt"])
    def test_reported_observation(self, tag):
        det = make_detector(tag, build_z_opt(4))
        for factor in (1.0, 1e200, 1e-170):
            assert det.detect(self.Y * factor).index == 4

    @pytest.mark.parametrize("tag", ["glrt", "sopt", "zopt"])
    def test_power_of_two_scaling(self, tag):
        z = build_z_opt(6)
        rng = np.random.default_rng(12)
        rows = z.array[rng.integers(0, len(z), 64)]
        Ys = np.stack([noiseless_observation(r, h=complex(*rng.standard_normal(2)), N=3)
                       for r in rows])
        Ys += 0.3 * (rng.standard_normal(Ys.shape) + 1j * rng.standard_normal(Ys.shape))
        det = make_detector(tag, z)
        ref = det.detect_batch(Ys)
        for k in (-600, -300, -150, 0, 150, 300, 600):
            got = det.detect_batch(np.ldexp(Ys.real, k) + 1j * np.ldexp(Ys.imag, k))
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)

    def test_only_extreme_rows_rescaled(self):
        Ys = np.tile(self.Y, (3, 1, 1))
        Ys[1] *= 2.0**700
        Ys[2] *= 2.0**-700
        before = Ys.copy()
        out = _checked(Ys)
        assert np.array_equal(Ys, before)  # the caller's batch is not touched
        assert np.array_equal(out[0], Ys[0])
        assert np.array_equal(out[1], out[2])
        assert 0.5 <= np.abs(out[1].view(np.float64)).max() < 1.0
