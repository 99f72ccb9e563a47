import itertools
import math
import tracemalloc

import numpy as np
import pytest

from grassbloch import detectors
from grassbloch.builders import build_cube_split, build_s_opt, exp_map_constellation
from grassbloch.channel import _draw_trials, _receive, bench_detectors, make_detector
from grassbloch.detectors import (
    GlrtDetector,
    SoptDetector,
    ZoptDetector,
    bloch_vector_batch,
    cell_vertex,
    rough_estimate_batch,
)
from grassbloch.errors import DegenerateInputError, InvalidInputError
from grassbloch.geometry import Constellation, bloch_angles, bloch_array, canonicalize_array
from grassbloch.packing import exact_packing
from grassbloch.zopt import (
    ZOptConstellation,
    ZOptStructure,
    build_z_opt,
    expand_theta,
    optimize_zopt,
    zopt_structure,
)

#: searched structures with k half rings per cap: B = 9 (k = 3) and B = 11 (k = 7)
K_CAP_ROWS = [(16,) * 3 + (32,) * 13 + (16,) * 3, (32,) * 7 + (64,) * 25 + (32,) * 7]


def noiseless_observation(codeword_row, h=0.8 - 0.6j, N=1):
    x = np.asarray(codeword_row).reshape(2, 1)
    hrow = np.full((1, N), h, dtype=np.complex128)
    return math.sqrt(2.0) * x @ hrow


def gram_parts(Ys):
    """Entries g00, g11 and g01 of Y Y^H for a batch of (n, 2, N) observations."""
    row0, row1 = Ys[:, 0, :], Ys[:, 1, :]
    return (np.einsum("ij,ij->i", row0, row0.conj()).real,
            np.einsum("ij,ij->i", row1, row1.conj()).real,
            np.einsum("ij,ij->i", row0, row1.conj()))


def reference_glrt_scores(Ys, points):
    """The exhaustive detector's former score, the reference for its decisions:
    ||Y^H x||^2 as [g00, g11, 2 Re g01, -2 Im g01] @ a (4, C) table of the codewords."""
    g00, g11, g01 = gram_parts(Ys)
    A = np.column_stack([g00, g11, 2.0 * g01.real, -2.0 * g01.imag])
    x0, x1 = points[:, 0], points[:, 1]
    m = np.conj(x0) * x1
    return A @ np.vstack([np.abs(x0) ** 2, np.abs(x1) ** 2, m.real, m.imag])


def unit_points(Ys):
    """The fast detectors' front end: `rough_estimate_batch` of the Bloch vectors."""
    return rough_estimate_batch(bloch_vector_batch(Ys))


def reference_rough_estimate_batch(Ys):
    """The eigenvector front end that `rough_estimate_batch` replaced: the
    reference for its decisions. Dominant left singular vector of each
    checked (2, N) observation, unnormalized for N = 1."""
    Ys = np.asarray(Ys, dtype=np.complex128)
    n, _, N = Ys.shape
    if N == 1:
        return Ys[:, :, 0].copy()
    g00, g11, g01 = gram_parts(Ys)
    delta = 0.5 * (g00 - g11)
    r = np.sqrt(delta * delta + np.abs(g01) ** 2)
    out = np.empty((n, 2), dtype=np.complex128)
    hi = delta >= 0.0
    out[hi, 0] = r[hi] + delta[hi]
    out[hi, 1] = np.conj(g01[hi])
    lo = ~hi
    out[lo, 0] = g01[lo]
    out[lo, 1] = r[lo] - delta[lo]
    diag = np.abs(g01) == 0.0
    if np.any(diag):
        first = g00 >= g11
        out[diag & first] = (1.0, 0.0)
        out[diag & ~first] = (0.0, 1.0)
    norms = np.linalg.norm(out, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInputError("zero observation has no dominant direction")
    return out / norms[:, None]


def reference_bloch_of_raw(v):
    """Bloch points of unnormalized nonzero 2-vectors: the old sopt query."""
    return bloch_array(v) / (np.abs(v[:, 0]) ** 2 + np.abs(v[:, 1]) ** 2)[:, None]


def reference_angles_of_raw(v):
    """Polar/azimuth angles of unnormalized nonzero 2-vectors: the old zopt input."""
    n = np.sqrt(np.abs(v[:, 0]) ** 2 + np.abs(v[:, 1]) ** 2)
    z0 = np.abs(v[:, 0]) / n
    theta = 2.0 * np.arccos(np.clip(z0, 0.0, 1.0))
    a0 = np.abs(v[:, 0])
    phase = np.where(a0 > 0, v[:, 0] / np.where(a0 > 0, a0, 1.0), 1.0)
    phi = np.angle(v[:, 1] * np.conj(phase)) % (2.0 * math.pi)
    phi = np.where(phi >= 2.0 * math.pi, 0.0, phi)
    return theta, phi


def external_constellation():
    rng = np.random.default_rng(77)
    raw = rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2))
    return Constellation(canonicalize_array(raw), "external", 5)


class TestRoughEstimate:
    def test_single_column(self):
        y = np.array([[0.3 - 0.4j], [1j]])
        est = unit_points(y[None])
        want = bloch_array((y[:, 0] / np.linalg.norm(y))[None])
        assert np.allclose(est, want, rtol=0.0, atol=1e-15)
        assert np.linalg.norm(est[0]) == pytest.approx(1.0, abs=1e-15)

    def test_rank_one_recovery(self):
        x = np.array([0.6, 0.8j])
        Y = np.outer(x, [1.0, 2.0, -1j])
        u = np.linalg.svd(Y)[0][:, 0]
        est = unit_points(Y[None])
        assert np.allclose(est, bloch_array(u[None]), rtol=0.0, atol=1e-12)

    def test_noisy_matches_svd(self):
        rng = np.random.default_rng(3)
        Ys = rng.standard_normal((50, 2, 4, 2)) @ [1.0, 1j]
        u = np.linalg.svd(Ys)[0][:, :, 0]
        assert np.allclose(unit_points(Ys), bloch_array(u), rtol=0.0, atol=1e-9)

    def test_identity_tie_rule(self):
        est = unit_points(np.eye(2, dtype=complex)[None])
        assert est.tolist() == [[0.0, 0.0, 1.0]]

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            bloch_vector_batch(np.zeros((1, 2, 2)))


def reference_unit_points(r):
    """r / |r| with r = 0 at the north pole, formed directly: the normalization
    `rough_estimate_batch` keeps bit for bit wherever |r|^2 is a normal float."""
    norm = np.sqrt(np.einsum("ij,ij->i", r, r))
    tie = norm == 0.0
    norm[tie] = 1.0
    u = r / norm[:, None]
    u[tie] = (0.0, 0.0, 1.0)
    return u


class TestTinyBlochVector:
    """A unit-scale block whose Bloch vector r is so short that |r|^2 underflows."""

    BLOCKS = [[[1.0, 1e-170], [0.0, 1.0]], [[1.0, 1e-170j], [0.0, 1.0]],
              [[3.0, 3e-170], [0.0, 3.0]]]

    @pytest.mark.parametrize("B", [4, 6, 12])
    def test_detectors_agree(self, B):
        z = build_z_opt(B)
        dets = [GlrtDetector(z), SoptDetector(z), ZoptDetector(z)]
        Ys = np.array(self.BLOCKS, dtype=np.complex128)
        picks = [det.detect_batch(Ys)[0] for det in dets]
        for block, *idx in zip(self.BLOCKS, *picks):
            assert len(set(idx)) == 1, (block, idx)
            assert [det.detect(np.array(block)).index for det in dets] == idx

    @pytest.mark.parametrize("B", [4, 6, 12])
    def test_any_scale_decided_alike(self, B):
        # at 2**-300 and below, tr G stays normal while every product that
        # forms r underflows, so r rounds to 0 unless formed at unit scale
        z = build_z_opt(B)
        Ys = np.array(self.BLOCKS, dtype=np.complex128)
        for det in (GlrtDetector(z), SoptDetector(z), ZoptDetector(z)):
            want = det.detect_batch(Ys)
            for k in (-500, -400, -300, -150, 150, 300, 400, 700, 1000):
                got = det.detect_batch(np.ldexp(Ys.real, k) + 1j * np.ldexp(Ys.imag, k))
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), k

    @staticmethod
    def blocks(eps):
        """Blocks [[1, eps], [0, 1]]: r = (2 Re eps, -2 Im eps, 0) once |eps|^2
        rounds away against 1."""
        Ys = np.zeros((len(eps), 2, 2), dtype=np.complex128)
        Ys[:, 0, 0] = Ys[:, 1, 1] = 1.0
        Ys[:, 0, 1] = eps
        return Ys

    @pytest.mark.parametrize("B", [6, 8])
    def test_subnormal_components_decided_alike(self, B):
        # glrt's products r . b would lose bits to subnormal components of r
        rng = np.random.default_rng(B)
        eps = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) * 1e-320
        Ys = self.blocks(eps)
        z = build_z_opt(B)
        glrt, sopt, zopt = (det.detect_batch(Ys)[0]
                            for det in (GlrtDetector(z), SoptDetector(z), ZoptDetector(z)))
        assert np.array_equal(glrt, sopt)
        assert np.array_equal(glrt, zopt)

    def test_direction_is_the_unscaled_one(self):
        rng = np.random.default_rng(21)
        eps = (rng.standard_normal(1000) + 1j * rng.standard_normal(1000)) * 2.0**-30
        big = self.blocks(eps)
        tiny = self.blocks(np.ldexp(eps.real, -960) + 1j * np.ldexp(eps.imag, -960))
        before = tiny.copy()
        r_big, r_tiny = bloch_vector_batch(big), bloch_vector_batch(tiny)
        assert not r_big[:, 2].any()
        # |r|^2 underflows for the tiny blocks, while every component stays normal
        assert (np.einsum("ij,ij->i", r_big * 2.0**-960, r_big * 2.0**-960) == 0.0).all()
        assert rough_estimate_batch(r_tiny).tobytes() == rough_estimate_batch(r_big).tobytes()
        assert np.array_equal(tiny, before)  # the caller's blocks are not touched

    def test_subnormal_and_zero_rows(self):
        eps = np.array([5e-324, 1e-320j, -1e-320 + 1e-320j, 0.0])
        r = bloch_vector_batch(self.blocks(eps))
        assert np.all(0.5 <= np.abs(r[:3]).max(axis=1)) and np.all(np.abs(r[:3]).max(axis=1) < 1.0)
        assert rough_estimate_batch(r).tolist() == [
            [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-math.sqrt(0.5), -math.sqrt(0.5), 0.0],
            [0.0, 0.0, 1.0]]

    def test_unit_scale_rows_keep_their_bits(self):
        rng = np.random.default_rng(22)
        Ys = rng.standard_normal((100000, 2, 2, 2)) @ [1.0, 1j]
        Ys[::1000] = np.eye(2)  # r = 0
        r = bloch_vector_batch(Ys)
        assert rough_estimate_batch(r).tobytes() == reference_unit_points(r).tobytes()


class TestFrontEndReference:
    """sopt and zopt decide and count as they did with the eigenvector front end."""

    @staticmethod
    def observations(x, N, snr_db, trials=10000):
        _, tx, Z = _draw_trials(N * 100 + int(snr_db), 0, trials, N, x.array)
        return _receive(tx, Z, math.sqrt(10.0 ** (-snr_db / 10.0)),
                        np.empty((trials, 2, N), dtype=np.complex128))

    @staticmethod
    def check_sopt(det, Ys):
        est = reference_rough_estimate_batch(Ys)
        ref_idx, _, ref_evals, ref_comps = det.tree.query(reference_bloch_of_raw(est))
        idx, evals, comps = det.detect_batch(Ys)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(evals, ref_evals)
        assert np.array_equal(comps, ref_comps)

    @staticmethod
    def check_zopt(det, Ys, monkeypatch):
        got = det.detect_batch(Ys)
        angles = reference_angles_of_raw(reference_rough_estimate_batch(Ys))
        with monkeypatch.context() as m:
            m.setattr(detectors, "bloch_angles", lambda points: angles)
            want = det.detect_batch(Ys)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("N", [1, 2, 8])
    @pytest.mark.parametrize("B", [4, 8, 12, "external"])
    def test_sopt(self, B, N):
        x = external_constellation() if B == "external" else build_z_opt(B)
        det = SoptDetector(x)
        for snr_db in (0.0, 20.0, 40.0):
            self.check_sopt(det, self.observations(x, N, snr_db))

    @pytest.mark.parametrize("N", [1, 2, 8])
    @pytest.mark.parametrize("B", [4, 8, 12])
    def test_zopt(self, B, N, monkeypatch):
        z = build_z_opt(B)
        det = ZoptDetector(z)
        for snr_db in (0.0, 20.0, 40.0):
            self.check_zopt(det, self.observations(z, N, snr_db), monkeypatch)

    def test_exact_poles(self, monkeypatch):
        # one row of Y is zero, so g01 is zero: both poles must read azimuth 0,
        # as the eigenvector's (1, 0) and (0, 1) did, whatever the signs of Y
        rows = [[-1.0, -2.0], [-1.0 + 1j, 2.0], [1.0, 2.0], [1j, -2.0]]
        Ys = np.array([[r, [0.0, 0.0]] for r in rows] + [[[0.0, 0.0], r] for r in rows],
                      dtype=np.complex128)
        for B in (4, 12):
            z = build_z_opt(B)
            self.check_sopt(SoptDetector(z), Ys)
            self.check_zopt(ZoptDetector(z), Ys, monkeypatch)


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
        want = np.argmax(bloch_vector_batch(Ys) @ x.bloch.T, axis=1)
        idx, evals, comps = GlrtDetector(x).detect_batch(Ys)
        assert np.array_equal(idx, want)
        assert evals.tolist() == comps.tolist() == [len(x)] * rows

    def test_state_is_the_bloch_points(self):
        x = build_z_opt(6)
        state = vars(GlrtDetector(x))
        assert list(state) == ["_bloch"]
        assert state["_bloch"].flags.c_contiguous
        assert np.array_equal(state["_bloch"], x.bloch.T)


FAMILIES = {
    "z-opt": lambda: build_z_opt(8),
    "s-opt": lambda: build_s_opt(exact_packing(12)),
    "exp-map": lambda: exp_map_constellation(6),
    "cube-split": lambda: build_cube_split(6),
}


class TestGlrtMatchesFourTermScore:
    """The Bloch product decides as the former 4-term score and reaches the
    brute-force maximum of ||Y^H x||^2 in complex arithmetic."""

    TRIALS = 20000
    SNRS_DB = (0.0, 10.0, 20.0, 40.0, math.inf)  # 10**5 blocks in all

    @pytest.mark.parametrize("N", [1, 2, 8])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_random_blocks(self, family, N):
        x = FAMILIES[family]()
        det = GlrtDetector(x)
        _, tx, Z = _draw_trials(7 + N, 0, self.TRIALS, N, x.array)
        Y = np.empty((self.TRIALS, 2, N), dtype=np.complex128)
        for snr_db in self.SNRS_DB:
            _receive(tx, Z, math.sqrt(10.0 ** (-snr_db / 10.0)), Y)
            idx = det.detect_batch(Y)[0]
            for lo in range(0, self.TRIALS, 2000):
                Ys, got = Y[lo:lo + 2000], idx[lo:lo + 2000]
                ref = reference_glrt_scores(Ys, x.array)
                top2 = -np.partition(-ref, 1, axis=1)[:, :2]
                near_tie = top2[:, 0] - top2[:, 1] <= 1e-12 * np.abs(top2[:, 0])
                want = np.argmax(ref, axis=1)
                assert np.array_equal(got[~near_tie], want[~near_tie])
                energy = (np.abs(Ys.conj().transpose(0, 2, 1) @ x.array.T) ** 2).sum(axis=1)
                best = energy.max(axis=1)
                assert np.all(energy[np.arange(len(got)), got] >= best * (1.0 - 1e-12))


#: observations with Y Y^H a multiple of the identity (r = 0): every codeword
#: is a maximizer of ||Y^H x||^2, so the lowest-index rule gives codeword 0
SCALAR_GRAM = np.array([np.eye(2), 3.0 * np.eye(2), [[1.0, 1j], [1j, 1.0]] / np.sqrt(2.0)],
                       dtype=np.complex128)


class TestExactTies:
    @pytest.mark.parametrize("B", [4, 6, 8, 12, "k-cap"])
    @pytest.mark.parametrize("tag", ["glrt", "sopt", "zopt"])
    def test_scalar_gram_decides_codeword_zero(self, tag, B):
        z = k_cap_constellation(K_CAP_ROWS[0]) if B == "k-cap" else build_z_opt(B)
        det = make_detector(tag, z)
        assert bloch_vector_batch(SCALAR_GRAM).tolist() == [[0.0, 0.0, 0.0]] * 3
        assert det.detect_batch(SCALAR_GRAM)[0].tolist() == [0, 0, 0]
        assert [det.detect(Y).index for Y in SCALAR_GRAM] == [0, 0, 0]

    @pytest.mark.parametrize("tag", ["glrt", "sopt"])
    def test_scalar_gram_on_s_opt(self, tag):
        det = make_detector(tag, build_s_opt(exact_packing(12)))
        assert det.detect_batch(SCALAR_GRAM)[0].tolist() == [0, 0, 0]

    def test_sopt_keeps_the_search_counters(self):
        # at r = 0 the tree still searches the north pole, and counts it
        z = build_z_opt(12)
        det = SoptDetector(z)
        pole = det.tree.query(np.array([[0.0, 0.0, 1.0]]))
        _, evals, comps = det.detect_batch(SCALAR_GRAM[:1])
        assert (evals[0], comps[0]) == (pole[2][0], pole[3][0])


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
        x = external_constellation()
        for N in (1, 2):
            rep = bench_detectors(x, ["glrt", "sopt"], trials=20000, N=N,
                                  seed=4, snr_db=8.0)
            assert rep[1].mismatches_vs_first == 0


def polar_blocks(theta, w):
    """N = 1 blocks (cos theta/2, w sin theta/2): for a unit complex w, the
    Bloch point at polar angle theta and azimuth arg w, up to rounding."""
    theta = np.asarray(theta, dtype=np.float64)
    return np.stack([np.cos(theta / 2.0) + 0j, np.sin(theta / 2.0) * w], axis=1)[:, :, None]


def on_layer_angles(s, theta):
    """The z-opt constellation of structure s whose layer angles are the polar
    angles the detectors' front end reads off `polar_blocks(theta, 1)`, the
    readable angles nearest theta: most angles near a pole are not arccos of
    any float."""
    return ZOptConstellation(s, bloch_angles(unit_points(polar_blocks(theta, 1.0)))[0])


#: (w, phi): unit complex numbers w whose blocks read azimuth phi = 0, one
#: ulp below 2*pi, pi/2 and pi; the last two are sector edges for every
#: z_max = 2^m >= 2
SPECIAL_AZIMUTHS = [
    (1.0, 0.0),
    (complex(1.0, np.nextafter(2.0 * math.pi, 0.0) - 2.0 * math.pi),
     np.nextafter(2.0 * math.pi, 0.0)),
    (1j, math.pi / 2.0),
    (-1.0, math.pi),
]


class TestSpecialAngles:
    """Bloch points at azimuth 0, one ulp below 2*pi and on sector edges, each
    on every layer angle exactly and at both poles: zopt decides as glrt, and
    every sector it looks up lies in [0, 2*z_max)."""

    @pytest.mark.parametrize("B", list(range(1, 13)) + ["k-cap"])
    def test_matches_glrt(self, B, monkeypatch):
        optimized = k_cap_constellation(K_CAP_ROWS[0]) if B == "k-cap" else build_z_opt(B)
        s = optimized.structure
        z = on_layer_angles(s, optimized.theta)
        sectors = []

        def recording_cell_vertex(i, j0, s):
            sectors.append(np.asarray(j0))
            return cell_vertex(i, j0, s)

        monkeypatch.setattr(detectors, "cell_vertex", recording_cell_vertex)
        poles = np.array([[[1.0], [0.0]], [[0.0], [1.0]]], dtype=np.complex128)
        glrt, zopt = GlrtDetector(z), ZoptDetector(z)
        for w, azimuth in SPECIAL_AZIMUTHS:
            Ys = np.concatenate([polar_blocks(optimized.theta, w), poles])
            theta, phi = bloch_angles(unit_points(Ys))
            assert np.array_equal(theta, np.concatenate([z.theta, [0.0, math.pi]])), azimuth
            assert np.all(phi[:-2] == azimuth), azimuth
            sectors.clear()
            idx = zopt.detect_batch(Ys)[0]
            # a tie is decided by rounding in either detector: there zopt
            # picks one of the tied codewords
            scores = bloch_vector_batch(Ys) @ z.bloch.T
            tied = scores >= scores.max(axis=1, keepdims=True) - 1e-12
            alone = tied.sum(axis=1) == 1
            assert np.array_equal(idx[alone], glrt.detect_batch(Ys)[0][alone]), azimuth
            assert tied[np.arange(len(idx)), idx].all(), azimuth
            j0 = np.concatenate([j.ravel() for j in sectors])
            assert j0.min() >= 0 and j0.max() < 2 * s.z_max, azimuth


def geometric_anchor_table(z):
    """Independent anchor table from the layer geometry itself."""
    s = z.structure
    h = math.pi / s.z_max
    table = np.zeros((s.l + 1, 2 * s.z_max), dtype=np.int64)
    for i in range(s.l + 1):
        layer = max(i, 1)
        size = s.Z_l[layer - 1]
        phis = (layer + 1) % 2 * h + 2.0 * math.pi * np.arange(size) / size
        for j0 in range(2 * s.z_max):
            center = (j0 + 0.5) * h
            gaps = np.abs(phis - center)
            gaps = np.minimum(gaps, 2.0 * math.pi - gaps)
            n = int(np.argmin(gaps))
            table[i, j0] = z.structure.layer_offsets[layer - 1] + n + 1
    return table


def anchor_table(s):
    """(l+1, 2*z_max) table of `cell_vertex` anchor indices for every grid cell."""
    ii, jj = np.meshgrid(np.arange(s.l + 1), np.arange(2 * s.z_max), indexing="ij")
    return cell_vertex(ii, jj, s)[0]


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
        assert np.array_equal(anchor_table(z.structure), geometric_anchor_table(z))

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
        assert np.array_equal(anchor_table(z.structure), geometric_anchor_table(z))

    def test_first_cell_anchor_b4(self):
        assert int(cell_vertex(1, 0, build_z_opt(4).structure)[0]) == 1


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

    @pytest.mark.parametrize("B", [4, 6, 8, 9])
    def test_uniform_rows_exact_at_any_angles(self, B):
        # uniform rows need no particular angles; capped rows (B = 5 and 7)
        # are exact only at the angles the optimizer places
        s = zopt_structure(B)
        rng = np.random.default_rng(100 + B)
        for _ in range(6):
            z = ZOptConstellation(s, np.sort(rng.uniform(0.0, math.pi, s.l)))
            Ys = rng.standard_normal((20000, 2, 1, 2)) @ [1.0, 1j]
            idx, evals, _ = ZoptDetector(z).detect_batch(Ys)
            assert np.array_equal(idx, GlrtDetector(z).detect_batch(Ys)[0])
            assert evals.max() <= 4

    @pytest.mark.parametrize("B", [1, 4, 7, 12])
    def test_ties_go_to_the_lowest_index(self, B, monkeypatch):
        # with every candidate distance equal, zopt decides the anchor of the
        # lowest candidate layer, and counts as it does on any other row
        z = build_z_opt(B)
        s = z.structure
        rng = np.random.default_rng(B)
        Ys = rng.standard_normal((4000, 2, 2, 2)) @ [1.0, 1j]
        det = ZoptDetector(z)
        _, evals, comps = det.detect_batch(Ys)
        monkeypatch.setattr(detectors, "diagonal_chord",
                            lambda t_i, t_j, dphi: np.zeros(np.broadcast(t_i, t_j, dphi).shape))
        idx, tied_evals, tied_comps = det.detect_batch(Ys)
        theta, phi = bloch_angles(unit_points(Ys))
        i = np.searchsorted(z.theta, theta)
        first = cell_vertex(np.maximum(i - 1, 1), (phi / (math.pi / s.z_max)).astype(np.int64), s)[0]
        assert np.array_equal(idx, first - 1)
        assert np.array_equal(tied_evals, evals)
        assert np.array_equal(tied_comps, comps)

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


class TestZoptCounters:
    """zopt's counters in every polar region 0..l: between the layer angles,
    exactly on each one and at both poles."""

    @pytest.mark.parametrize("Z_l", [zopt_structure(B).Z_l for B in range(1, 17)] + K_CAP_ROWS)
    def test_region_by_region(self, Z_l):
        s = ZOptStructure(Z_l)
        l = s.l
        spaced = math.pi * np.arange(1, l + 1) / (l + 1)
        z = on_layer_angles(s, spaced)
        edges = np.concatenate([[0.0], z.theta, [math.pi]])
        queries = np.concatenate([(edges[:-1] + edges[1:]) / 2.0, spaced, [0.0, math.pi]])
        Ys = np.concatenate([polar_blocks(queries, w) for w in (1.0, np.exp(2.1j))])
        theta = bloch_angles(unit_points(Ys))[0]
        assert np.array_equal(theta[l + 1:2 * l + 3], np.concatenate([z.theta, [0.0, math.pi]]))
        _, evals, comps = ZoptDetector(z).detect_batch(Ys)
        for t, e, c in zip(theta, evals, comps):
            i = sum(layer < t for layer in z.theta)
            want = len({min(max(k, 1), l) for k in range(i - 1, i + 3)})
            assert (e, c) == (want, math.ceil(math.log2(l + 1)) + want - 1), (t, i)
        regions = np.searchsorted(z.theta, theta)
        assert set(regions.tolist()) == set(range(l + 1))


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
        # the detector itself refuses a set without layers, not only the factory
        for x in (build_s_opt(exact_packing(4)), exp_map_constellation(6)):
            for make in (lambda: make_detector("zopt", x), lambda: ZoptDetector(x)):
                with pytest.raises(InvalidInputError, match="no layer structure"):
                    make()

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

    @pytest.mark.parametrize("shape", [(3, 3, 2), (3, 2), (3, 2, 0)])
    @pytest.mark.parametrize("tag", ["glrt", "sopt", "zopt"])
    def test_batch_shape(self, tag, shape):
        # only (n, 2, N >= 1) is a batch; a third row is not silently dropped
        det = make_detector(tag, build_z_opt(4))
        with pytest.raises(InvalidInputError, match=r"batched as \(n, 2, N\)"):
            det.detect_batch(np.ones(shape, dtype=np.complex128))

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
            # DegenerateInputError subclasses InvalidInputError: compare types exactly
            with pytest.raises(error) as info:
                det.detect(Y_bad)
            assert info.type is error
            with pytest.raises(error) as info:
                det.detect_batch(np.stack([Y, Y_bad]))
            assert info.type is error
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
        # near 2**512 some Gram products overflow and others do not; no
        # factor may warn or change the decision
        det = make_detector(tag, build_z_opt(4))
        assert det.detect(self.Y).index == 4
        for Y in (self.Y, np.ones((2, 2))):
            for factor in (1e200, 1e-170, 2.0**510, 2.0**511, 2.0**512, 2.0**513):
                assert det.detect(Y * factor) == det.detect(Y)

    @pytest.mark.parametrize("tag", ["glrt", "sopt", "zopt"])
    def test_power_of_two_scaling(self, tag):
        # 2**+-150 keeps every Gram product normal; 2**300 overflows |r|^2 and
        # 2**-300 underflows it; 2**+-511 and beyond overflow or underflow tr G
        z = build_z_opt(6)
        rng = np.random.default_rng(12)
        rows = z.array[rng.integers(0, len(z), 64)]
        Ys = np.stack([noiseless_observation(r, h=complex(*rng.standard_normal(2)), N=3)
                       for r in rows])
        Ys += 0.3 * (rng.standard_normal(Ys.shape) + 1j * rng.standard_normal(Ys.shape))
        det = make_detector(tag, z)
        ref = det.detect_batch(Ys)
        for k in (-1000, -700, -511, -300, -150, 0, 150, 300, 511, 700, 1000):
            got = det.detect_batch(np.ldexp(Ys.real, k) + 1j * np.ldexp(Ys.imag, k))
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("tag", ["glrt", "sopt", "zopt"])
    def test_non_finite_reported_before_zero(self, tag):
        det = make_detector(tag, build_z_opt(4))
        Ys = np.stack([self.Y, np.zeros((2, 2)), np.full((2, 2), np.nan)])
        with pytest.raises(InvalidInputError) as info:
            det.detect_batch(Ys)
        assert info.type is InvalidInputError  # not its subclass DegenerateInputError

    def test_only_extreme_rows_rescaled(self):
        Ys = np.tile(self.Y, (3, 1, 1))
        Ys[1] *= 2.0**700
        Ys[2] *= 2.0**-700
        before = Ys.copy()
        r = bloch_vector_batch(Ys)
        assert np.array_equal(Ys, before)  # the caller's batch is not touched
        assert np.array_equal(r[1], r[2])
        # Y's largest |entry| is 1, so both are formed from Y / 2: r / 4
        assert np.array_equal(r[1], r[0] / 4.0)


def midpoint_blocks(X):
    """Noiseless 2 x 1 blocks halfway between each codeword x_i and its
    neighbour x_j, the argmax of |x_i^H x_j| over j != i (lowest index on
    equality): x_j is turned by the phase of x_j^H x_i, and the block is
    (x_i + x_j) / ||x_i + x_j||. Returns the blocks and each j."""
    overlap = np.abs(X.conj() @ X.T)
    np.fill_diagonal(overlap, -np.inf)
    j = np.argmax(overlap, axis=1)
    phase = np.einsum("ij,ij->i", X[j].conj(), X)
    mid = X + X[j] * (phase / np.abs(phase))[:, None]
    return (mid / np.linalg.norm(mid, axis=1)[:, None])[:, :, None], j


class TestMidpoints:
    """Each midpoint is a tie between two codewords, up to rounding. The
    detectors may split such a tie differently (how often follows numpy's CPU
    dispatch, so the counts are printed, not asserted), but each picks one of
    the two, and the two picks score alike."""

    @pytest.mark.parametrize("B", [4, 6, 8, 10])
    def test_picks_are_the_pair(self, B):
        z = build_z_opt(B)
        X = z.array
        Ys, j = midpoint_blocks(X)
        i = np.arange(len(X))
        picks = {tag: make_detector(tag, z).detect_batch(Ys)[0]
                 for tag in ("glrt", "sopt", "zopt")}
        for idx in picks.values():
            assert np.all((idx == i) | (idx == j))
        disagree = {}
        for a, b in itertools.combinations(picks, 2):
            k = np.flatnonzero(picks[a] != picks[b])
            disagree[f"{a}-{b}"] = len(k)
            sa, sb = (np.abs(np.einsum("ij,ij->i", Ys[k, :, 0].conj(), X[picks[tag][k]])) ** 2
                      for tag in (a, b))
            assert np.all(np.abs(sa - sb) <= 2e-15 * np.maximum(sa, sb))
        print(f"B={B} midpoint disagreements of {len(X)}: {disagree}")
