import math

import numpy as np
import pytest

from grassbloch import channel, rng
from grassbloch.builders import build_s_opt
from grassbloch.channel import _thread_count, _trial_batch, bench_detectors, run_ser
from grassbloch.detectors import GlrtDetector
from grassbloch.errors import InvalidInputError
from grassbloch.formats import ser_curve_to_json
from grassbloch.packing import exact_packing
from grassbloch.zopt import build_z_opt


class TestTransmit:
    def test_noiseless_single_antenna(self):
        # without noise a pole codeword leaves the other receive row empty
        points = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
        sym, Y = _trial_batch(3, 0, 0, 64, 1, 0.0, points)
        assert set(sym.tolist()) == {0, 1}
        assert np.all(Y[np.arange(64), 1 - sym, 0] == 0.0)
        assert np.all(np.abs(Y[np.arange(64), sym, 0]) > 0.0)

    def test_rank_one_columns(self):
        points = np.array([[1.0, 0.0], [0.6, 0.8j]], dtype=np.complex128)
        sym, Y = _trial_batch(5, 0, 0, 32, 2, 0.0, points)
        # every column proportional to the sent codeword
        ratio = Y[:, 1, :] / Y[:, 0, :]
        expected = (points[sym, 1] / points[sym, 0])[:, None]
        assert np.allclose(ratio, np.broadcast_to(expected, ratio.shape))

    def test_average_power(self):
        # E||Y||_F^2 = 2N + 2N sigma^2
        N, sigma2, trials = 2, 0.5, 100000
        x = np.array([1.0, 1j]) / math.sqrt(2)
        total = 0.0
        keys = rng.stream_key_vec(123, 0, np.arange(trials, dtype=np.uint64))
        h_ctr = 1 + 2 * np.arange(N, dtype=np.uint64)
        H = rng.complex_normal(keys[:, None], h_ctr[None, :])
        w_ctr = 1 + 2 * N + 2 * np.arange(2 * N, dtype=np.uint64).reshape(2, N)
        W = rng.complex_normal(keys[:, None, None], w_ctr[None, :, :], variance=sigma2)
        Y = math.sqrt(2.0) * x[None, :, None] * H[:, None, :] + W
        power = np.mean(np.sum(np.abs(Y) ** 2, axis=(1, 2)))
        expected = 2 * N + 2 * N * sigma2
        assert abs(power - expected) / expected < 0.02

    def test_sample_channel_layout(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
        sym, Y = _trial_batch(5, 0, 10, 17, 3, 0.25, points)
        assert sym.shape == (7,) and Y.shape == (7, 2, 3)


class TestRunSer:
    def test_high_snr_error_free(self):
        x = build_s_opt(exact_packing(4))
        curve = run_ser(x, "glrt", [100.0], trials=10000, N=1, seed=0)
        assert curve.errors == (0,)

    def test_glrt_sopt_identical_sers(self):
        x = build_s_opt(exact_packing(2))
        a = run_ser(x, "glrt", [0.0], trials=100000, N=1, seed=7)
        b = run_ser(x, "sopt", [0.0], trials=100000, N=1, seed=7)
        assert a.errors == b.errors

    def test_reproducible_bytes(self):
        z = build_z_opt(4)
        a = run_ser(z, "zopt", [0.0, 8.0], trials=4000, N=2, seed=3)
        b = run_ser(z, "zopt", [0.0, 8.0], trials=4000, N=2, seed=3)
        assert ser_curve_to_json(a) == ser_curve_to_json(b)

    def test_chunk_size_invariance(self):
        x = build_s_opt(exact_packing(4))
        a = run_ser(x, "glrt", [5.0], trials=3000, N=1, seed=1, chunk=64)
        b = run_ser(x, "glrt", [5.0], trials=3000, N=1, seed=1, chunk=1024)
        assert a.errors == b.errors

    def test_thread_count_invariance(self):
        x = build_s_opt(exact_packing(8))
        a = run_ser(x, "glrt", [5.0], trials=6000, N=1, seed=1, chunk=512, threads=1)
        b = run_ser(x, "glrt", [5.0], trials=6000, N=1, seed=1, chunk=512, threads=4)
        assert a.errors == b.errors and a.mean_comparisons == b.mean_comparisons

    def test_env_thread_default(self, monkeypatch):
        monkeypatch.setenv("GRASSBLOCH_THREADS", "2")
        x = build_s_opt(exact_packing(4))
        a = run_ser(x, "glrt", [5.0], trials=2000, N=1, seed=1)
        monkeypatch.setenv("GRASSBLOCH_THREADS", "1")
        b = run_ser(x, "glrt", [5.0], trials=2000, N=1, seed=1)
        assert a.errors == b.errors

    def test_thread_count_capped_at_cpus(self, monkeypatch):
        # the pool may start a thread per chunk, so no more workers than CPUs
        monkeypatch.setattr(channel.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("GRASSBLOCH_THREADS", "100000")
        assert _thread_count(None) == 4
        assert _thread_count(100000) == 4
        assert _thread_count(3) == 3
        assert _thread_count(0) == 1
        monkeypatch.setenv("GRASSBLOCH_THREADS", "two")
        assert _thread_count(None) == 1
        monkeypatch.setattr(channel.os, "cpu_count", lambda: None)
        assert _thread_count(8) == 1

    def test_trials_required(self):
        x = build_s_opt(exact_packing(4))
        with pytest.raises(InvalidInputError):
            run_ser(x, "glrt", [0.0], trials=0)

    def test_unknown_detector(self):
        x = build_s_opt(exact_packing(4))
        with pytest.raises(InvalidInputError):
            run_ser(x, "other", [0.0], trials=10)

    def test_detector_objects_rejected(self):
        # both entry points take tags from DETECTOR_TAGS, never detector objects
        x = build_s_opt(exact_packing(4))
        with pytest.raises(InvalidInputError):
            run_ser(x, GlrtDetector(x), [0.0], trials=10)
        with pytest.raises(InvalidInputError):
            bench_detectors(x, [GlrtDetector(x)], trials=10)

    def test_symbol_usage_uniform(self):
        # chi-squared style check on the symbol sampler over one big point
        x = build_s_opt(exact_packing(4))
        trials = 1000000
        keys = rng.stream_key_vec(11, 0, np.arange(trials, dtype=np.uint64))
        sym = rng.uniform_index(keys, 0, len(x))
        counts = np.bincount(sym, minlength=len(x))
        p = 1.0 / len(x)
        sigma = math.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) < 5 * sigma)


class TestBench:
    def test_identical_streams(self):
        z = build_z_opt(6)
        rep = bench_detectors(z, ["glrt", "sopt", "zopt"], trials=5000, N=2, seed=5)
        assert rep[0].mean_distance_evals == 64.0
        assert rep[1].mismatches_vs_first == 0
        assert rep[2].mismatches_vs_first == 0
        assert rep[2].max_distance_evals <= 4
        assert rep[0].errors == rep[1].errors == rep[2].errors

    def test_mean_evals_exactly_size(self):
        z = build_z_opt(6)
        rep = bench_detectors(z, ["glrt"], trials=777, N=1, seed=2)
        assert rep[0].mean_distance_evals == 64.0

    @pytest.mark.parametrize("trials, N", [(10, 0), (10, -1), (0, 1)])
    def test_counts_checked(self, trials, N):
        z = build_z_opt(6)
        with pytest.raises(InvalidInputError):
            bench_detectors(z, ["glrt"], trials=trials, N=N)
        with pytest.raises(InvalidInputError):
            run_ser(z, "glrt", [0.0], trials=trials, N=N)
