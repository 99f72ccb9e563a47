import math

import numpy as np
import pytest

from grassbloch import channel, rng
from grassbloch.builders import build_s_opt
from grassbloch.channel import _rows_per_call, _trial_batch, _workers, bench_detectors, run_ser
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
        points = np.array([[1.0, 1j]]) / math.sqrt(2)
        sym, Y = _trial_batch(123, 0, 0, trials, N, sigma2, points)
        assert np.all(sym == 0)
        power = np.mean(np.sum(np.abs(Y) ** 2, axis=(1, 2)))
        expected = 2 * N + 2 * N * sigma2
        assert abs(power - expected) / expected < 0.02

    def test_sample_channel_layout(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
        sym, Y = _trial_batch(5, 0, 10, 17, 3, 0.25, points)
        assert sym.shape == (7,) and Y.shape == (7, 2, 3)


def reference_trial_batch(seed, snr_index, lo, hi, N, sigma2, points):
    """The trial generation as first written, with whole-batch temporaries:
    `_trial_batch` must match it bit for bit."""
    C = len(points)
    keys = rng.stream_key_vec(seed, snr_index, np.arange(lo, hi, dtype=np.uint64))
    sym = rng.uniform_index(keys, 0, C)
    h_ctr = 1 + 2 * np.arange(N, dtype=np.uint64)
    H = rng.complex_normal(keys[:, None], h_ctr[None, :])
    w_ctr = 1 + 2 * N + 2 * np.arange(2 * N, dtype=np.uint64).reshape(2, N)
    W = rng.complex_normal(keys[:, None, None], w_ctr[None, :, :], variance=sigma2)
    Y = math.sqrt(2.0) * np.take(points, sym, axis=0)[:, :, None] * H[:, None, :] + W
    return sym, Y


POLES = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


class TestTrialBatchReference:
    """`_trial_batch` gives the reference's words, over block boundaries and
    at the noise variances where a signed zero could differ."""

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 17])
    @pytest.mark.parametrize("sigma2", [0.0, 1e-300, 0.1, 1.0])
    @pytest.mark.parametrize("family", ["z-opt-6", "poles"])
    def test_bitwise_equal(self, N, sigma2, family):
        points = build_z_opt(6).array if family == "z-opt-6" else POLES
        step = channel._TRIAL_BLOCK_ENTRIES // (3 * N)
        # two ranges over two block boundaries, and a single trial
        for lo, hi in ((0, 2 * step + 5), (step - 3, 3 * step + 1), (41, 42)):
            sym, Y = _trial_batch(9, 2, lo, hi, N, sigma2, points)
            ref_sym, ref_Y = reference_trial_batch(9, 2, lo, hi, N, sigma2, points)
            assert np.array_equal(sym, ref_sym)
            assert np.array_equal(Y.view(np.uint64), ref_Y.view(np.uint64))

    @pytest.mark.parametrize("entries", [1, 40, 1 << 20])
    def test_block_size_changes_no_bit(self, monkeypatch, entries):
        # one trial per block, blocks that do not divide the range, one block
        ref_sym, ref_Y = reference_trial_batch(4, 1, 3, 300, 2, 0.0, POLES)
        monkeypatch.setattr(channel, "_TRIAL_BLOCK_ENTRIES", entries)
        sym, Y = _trial_batch(4, 1, 3, 300, 2, 0.0, POLES)
        assert np.array_equal(sym, ref_sym)
        assert np.array_equal(Y.view(np.uint64), ref_Y.view(np.uint64))


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

    def test_chunk_size_invariance(self, monkeypatch):
        x = build_s_opt(exact_packing(4))
        monkeypatch.setattr(channel, "ROWS_PER_CALL", 64)
        a = run_ser(x, "glrt", [5.0], trials=3000, N=1, seed=1)
        monkeypatch.setattr(channel, "ROWS_PER_CALL", 1024)
        b = run_ser(x, "glrt", [5.0], trials=3000, N=1, seed=1)
        assert a.errors == b.errors

    def test_thread_count_invariance(self, monkeypatch):
        x = build_s_opt(exact_packing(8))
        monkeypatch.setattr(channel, "ROWS_PER_CALL", 512)
        monkeypatch.setattr(channel.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setenv("GRASSBLOCH_THREADS", "1")
        a = run_ser(x, "glrt", [5.0], trials=6000, N=1, seed=1)
        monkeypatch.setenv("GRASSBLOCH_THREADS", "4")
        b = run_ser(x, "glrt", [5.0], trials=6000, N=1, seed=1)
        assert a.errors == b.errors and a.mean_comparisons == b.mean_comparisons

    def test_env_thread_default(self, monkeypatch):
        monkeypatch.setenv("GRASSBLOCH_THREADS", "2")
        x = build_s_opt(exact_packing(4))
        a = run_ser(x, "glrt", [5.0], trials=2000, N=1, seed=1)
        monkeypatch.setenv("GRASSBLOCH_THREADS", "1")
        b = run_ser(x, "glrt", [5.0], trials=2000, N=1, seed=1)
        monkeypatch.delenv("GRASSBLOCH_THREADS")
        c = run_ser(x, "glrt", [5.0], trials=2000, N=1, seed=1)
        assert a.errors == b.errors == c.errors

    def test_thread_count_capped_at_cpus(self, monkeypatch):
        # the pool may start a thread per chunk, so no more workers than the
        # CPUs the process may run on
        monkeypatch.setattr(channel.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.delenv("GRASSBLOCH_THREADS", raising=False)
        assert _workers() == 4
        for value, workers in (("", 4), ("100000", 4), ("3", 3), ("1", 1)):
            monkeypatch.setenv("GRASSBLOCH_THREADS", value)
            assert _workers() == workers
        for value in ("two", "0", "-1", "2.5"):
            monkeypatch.setenv("GRASSBLOCH_THREADS", value)
            with pytest.raises(InvalidInputError, match="GRASSBLOCH_THREADS"):
                _workers()
        # pinned to one CPU, asking for two still gets one
        monkeypatch.setattr(channel.os, "sched_getaffinity", lambda pid: {1})
        monkeypatch.setenv("GRASSBLOCH_THREADS", "2")
        assert _workers() == 1
        # without affinity masks the CPU count stands in, or one if unknown
        monkeypatch.delattr(channel.os, "sched_getaffinity")
        monkeypatch.delenv("GRASSBLOCH_THREADS")
        monkeypatch.setattr(channel.os, "cpu_count", lambda: 8)
        assert _workers() == 8
        monkeypatch.setattr(channel.os, "cpu_count", lambda: None)
        assert _workers() == 1

    def test_rows_per_call(self):
        assert all(_rows_per_call(N) == 8192 for N in range(1, 129))
        assert _rows_per_call(129) == 8128
        assert _rows_per_call(4096) == 256
        assert _rows_per_call(8192) == 256  # the floor

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


class TestScheduleIndependence:
    """Rows and counters do not depend on the rows per detector call or on
    the worker count, for every detector."""

    SCHEDULES = [(rows, workers) for rows in (256, 8192) for workers in ("1", "2", "4")]

    def _each_schedule(self, monkeypatch, run):
        monkeypatch.setattr(channel.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        results = []
        for rows, workers in self.SCHEDULES:
            monkeypatch.setattr(channel, "ROWS_PER_CALL", rows)
            monkeypatch.setenv("GRASSBLOCH_THREADS", workers)
            results.append(run())
        return results

    @pytest.mark.parametrize("tag", channel.DETECTOR_TAGS)
    def test_simulate_rows(self, monkeypatch, tag):
        z = build_z_opt(8)
        curves = self._each_schedule(
            monkeypatch, lambda: run_ser(z, tag, [4.0, 12.0], trials=9000, N=2, seed=4))
        assert all(c == curves[0] for c in curves)

    def test_bench_mismatches(self, monkeypatch):
        z = build_z_opt(8)
        reports = self._each_schedule(
            monkeypatch,
            lambda: bench_detectors(z, ["glrt", "sopt", "zopt"], trials=9000, N=2, seed=4))
        assert all(r == reports[0] for r in reports)
        assert [r.mismatches_vs_first for r in reports[0]] == [0, 0, 0]
