import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from grassbloch import channel, rng
from grassbloch.builders import build_s_opt
from grassbloch.channel import (
    _draw_trials,
    _receive,
    _rows_per_call,
    _workers,
    bench_detectors,
    make_detector,
    run_ser,
)
from grassbloch.detectors import GlrtDetector
from grassbloch.kdtree import KDTree
from grassbloch.errors import InvalidInputError
from grassbloch.formats import ser_curve_to_json
from grassbloch.packing import exact_packing
from grassbloch.zopt import build_z_opt


def trial_batch(seed, lo, hi, N, sigma2, points):
    """Symbols and received blocks of trials [lo, hi) at one noise variance."""
    sym, tx, Z = _draw_trials(seed, lo, hi, N, points)
    return sym, _receive(tx, Z, math.sqrt(sigma2), np.empty((hi - lo, 2, N), dtype=np.complex128))


class TestTransmit:
    def test_noiseless_single_antenna(self):
        # without noise a pole codeword leaves the other receive row empty
        points = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
        sym, Y = trial_batch(3, 0, 64, 1, 0.0, points)
        assert set(sym.tolist()) == {0, 1}
        assert np.all(Y[np.arange(64), 1 - sym, 0] == 0.0)
        assert np.all(np.abs(Y[np.arange(64), sym, 0]) > 0.0)

    def test_rank_one_columns(self):
        points = np.array([[1.0, 0.0], [0.6, 0.8j]], dtype=np.complex128)
        sym, Y = trial_batch(5, 0, 32, 2, 0.0, points)
        # every column proportional to the sent codeword
        ratio = Y[:, 1, :] / Y[:, 0, :]
        expected = (points[sym, 1] / points[sym, 0])[:, None]
        assert np.allclose(ratio, np.broadcast_to(expected, ratio.shape))

    def test_average_power(self):
        # E||Y||_F^2 = 2N + 2N sigma^2
        N, sigma2, trials = 2, 0.5, 100000
        points = np.array([[1.0, 1j]]) / math.sqrt(2)
        sym, Y = trial_batch(123, 0, trials, N, sigma2, points)
        assert np.all(sym == 0)
        power = np.mean(np.sum(np.abs(Y) ** 2, axis=(1, 2)))
        expected = 2 * N + 2 * N * sigma2
        assert abs(power - expected) / expected < 0.02

    def test_sample_channel_layout(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
        sym, tx, Z = _draw_trials(5, 10, 17, 3, points)
        assert sym.shape == (7,) and tx.shape == (7, 2, 1) and Z.shape == (7, 9)
        Y = np.empty((7, 2, 3), dtype=np.complex128)
        assert _receive(tx, Z, 0.5, Y) is Y


def reference_trial_batch(seed, lo, hi, N, sigma2, points):
    """The trial stream as defined, with whole-batch temporaries:
    `_draw_trials` and `_receive` must match it bit for bit.

    The noise is scaled by sigma = sqrt(sigma2) in its real and imaginary
    parts, as floats."""
    C = len(points)
    keys = rng.stream_key_vec(seed, np.arange(lo, hi, dtype=np.uint64))
    sym = rng.uniform_index(keys, 0, C)
    h_ctr = 1 + 2 * np.arange(N, dtype=np.uint64)
    H = rng.complex_normal(keys[:, None], h_ctr[None, :])
    w_ctr = 1 + 2 * N + 2 * np.arange(2 * N, dtype=np.uint64).reshape(2, N)
    W = rng.complex_normal(keys[:, None, None], w_ctr[None, :, :])
    S = math.sqrt(2.0) * np.take(points, sym, axis=0)[:, :, None] * H[:, None, :]
    Y = (S.view(np.float64) + math.sqrt(sigma2) * W.view(np.float64)).view(np.complex128)
    return sym, H, W, Y


POLES = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


def assert_matches_reference(seed, lo, hi, N, sigma2, points):
    sym, tx, Z = _draw_trials(seed, lo, hi, N, points)
    Y = _receive(tx, Z, math.sqrt(sigma2), np.empty((hi - lo, 2, N), dtype=np.complex128))
    ref_sym, H, W, ref_Y = reference_trial_batch(seed, lo, hi, N, sigma2, points)
    assert np.array_equal(sym, ref_sym)
    assert np.array_equal(Z[:, :N].view(np.uint64), H.view(np.uint64))
    assert np.array_equal(Z[:, N:].view(np.uint64), W.reshape(-1, 2 * N).view(np.uint64))
    assert np.array_equal(Y.view(np.uint64), ref_Y.view(np.uint64))


class TestTrialBatchReference:
    """`_draw_trials` and `_receive` give the reference's words, over block
    boundaries and at the noise variances where a signed zero could differ."""

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 17])
    @pytest.mark.parametrize("sigma2", [0.0, 1e-300, 0.1, 1.0])
    @pytest.mark.parametrize("family", ["z-opt-6", "poles"])
    def test_bitwise_equal(self, N, sigma2, family):
        points = build_z_opt(6).array if family == "z-opt-6" else POLES
        step = channel._TRIAL_BLOCK_ENTRIES // (3 * N)
        # two ranges over two block boundaries, and a single trial
        for lo, hi in ((0, 2 * step + 5), (step - 3, 3 * step + 1), (41, 42)):
            assert_matches_reference(9, lo, hi, N, sigma2, points)

    @pytest.mark.parametrize("entries", [1, 40, 1 << 20])
    def test_block_size_changes_no_bit(self, monkeypatch, entries):
        # one trial per block, blocks that do not divide the range, one block
        monkeypatch.setattr(channel, "_TRIAL_BLOCK_ENTRIES", entries)
        for sigma2 in (0.0, 0.5):
            assert_matches_reference(4, 3, 300, 2, sigma2, POLES)

    def test_noiseless_received_blocks_are_the_signal(self):
        # sigma^2 = 0 gives sqrt(2)*x*H at every SNR position, also in a buffer
        # that held another SNR's blocks
        N = 3
        points = build_z_opt(6).array
        sym, tx, Z = _draw_trials(2, 0, 5000, N, points)
        signal = math.sqrt(2.0) * np.take(points, sym, axis=0)[:, :, None] * Z[:, None, :N]
        Y = np.empty((5000, 2, N), dtype=np.complex128)
        for sigma in (0.0, 1.0, 0.0, 0.3, 0.0):
            _receive(tx, Z, sigma, Y)
            assert np.array_equal(Y, signal) == (sigma == 0.0)


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
        # a chunk holds 3N draws and 2N received entries per row
        assert all(_rows_per_call(N) == 8192 for N in range(1, 4))
        assert _rows_per_call(4) == 6553
        assert _rows_per_call(8) == 3276
        assert _rows_per_call(102) == 257
        assert all(_rows_per_call(N) * 5 * N <= channel.MAX_CHUNK_ENTRIES for N in range(1, 103))
        assert _rows_per_call(103) == 256  # the floor
        assert _rows_per_call(8192) == 256

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


class TestDetectorReuse:
    """`make_detector` builds each detector once per constellation object and
    drops it with that object."""

    def test_one_per_tag_and_constellation(self):
        x, y = build_z_opt(6), build_z_opt(6)
        for tag in channel.DETECTOR_TAGS:
            det = make_detector(tag, x)
            assert make_detector(tag, x) is det
            assert make_detector(tag, y) is not det
        assert len({id(make_detector(tag, x)) for tag in channel.DETECTOR_TAGS}) == 3

    def test_dies_with_its_constellation(self):
        x = build_z_opt(6)
        refs = [weakref.ref(make_detector(tag, x)) for tag in channel.DETECTOR_TAGS]
        del x
        gc.collect()
        assert [r() for r in refs] == [None] * 3

    def test_zopt_refuses_a_plain_constellation_every_call(self):
        plain = build_s_opt(exact_packing(4))
        for _ in range(3):
            with pytest.raises(InvalidInputError, match="no layer structure"):
                make_detector("zopt", plain)

    @pytest.mark.parametrize("tag", channel.DETECTOR_TAGS)
    def test_threads_share_one_detector(self, monkeypatch, tag):
        z = build_z_opt(8)
        det = make_detector(tag, z)
        monkeypatch.setattr(channel, "ROWS_PER_CALL", 256)
        monkeypatch.setattr(channel.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        curves = []
        for workers in ("1", "2", "1"):
            monkeypatch.setenv("GRASSBLOCH_THREADS", workers)
            curves.append(run_ser(z, tag, [4.0, 12.0], trials=3000, N=2, seed=8))
        assert curves[1] == curves[0] and curves[2] == curves[0]
        assert make_detector(tag, z) is det

    def test_concurrent_first_calls_build_one(self):
        """More threads than cores ask at once, with a short switch interval;
        a check-then-act race would build a second tree."""
        x = build_z_opt(10)
        got = []
        start = threading.Barrier(8)

        def ask():
            start.wait(timeout=30)
            got.append(make_detector("sopt", x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 and all(d is got[0] for d in got)

    def test_shared_arrays_are_read_only(self):
        x = build_z_opt(6)
        tree = make_detector("sopt", x).tree
        arrays = [x.bloch, make_detector("glrt", x)._bloch, tree.points,
                  *(v for v in vars(tree).values() if isinstance(v, np.ndarray))]
        assert len(arrays) == 12
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0
        # the tree freezes a view of its points, never the caller's array
        pts = np.array(x.bloch)
        KDTree(pts)
        assert pts.flags.writeable


class TestNothingToDo:
    """A sweep with no SNR point or no detector is refused before any draw."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        monkeypatch.setattr(channel, "_draw_trials", lambda *a: calls.append(a))
        return calls

    def test_empty_snr_list(self, draws):
        with pytest.raises(InvalidInputError, match="empty SNR list"):
            run_ser(build_z_opt(6), "glrt", [], trials=200000, N=8)
        assert draws == []

    def test_no_detector(self, draws):
        with pytest.raises(InvalidInputError, match="need at least one detector"):
            bench_detectors(build_z_opt(6), [], trials=200000, N=8)
        assert draws == []


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


class TestOneStreamPerSweep:
    """Every SNR point of a sweep detects the same draws, so a point's row
    does not depend on which other points the sweep holds or their order."""

    @pytest.mark.parametrize("tag", channel.DETECTOR_TAGS)
    def test_snr_subset_and_order(self, monkeypatch, tag):
        z = build_z_opt(6)
        monkeypatch.setattr(channel.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

        def rows(curve):
            return list(zip(curve.errors, curve.mean_distance_evals, curve.mean_comparisons))

        sweeps = []
        for per_call in (64, 1024):
            for workers in ("1", "2", "4"):
                monkeypatch.setattr(channel, "ROWS_PER_CALL", per_call)
                monkeypatch.setenv("GRASSBLOCH_THREADS", workers)
                full = run_ser(z, tag, [0.0, 10.0, 20.0], trials=3000, N=2, seed=6)
                alone = run_ser(z, tag, [20.0], trials=3000, N=2, seed=6)
                backwards = run_ser(z, tag, [20.0, 10.0, 0.0], trials=3000, N=2, seed=6)
                assert rows(full)[2:] == rows(alone)
                assert rows(backwards) == rows(full)[::-1]
                sweeps.append(full)
        assert all(c == sweeps[0] for c in sweeps)
        assert 0 < sweeps[0].errors[2] < sweeps[0].errors[1] < sweeps[0].errors[0]


def pairwise_error_probability(delta, sigma2, N):
    """Exact GLRT pairwise error probability PEP_N(delta, sigma^2) for the
    transmit scale sqrt(2): P(Beta(N, N) > t), t = 1/2 + a*delta^2/(2D), with
    a = 2 and D = sqrt(a^2 delta^4 + 4 sigma^2 (sigma^2 + a) delta^2)."""
    a = 2.0
    D = math.sqrt(a * a * delta ** 4 + 4.0 * sigma2 * (sigma2 + a) * delta ** 2)
    t = 0.5 + a * delta ** 2 / (2.0 * D)
    return sum(math.comb(2 * N - 1, k) * t ** k * (1.0 - t) ** (2 * N - 1 - k)
               for k in range(N))


class TestExactOracle:
    """For two codewords the symbol error rate is the pairwise error
    probability, so the simulated SER of an orthogonal pair must match it."""

    def test_closed_form_at_one_antenna(self):
        got = [pairwise_error_probability(1.0, 10.0 ** (-snr / 10.0), 1) for snr in (0, 10, 20)]
        assert got == pytest.approx([0.25, 0.045455, 0.0049505], rel=1e-4)

    @pytest.mark.parametrize("N", [1, 4])
    def test_orthogonal_pair(self, N):
        z = build_z_opt(1)
        assert abs(np.vdot(z.array[0], z.array[1])) < 1e-12  # chordal distance 1
        trials = 200000
        curve = run_ser(z, "glrt", [0.0, 10.0, 20.0], trials=trials, N=N, seed=12)
        for snr, errors in zip(curve.snr_db, curve.errors):
            p = pairwise_error_probability(1.0, 10.0 ** (-snr / 10.0), N)
            assert abs(errors - trials * p) <= 4.0 * math.sqrt(trials * p * (1.0 - p)), snr
