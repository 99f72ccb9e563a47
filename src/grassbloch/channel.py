"""Block-Rayleigh Monte Carlo engine with reproducible substreams.

Each trial draws its symbol, channel and noise from a substream keyed by
(seed, SNR index, trial index), so results are bitwise independent of chunk
size, thread count and of which detectors consume the stream. SNR is defined
as 1 / sigma^2: codewords have unit norm before the sqrt(T) transmit scaling
and sigma^2 is the per-complex-entry noise variance.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .detectors import GlrtDetector, SoptDetector, ZoptDetector
from .errors import InvalidInputError
from .zopt import ZOptConstellation

DETECTOR_TAGS = ("glrt", "sopt", "zopt")

_THREADS_ENV = "GRASSBLOCH_THREADS"

#: most entries, rows x 4N, in one trial chunk's arrays
MAX_BLOCK_ENTRIES = 1 << 22


def make_detector(tag: str, x):
    """Instantiate a detector for a constellation.

    The layered detector ("zopt") needs a `ZOptConstellation`.
    """
    if tag == "glrt":
        return GlrtDetector(x)
    if tag == "sopt":
        return SoptDetector(x)
    if tag == "zopt":
        if not isinstance(x, ZOptConstellation):
            raise InvalidInputError(
                "this constellation carries no layer structure; "
                "the zopt detector needs one (construct with --method z-opt)"
            )
        return ZoptDetector(x)
    raise InvalidInputError(f"unknown detector {tag!r}; expected one of {DETECTOR_TAGS}")


@dataclass(frozen=True)
class SerCurve:
    """Per-SNR error counts and detector operation counters for one sweep."""

    snr_db: tuple
    trials: int
    errors: tuple
    ser: tuple
    mean_distance_evals: tuple
    mean_comparisons: tuple
    seed: int
    detector: str
    N: int
    method: str
    C: int


def _thread_count(threads: int | None) -> int:
    """Workers for `threads`, else `GRASSBLOCH_THREADS`, in 1..CPU count.

    The pool gets every chunk at once and may start a thread for each, so
    the count is capped at the CPUs that could run them.
    """
    if threads is None:
        try:
            threads = int(os.environ.get(_THREADS_ENV, ""))
        except ValueError:
            threads = 1
    return max(1, min(threads, os.cpu_count() or 1))


def effective_chunk(chunk: int, N: int) -> int:
    """Rows per detector call: at most `chunk`, and at most
    `MAX_BLOCK_ENTRIES` entries in a batch's (rows, 4N) arrays, but never
    capped below 256 rows. The constellation size plays no part: the GLRT
    detector scores a chunk in cache-sized blocks of its own."""
    cap = max(256, MAX_BLOCK_ENTRIES // (4 * N))
    return max(1, min(chunk, cap))


def _check_run(trials: int, N: int) -> None:
    """Reject trial and antenna counts no run can use."""
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if N < 1:
        raise InvalidInputError("need at least one receive antenna")


def _noise_variance(snr_db) -> float:
    """sigma^2 = 10^(-snr/10) for an SNR in dB; +inf dB is noiseless.

    An SNR that is NaN, or so low that sigma^2 overflows, has no noise
    variance and raises InvalidInputError.
    """
    snr = float(snr_db)
    try:
        sigma2 = 10.0 ** (-snr / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise InvalidInputError(f"SNR {snr!r} dB gives no finite noise variance")
    return sigma2


def _trial_batch(seed: int, snr_index: int, lo: int, hi: int, N: int,
                 sigma2: float, points: np.ndarray):
    """Symbols and received blocks for trials [lo, hi) of one SNR point."""
    C = len(points)
    keys = rng.stream_key_vec(seed, snr_index, np.arange(lo, hi, dtype=np.uint64))
    sym = rng.uniform_index(keys, 0, C)
    h_ctr = 1 + 2 * np.arange(N, dtype=np.uint64)
    H = rng.complex_normal(keys[:, None], h_ctr[None, :])
    w_ctr = 1 + 2 * N + 2 * np.arange(2 * N, dtype=np.uint64).reshape(2, N)
    W = rng.complex_normal(keys[:, None, None], w_ctr[None, :, :], variance=sigma2)
    Y = math.sqrt(2.0) * np.take(points, sym, axis=0)[:, :, None] * H[:, None, :] + W
    return sym, Y


def _run_point(detectors, points, seed, snr_index, sigma2, trials, N, chunk, threads):
    """One SNR point: error and counter totals per detector, plus mismatches.

    Mismatches count trials where a detector disagrees with the first one in
    the list. Chunks are independent substream ranges, so the reduction is a
    plain sum and the outcome does not depend on scheduling.
    """
    n_det = len(detectors)
    starts = list(range(0, trials, chunk))

    def work(lo):
        hi = min(lo + chunk, trials)
        sym, Y = _trial_batch(seed, snr_index, lo, hi, N, sigma2, points)
        errors = np.zeros(n_det, dtype=np.int64)
        evals = np.zeros(n_det, dtype=np.int64)
        comps = np.zeros(n_det, dtype=np.int64)
        max_evals = np.zeros(n_det, dtype=np.int64)
        mismatch = np.zeros(n_det, dtype=np.int64)
        ref = None
        for k, det in enumerate(detectors):
            idx, ev, cp = det.detect_batch(Y)
            errors[k] = int(np.count_nonzero(idx != sym))
            evals[k] = int(ev.sum())
            comps[k] = int(cp.sum())
            max_evals[k] = int(ev.max()) if len(ev) else 0
            if ref is None:
                ref = idx
            else:
                mismatch[k] = int(np.count_nonzero(idx != ref))
        return errors, evals, comps, max_evals, mismatch

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, starts))
    else:
        parts = [work(lo) for lo in starts]
    errors = sum(p[0] for p in parts)
    evals = sum(p[1] for p in parts)
    comps = sum(p[2] for p in parts)
    max_evals = np.max([p[3] for p in parts], axis=0)
    mismatch = sum(p[4] for p in parts)
    return errors, evals, comps, max_evals, mismatch


def _sweep(x, tags, snr_db, trials, N, seed, chunk, threads):
    """`_run_point` totals of the detectors `tags` on `x` at each SNR in dB."""
    _check_run(trials, N)
    sigma2s = [_noise_variance(s) for s in snr_db]
    dets = [make_detector(tag, x) for tag in tags]
    chunk = effective_chunk(chunk, N)
    threads = _thread_count(threads)
    return [_run_point(dets, x.array, seed, snr_index, sigma2, trials, N, chunk, threads)
            for snr_index, sigma2 in enumerate(sigma2s)]


def run_ser(x, detector, snr_db, trials: int, N: int = 1, seed: int = 0,
            chunk: int = 8192, threads: int | None = None) -> SerCurve:
    """Symbol error rate sweep, bitwise reproducible from its arguments.

    `detector` is a tag from `DETECTOR_TAGS`.
    """
    snr_db = [float(s) for s in snr_db]
    # per SNR: errors, evaluations, comparisons, ... of the one detector
    totals = _sweep(x, [detector], snr_db, trials, N, seed, chunk, threads)
    errors = tuple(int(t[0][0]) for t in totals)
    return SerCurve(
        snr_db=tuple(snr_db),
        trials=trials,
        errors=errors,
        ser=tuple(e / trials for e in errors),
        mean_distance_evals=tuple(t[1][0] / trials for t in totals),
        mean_comparisons=tuple(t[2][0] / trials for t in totals),
        seed=seed,
        detector=detector,
        N=N,
        method=x.method,
        C=len(x),
    )


@dataclass(frozen=True)
class BenchReport:
    """Counter summary for one detector over a shared trial stream."""

    detector: str
    trials: int
    errors: int
    mean_distance_evals: float
    max_distance_evals: int
    mean_comparisons: float
    mismatches_vs_first: int


def bench_detectors(x, detectors, trials: int, N: int = 1, seed: int = 0,
                    snr_db: float = 10.0, chunk: int = 8192,
                    threads: int | None = None) -> list[BenchReport]:
    """Run the identical trial stream through every detector and compare.

    `detectors` lists tags from `DETECTOR_TAGS`. The first is the reference
    for the mismatch column; with equivalent detectors that column stays zero
    on every trial.
    """
    ((err, ev, cp, max_ev, mism),) = _sweep(x, detectors, [snr_db], trials, N, seed,
                                            chunk, threads)
    return [
        BenchReport(
            detector=detectors[k],
            trials=trials,
            errors=int(err[k]),
            mean_distance_evals=ev[k] / trials,
            max_distance_evals=int(max_ev[k]),
            mean_comparisons=cp[k] / trials,
            mismatches_vs_first=int(mism[k]),
        )
        for k in range(len(detectors))
    ]
