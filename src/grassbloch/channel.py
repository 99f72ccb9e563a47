"""Block-Rayleigh Monte Carlo engine with reproducible substreams.

Each trial draws its symbol, channel and noise from a substream keyed by
(seed, SNR index, trial index), so results are bitwise independent of the
rows per detector call, the worker count and of which detectors consume the
stream. Sweeps run one worker thread per CPU in the process's affinity mask;
the GRASSBLOCH_THREADS environment variable asks for fewer. SNR is defined
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

DETECTORS = {"glrt": GlrtDetector, "sopt": SoptDetector, "zopt": ZoptDetector}
DETECTOR_TAGS = tuple(DETECTORS)

_THREADS_ENV = "GRASSBLOCH_THREADS"

#: most rows in one detector call
ROWS_PER_CALL = 8192
#: most entries, rows x 4N, in one trial chunk's arrays
MAX_BLOCK_ENTRIES = 1 << 22


def make_detector(tag: str, x):
    """Instantiate a detector for a constellation.

    The layered detector ("zopt") needs a `ZOptConstellation`.
    """
    if tag not in DETECTORS:
        raise InvalidInputError(f"unknown detector {tag!r}; expected one of {DETECTOR_TAGS}")
    if tag == "zopt" and not isinstance(x, ZOptConstellation):
        raise InvalidInputError(
            "this constellation carries no layer structure; "
            "the zopt detector needs one (construct with --method z-opt)"
        )
    return DETECTORS[tag](x)


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


def _workers() -> int:
    """Worker threads for a sweep: the CPUs in the affinity mask, or fewer
    if `GRASSBLOCH_THREADS` asks for fewer.

    The pool gets every chunk at once and may start a thread for each, so
    the count is capped at the CPUs that could run them. An unset or empty
    variable means the default; any other value must be an integer >= 1.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    value = os.environ.get(_THREADS_ENV, "")
    if not value:
        return cpus
    if not value.isdecimal() or int(value) < 1:
        raise InvalidInputError(f"{_THREADS_ENV} must be an integer >= 1, got {value!r}")
    return min(int(value), cpus)


def _rows_per_call(N: int) -> int:
    """Rows per detector call: at most `ROWS_PER_CALL`, and at most
    `MAX_BLOCK_ENTRIES` entries in a batch's (rows, 4N) arrays, but never
    capped below 256 rows. The constellation size plays no part: the GLRT
    detector scores a chunk in cache-sized blocks of its own."""
    return min(ROWS_PER_CALL, max(256, MAX_BLOCK_ENTRIES // (4 * N)))


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


def _run_point(detectors, points, seed, snr_index, sigma2, trials, N, rows, workers):
    """One SNR point: a (5, n_detectors) int64 array of totals per detector.

    Its rows are errors, distance evaluations, comparisons, the most
    evaluations on one trial, and mismatches: trials where a detector
    disagrees with the first one in the list. Chunks are independent
    substream ranges, so the reduction is a plain sum (a max for the fourth
    row) and the outcome does not depend on scheduling.
    """

    def work(lo):
        sym, Y = _trial_batch(seed, snr_index, lo, min(lo + rows, trials), N, sigma2, points)
        tally = np.empty((5, len(detectors)), dtype=np.int64)
        for k, det in enumerate(detectors):
            idx, ev, cp = det.detect_batch(Y)
            if k == 0:
                ref = idx
            tally[:, k] = (np.count_nonzero(idx != sym), ev.sum(), cp.sum(), ev.max(),
                           np.count_nonzero(idx != ref))
        return tally

    starts = range(0, trials, rows)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = np.stack(list(pool.map(work, starts)))
    else:
        parts = np.stack([work(lo) for lo in starts])
    totals = parts.sum(axis=0)
    totals[3] = parts[:, 3].max(axis=0)
    return totals


def _sweep(x, tags, snr_db, trials, N, seed):
    """`_run_point` totals of the detectors `tags` on `x` at each SNR in dB."""
    _check_run(trials, N)
    sigma2s = [_noise_variance(s) for s in snr_db]
    dets = [make_detector(tag, x) for tag in tags]
    rows = _rows_per_call(N)
    workers = _workers()
    return [_run_point(dets, x.array, seed, snr_index, sigma2, trials, N, rows, workers)
            for snr_index, sigma2 in enumerate(sigma2s)]


def run_ser(x, detector, snr_db, trials: int, N: int = 1, seed: int = 0) -> SerCurve:
    """Symbol error rate sweep, bitwise reproducible from its arguments.

    `detector` is a tag from `DETECTOR_TAGS`.
    """
    snr_db = [float(s) for s in snr_db]
    # per SNR: errors, evaluations, comparisons, ... of the one detector
    totals = _sweep(x, [detector], snr_db, trials, N, seed)
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
                    snr_db: float = 10.0) -> list[BenchReport]:
    """Run the identical trial stream through every detector and compare.

    `detectors` lists tags from `DETECTOR_TAGS`. The first is the reference
    for the mismatch column; with equivalent detectors that column stays zero
    on every trial.
    """
    ((err, ev, cp, max_ev, mism),) = _sweep(x, detectors, [snr_db], trials, N, seed)
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
