"""Block-Rayleigh Monte Carlo engine with reproducible substreams.

Each trial draws its symbol, channel and unit-variance noise once, from a
substream keyed by (seed, trial index), and every SNR point of a sweep
receives Y = sqrt(2)*x*H + sigma*W from those draws. So results are bitwise
independent of the rows per detector call, the worker count, which detectors
consume the stream and which other SNR points the sweep holds. Sweeps run one
worker thread per CPU in the process's affinity mask; the GRASSBLOCH_THREADS
environment variable asks for fewer. SNR is defined as 1 / sigma^2: codewords
have unit norm before the sqrt(T) transmit scaling and sigma^2 is the
per-complex-entry noise variance.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .detectors import GlrtDetector, SoptDetector, ZoptDetector
from .errors import InvalidInputError
from .geometry import DETECTOR_TAGS

DETECTORS = dict(zip(DETECTOR_TAGS, (GlrtDetector, SoptDetector, ZoptDetector)))

_THREADS_ENV = "GRASSBLOCH_THREADS"

#: tag -> detector for each constellation object that `make_detector` served;
#: an entry goes when its constellation does
_built = weakref.WeakKeyDictionary()
_built_lock = threading.Lock()

#: most rows in one detector call
ROWS_PER_CALL = 8192
#: most complex entries, rows x 5N, that a trial chunk holds: its 3N draws
#: and 2N received entries per row. 2 MiB: a chunk still fills a whole
#: detector call for N <= 3, and a larger cap (5 x 2^15 entries) ran N = 8
#: sweeps no faster while holding about 1 MB more at its peak.
MAX_CHUNK_ENTRIES = 1 << 17
#: most draws, trials x 3N, in one block of trial generation, so that a
#: block's arrays stay in L2 cache from the counters to the draws, and from
#: the draws to Y
_TRIAL_BLOCK_ENTRIES = 1 << 14


def make_detector(tag: str, x):
    """The detector `tag` for the constellation object `x`, built on the first
    call and returned again while `x` lives. Detectors keep no per-call state
    and their arrays are read-only, so every caller, and every worker thread
    of a sweep, can share one.

    The layered detector ("zopt") refuses a constellation without a layer
    structure, on every call.
    """
    if tag not in DETECTORS:
        raise InvalidInputError(f"unknown detector {tag!r}; expected one of {DETECTOR_TAGS}")
    with _built_lock:
        built = _built.setdefault(x, {})
        if tag not in built:
            built[tag] = DETECTORS[tag](x)
        return built[tag]


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
    `MAX_CHUNK_ENTRIES` entries in a chunk's (rows, 5N) arrays, but never
    capped below 256 rows. The constellation size plays no part: the GLRT
    detector scores a chunk in cache-sized blocks of its own."""
    return min(ROWS_PER_CALL, max(256, MAX_CHUNK_ENTRIES // (5 * N)))


def _block_rows(N: int) -> int:
    """Trials per block of trial generation: at most `_TRIAL_BLOCK_ENTRIES`
    draws, and at least one trial."""
    return max(1, _TRIAL_BLOCK_ENTRIES // (3 * N))


def _check_run(tags, snr_db, trials: int, N: int) -> None:
    """Reject sweeps with nothing to do, and trial and antenna counts no run
    can use, before any trial is drawn."""
    if not snr_db:
        raise InvalidInputError("empty SNR list")
    if not tags:
        raise InvalidInputError("need at least one detector")
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


def _draw_trials(seed: int, lo: int, hi: int, N: int, points: np.ndarray):
    """Symbols, transmit rows and unit-variance draws of trials [lo, hi).

    A trial's symbol is counter 0 of its substream. Its 3N unit-variance
    complex normal draws take counters 1 + 2k, k < 3N: first the N channel
    gains H, then the 2N noise entries W, row by row. Returns the symbols, the
    (n, 2, 1) transmit rows sqrt(2)*x and the (n, 3N) draws [H | W]. Draws go
    in blocks of at most `_TRIAL_BLOCK_ENTRIES`, which change no bit.
    """
    keys = rng.stream_key_vec(seed, np.arange(lo, hi, dtype=np.uint64))
    sym = rng.uniform_index(keys, 0, len(points))
    tx = math.sqrt(2.0) * np.take(points, sym, axis=0)[:, :, None]
    ctr = 1 + 2 * np.arange(3 * N, dtype=np.uint64)
    n = hi - lo
    step = _block_rows(N)
    Z = np.empty((n, 3 * N), dtype=np.complex128)
    for s in range(0, n, step):
        b = min(step, n - s)
        rng.complex_normal(keys[s:s + b, None], ctr, out=Z[s:s + b])
    return sym, tx, Z


def _receive(tx: np.ndarray, Z: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    """Received blocks Y = tx*H + sigma*W of `_draw_trials`' rows, into the
    (n, 2, N) complex array `out`, which is returned.

    The noise is scaled part by part, real and imaginary, as floats. Y goes
    in the blocks `_draw_trials` uses, with a block-sized scratch, and the
    block size changes no bit.
    """
    n, N = len(Z), Z.shape[1] // 3
    step = _block_rows(N)
    noise = np.empty((min(step, n), 4 * N))
    for s in range(0, n, step):
        b = min(step, n - s)
        np.multiply(tx[s:s + b], Z[s:s + b, None, :N], out=out[s:s + b])
        w = np.multiply(Z[s:s + b, N:].view(np.float64), sigma, out=noise[:b])
        y = out[s:s + b].view(np.float64)
        y += w.reshape(y.shape)
    return out


def _sweep(x, tags, snr_db, trials, N, seed):
    """Totals of the detectors `tags` on `x`: a (SNRs, 5, detectors) int64
    array.

    Its rows per SNR are errors, distance evaluations, comparisons, the most
    evaluations on one trial, and mismatches: trials where a detector
    disagrees with the first one in the list. Each chunk of trials is drawn
    once and detected at every SNR. Chunks are independent substream ranges,
    so the reduction is a plain sum (a max for the fourth row) and the outcome
    does not depend on scheduling.
    """
    _check_run(tags, snr_db, trials, N)
    sigmas = [math.sqrt(_noise_variance(s)) for s in snr_db]
    detectors = [make_detector(tag, x) for tag in tags]
    rows = _rows_per_call(N)

    def work(lo):
        hi = min(lo + rows, trials)
        sym, tx, Z = _draw_trials(seed, lo, hi, N, x.array)
        Y = np.empty((hi - lo, 2, N), dtype=np.complex128)
        tally = np.empty((len(sigmas), 5, len(detectors)), dtype=np.int64)
        for i, sigma in enumerate(sigmas):
            _receive(tx, Z, sigma, Y)
            for k, det in enumerate(detectors):
                idx, ev, cp = det.detect_batch(Y)
                if k == 0:
                    ref = idx
                tally[i, :, k] = (np.count_nonzero(idx != sym), ev.sum(), cp.sum(), ev.max(),
                                  np.count_nonzero(idx != ref))
        return tally

    starts = range(0, trials, rows)
    workers = _workers()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = np.stack(list(pool.map(work, starts)))
    else:
        parts = np.stack([work(lo) for lo in starts])
    totals = parts.sum(axis=0)
    totals[:, 3] = parts[:, :, 3].max(axis=0)
    return totals


def run_ser(x, detector, snr_db, trials: int, N: int = 1, seed: int = 0) -> SerCurve:
    """Symbol error rate sweep, bitwise reproducible from its arguments.

    `detector` is a tag from `DETECTOR_TAGS`.
    """
    snr_db = [float(s) for s in snr_db]
    # per SNR: errors, evaluations, comparisons, ... of the one detector
    totals = _sweep(x, [detector], snr_db, trials, N, seed)[:, :, 0]
    errors = tuple(int(t[0]) for t in totals)
    return SerCurve(
        snr_db=tuple(snr_db),
        trials=trials,
        errors=errors,
        ser=tuple(e / trials for e in errors),
        mean_distance_evals=tuple(t[1] / trials for t in totals),
        mean_comparisons=tuple(t[2] / trials for t in totals),
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
