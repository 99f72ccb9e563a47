"""Point sets on the unit sphere that maximize the minimum pairwise distance.

Exact closed-form configurations are available for C in {2, 3, 4, 6, 8, 12};
everything else goes through a two-phase maximin optimizer, or comes from a
packing table that `formats.load_packing` reads. Each of them gives a
`PackingSet`, which computes its minimum pairwise distance from its points.
This module reads no files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import InvalidInputError
from .geometry import min_euclidean_distance_array

EXACT_COUNTS = (2, 3, 4, 6, 8, 12)

_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class PackingSet:
    """Distinct unit vectors on the sphere, (n, 3) with n >= 2, and the
    minimum pairwise distance they determine.

    Points more than 1e-9 off unit norm, or two points within 1e-9 of each
    other, raise InvalidInputError.
    """

    points: np.ndarray
    min_distance: float = field(init=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)  # frozen below: not the caller's
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 2:
            raise InvalidInputError("packing needs an (n, 3) array with n >= 2")
        norms = np.linalg.norm(pts, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= 1e-9:  # also rejects NaN
            raise InvalidInputError("packing points must be unit vectors")
        d_min = min_euclidean_distance_array(pts)
        if d_min <= 1e-9:
            raise InvalidInputError("packing contains duplicate points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "min_distance", d_min)

    @property
    def C(self) -> int:
        return len(self.points)


def _make(points: np.ndarray) -> PackingSet:
    points = np.asarray(points, dtype=np.float64)
    return PackingSet(points / np.linalg.norm(points, axis=1)[:, None])


def _antiprism_layers(theta: float, count: int, offset: float) -> np.ndarray:
    phis = offset + 2.0 * np.pi * np.arange(count) / count
    s, c = math.sin(theta), math.cos(theta)
    return np.column_stack([s * np.cos(phis), s * np.sin(phis), np.full(count, c)])


def exact_packing(C: int) -> PackingSet:
    """Closed-form optimal configuration for C in {2, 3, 4, 6, 8, 12}."""
    if C == 2:
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    elif C == 3:
        phis = 2.0 * np.pi * np.arange(3) / 3.0
        pts = np.column_stack([np.cos(phis), np.sin(phis), np.zeros(3)])
    elif C == 4:
        pts = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        ) / math.sqrt(3.0)
    elif C == 6:
        pts = np.array(
            [
                [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
            ]
        )
    elif C == 8:
        # square antiprism; the tilt angle solves the in-layer/diagonal equality
        theta = math.atan(math.sqrt(2.0 * math.sqrt(2.0)))
        top = _antiprism_layers(theta, 4, 0.0)
        bottom = _antiprism_layers(math.pi - theta, 4, math.pi / 4.0)
        pts = np.vstack([top, bottom])
    elif C == 12:
        g = _GOLDEN_RATIO
        base = []
        for a in (-1.0, 1.0):
            for b in (-g, g):
                base.extend([[0.0, a, b], [a, b, 0.0], [b, 0.0, a]])
        pts = np.asarray(base) / math.sqrt(1.0 + g * g)
    else:
        raise InvalidInputError(
            f"no closed form for C={C}; use optimize_packing or load_packing"
        )
    return _make(pts)


#: phase-1 temperature at the start and the end, as fractions of the running
#: minimum distance; it decays geometrically in between
_EPS_START = 0.5
_EPS_FINAL = 0.02
#: phase-1 step, as a fraction of the temperature, for the largest gradient entry
_STEP_SCALE = 0.5
#: phase-2 step bounds, as fractions of the minimum distance
_PHASE2_STEP = 0.05
_MIN_STEP = 1e-13
#: start spread around the spiral, as a fraction of the nominal spacing
_INIT_NOISE = 0.25
#: phase-1 exponents are raised to this floor before the exp. Late in the run
#: (dmin - d) / eps reaches below -1700, and numpy's exp takes a slow path for
#: results that underflow to 0 or land subnormal; every later C x C step then
#: runs on subnormals too. e^-690 ~ 2e-300 stays normal after the division by
#: the sum (at most C^2 <= 2^24) and the product with 1/d (at least 1/2). The
#: closest pair's weight is exp(0) = 1, so the sum is at least 2, and the
#: raised weights add under 1e-294 to it: below half an ulp of every row that
#: moves a point, so a changed weight could only matter for a coordinate
#: below about 1e-270. The points are bit for bit those of the unclamped exp.
_EXP_FLOOR = -690.0


@dataclass(frozen=True)
class PackingConfig:
    """Optimizer budget; the defaults are tuned for C up to a few thousand.

    Phase 1 follows the gradient of a softened minimum (log-sum-exp of negative
    pairwise distances) for `phase1_iters` steps while the temperature decays
    geometrically from `_EPS_START` to `_EPS_FINAL` of the running minimum
    distance. Phase 2 polishes with direct maximin ascent for up to
    `phase2_sweeps` sweeps: every point whose nearest neighbor sits near the
    global minimum moves away from its near-critical neighbors, and a step is
    kept only when the global minimum improves. Each of `starts` restarts
    perturbs the spiral start differently. `starts` must be at least 1 and
    the two phase budgets at least 0.
    """

    starts: int = 4
    phase1_iters: int = 500
    phase2_sweeps: int = 2000

    def __post_init__(self):
        if self.starts < 1:
            raise InvalidInputError(f"starts must be >= 1, got {self.starts}")
        if self.phase1_iters < 0 or self.phase2_sweeps < 0:
            raise InvalidInputError(
                "phase1_iters and phase2_sweeps must be >= 0, got "
                f"{self.phase1_iters} and {self.phase2_sweeps}"
            )


def fibonacci_points(C: int) -> np.ndarray:
    """Deterministic well-spread start: golden-angle spiral on the sphere."""
    i = np.arange(C, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / C
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = (2.0 * np.pi / (_GOLDEN_RATIO * _GOLDEN_RATIO)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _gram_buffer(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One allocation seen two ways: an (n, n) Gram view whose rows lie an odd
    number of 64-byte lines apart, and a contiguous (n, n) view of the same
    memory.

    numpy forms `points @ points.T` with the BLAS rank-k update and then
    mirrors the triangle column by column. At a row stride that is a multiple
    of 4 KiB (C = 2^B >= 512 contiguous rows) every write of that mirror lands
    in the same L1 set, and the product takes four times as long; the padded
    stride spreads the writes over the sets with the same bits. The
    contiguous view holds the weights, which are dead before the next Gram is
    written. Reductions run only on contiguous arrays: a whole-array sum over
    the strided view would add in another order.
    """
    lines = (8 * n + 63) // 64 | 1
    buf = np.empty((n, 8 * lines))
    return buf[:, :n], buf.reshape(-1)[: n * n].reshape(n, n)


def _distances_from_gram(gram: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Euclidean distances of unit rows into the contiguous (n, n) `out`, inf
    on the diagonal, from their Gram matrix.

    After the clip to [-1, 1], 2 - 2 dot is never negative.
    """
    np.clip(gram, -1.0, 1.0, out=out)
    out *= 2.0
    np.subtract(2.0, out, out=out)
    np.sqrt(out, out=out)
    np.fill_diagonal(out, np.inf)
    return out


def _pairwise_distances(points: np.ndarray, gram: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Distances of unit rows into `out` through their Gram matrix in `gram`.

    `points @ points.T` keeps the transposed view, so the product goes to the
    BLAS rank-k update and comes out exactly symmetric.
    """
    np.matmul(points, points.T, out=gram)
    return _distances_from_gram(gram, out)


def _min_distance_from_gram(gram: np.ndarray) -> float:
    """`_distances_from_gram(gram, ...).min()` bit for bit, without the matrix.

    Clip, 2 - 2x and sqrt are correctly rounded and monotone, so the closest
    pair is the largest off-diagonal dot product. NaN propagates as it does
    through the distance matrix. Overwrites the diagonal of `gram`.
    """
    np.fill_diagonal(gram, -np.inf)
    return float(np.sqrt(2.0 - 2.0 * np.clip(gram.max(), -1.0, 1.0)))


def _softmin_weights(d: np.ndarray, eps: float, w: np.ndarray) -> float:
    """Phase 1's weights exp((dmin - d_ij) / eps) of the distances `d` (inf on
    the diagonal) into `w`, normalized to sum to 1; returns dmin."""
    dmin = float(d.min())
    np.subtract(dmin, d, out=w)
    w /= eps
    np.maximum(w, _EXP_FLOOR, out=w)
    np.exp(w, out=w)
    np.fill_diagonal(w, 0.0)  # the floor lifted the diagonal's -inf
    w /= w.sum()
    return dmin


def _project_tangent(points: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g - np.sum(g * points, axis=1)[:, None] * points


def _renormalize(points: np.ndarray) -> np.ndarray:
    return points / np.linalg.norm(points, axis=1)[:, None]


def _softmin_phase(points: np.ndarray, cfg: PackingConfig) -> np.ndarray:
    n = len(points)
    decay = (_EPS_FINAL / _EPS_START) ** (1.0 / max(cfg.phase1_iters - 1, 1))
    gram, w = _gram_buffer(n)
    d = _pairwise_distances(points, gram, np.empty((n, n)))
    eps = _EPS_START * float(d.min())
    for i in range(cfg.phase1_iters):
        if i:
            _pairwise_distances(points, gram, d)
        dmin = _softmin_weights(d, eps, w)
        # ascent direction of the softened minimum: repel along near-critical
        # pairs with weight w / d. d becomes 1 / d, 0 on the inf diagonal;
        # only a pair at d = 0 needs the slower mask, which leaves it at 0
        if dmin > 0:
            np.divide(1.0, d, out=d)
        else:
            np.divide(1.0, d, out=d, where=d > 0)
        w *= d
        g = points * w.sum(axis=1)[:, None] - w @ points
        g = _project_tangent(points, g)
        gmax = float(np.abs(g).max())
        if gmax > 0:
            points = _renormalize(points + (_STEP_SCALE * eps / gmax) * g)
        eps *= decay
    return points


def _maximin_polish(points: np.ndarray, cfg: PackingConfig) -> np.ndarray:
    """Direct maximin ascent: push points away from their near-critical neighbors.

    The active-pair slack tracks the step size, so as steps shrink only the
    pairs that truly attain the minimum keep steering the configuration.
    A step is kept only when the global minimum improves, which the trial's
    Gram matrix decides; only then does it become the current distances.
    """
    n = len(points)
    step = _PHASE2_STEP
    gram, w = _gram_buffer(n)
    d = _pairwise_distances(points, gram, np.empty((n, n)))
    best_f = float(d.min())
    for _ in range(cfg.phase2_sweeps):
        if step < _MIN_STEP:
            break
        nn = d.min(axis=1)
        slack = min(0.05, max(2.0 * step, 1e-12))
        active = nn <= best_f * (1.0 + slack)
        # weight (reach - d) / d on the pairs closer than the row's reach; a
        # pair at d = 0 has reach 0 and drops out, as does the diagonal
        np.subtract((nn * (1.0 + slack))[:, None], d, out=w)
        np.divide(w, d, out=w, where=w > 0)
        np.maximum(w, 0.0, out=w)
        g = points * w.sum(axis=1)[:, None] - w @ points
        g = _project_tangent(points, g)
        norms = np.linalg.norm(g, axis=1)
        move = active & (norms > 0)
        if not np.any(move):
            step *= 0.5
            continue
        g[move] /= norms[move][:, None]
        g[~move] = 0.0
        trial = _renormalize(points + (step * best_f) * g)
        np.matmul(trial, trial.T, out=gram)
        ft = _min_distance_from_gram(gram)
        if ft > best_f:
            points, best_f = trial, ft
            _distances_from_gram(gram, d)
            step = min(step * 1.3, _PHASE2_STEP)
        else:
            step *= 0.5
    return points


def optimize_packing(C: int, seed: int = 0, config: PackingConfig | None = None) -> PackingSet:
    """Maximin point placement for any C >= 2, deterministic in (C, seed, config).

    Non-convergence is not an error: the best configuration found is returned
    and its achieved minimum distance is recorded on the result.
    """
    if C < 2:
        raise InvalidInputError("need at least two points")
    if C == 2:
        return exact_packing(2)
    cfg = config or PackingConfig()
    base = fibonacci_points(C)
    nominal = math.sqrt(8.0 * math.pi / (math.sqrt(3.0) * C))
    best_points, best_f = None, -1.0
    for start in range(cfg.starts):
        key = rng.stream_key_vec(seed, 0x5048, start)
        noise = rng.complex_normal(key, 2 * np.arange(3 * C, dtype=np.uint64)).real
        noise = noise.reshape(C, 3) * (_INIT_NOISE * nominal)
        pts = _renormalize(base + _project_tangent(base, noise))
        pts = _softmin_phase(pts, cfg)
        pts = _maximin_polish(pts, cfg)
        f = min_euclidean_distance_array(pts)
        if f > best_f:
            best_points, best_f = pts, f
    return _make(best_points)
