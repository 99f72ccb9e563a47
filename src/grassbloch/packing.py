"""Point sets on the unit sphere that maximize the minimum pairwise distance.

Exact closed-form configurations are available for C in {2, 3, 4, 6, 8, 12};
everything else goes through a two-phase maximin optimizer or is loaded from a
packing table file (plain text, one "x y z" triple per line, '#' comments,
optional leading point-count header). Each of them gives a `PackingSet`,
which computes its minimum pairwise distance from its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import FormatError, InvalidInputError, UnsupportedError
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
        pts = np.asarray(self.points, dtype=np.float64)
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
        raise UnsupportedError(
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


def _pairwise_distances(points: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Euclidean distances of unit rows into the (C, C) buffer `out`, inf on
    the diagonal.

    `points @ points.T` keeps the transposed view, so the product goes to the
    BLAS rank-k update and comes out exactly symmetric. After the clip to
    [-1, 1], 2 - 2 dot is never negative.
    """
    np.matmul(points, points.T, out=out)
    np.clip(out, -1.0, 1.0, out=out)
    out *= 2.0
    np.subtract(2.0, out, out=out)
    np.sqrt(out, out=out)
    np.fill_diagonal(out, np.inf)
    return out


def softmin_objective(points: np.ndarray, eps: float) -> tuple[float, int]:
    """Smoothed minimum distance and the number of pairs it evaluated.

    Returns -eps * log(sum over pairs of exp(-d_ij / eps)), a lower bound on
    the true minimum that converges to it as eps -> 0. The pair count is
    C * (C - 1) / 2 by construction: the objective touches every pair.
    """
    n = len(points)
    d = _pairwise_distances(points, np.empty((n, n)))
    iu = np.triu_indices(n, k=1)
    vals = d[iu]
    dmin = vals.min()
    total = np.exp(-(vals - dmin) / eps).sum()
    return float(dmin - eps * math.log(total)), n * (n - 1) // 2


def _project_tangent(points: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g - np.sum(g * points, axis=1)[:, None] * points


def _renormalize(points: np.ndarray) -> np.ndarray:
    return points / np.linalg.norm(points, axis=1)[:, None]


def _softmin_phase(points: np.ndarray, cfg: PackingConfig) -> np.ndarray:
    n = len(points)
    decay = (_EPS_FINAL / _EPS_START) ** (1.0 / max(cfg.phase1_iters - 1, 1))
    d = _pairwise_distances(points, np.empty((n, n)))
    w = np.empty_like(d)
    eps = _EPS_START * float(d.min())
    for i in range(cfg.phase1_iters):
        if i:
            _pairwise_distances(points, d)
        dmin = float(d.min())
        np.subtract(dmin, d, out=w)
        w /= eps
        np.exp(w, out=w)  # 0 on the diagonal
        w /= w.sum()
        # ascent direction of the softened minimum: repel along near-critical
        # pairs with weight w / d; d becomes 1 / d, 0 where d is 0
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
    A step is kept only when the global minimum improves; the trial's
    distances then become the current ones, so each sweep builds at most one
    distance matrix.
    """
    n = len(points)
    step = _PHASE2_STEP
    d = _pairwise_distances(points, np.empty((n, n)))
    trial_d = np.empty_like(d)
    w = np.empty_like(d)
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
        ft = float(_pairwise_distances(trial, trial_d).min())
        if ft > best_f:
            points, best_f = trial, ft
            d, trial_d = trial_d, d
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
    cfg = config or PackingConfig()
    if C == 2:
        return _make(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
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


def load_packing(path) -> PackingSet:
    """Read a packing table file and validate it.

    Entries may deviate from unit norm by at most 1e-6 and are renormalized.
    Larger deviations and parse failures are format errors carrying the
    offending line number; so are, without one, a point-count mismatch
    against an optional integer header and whatever `PackingSet` rejects
    (fewer than two points, duplicates).
    """
    rows = []
    header = None
    with open(path) as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) == 1 and header is None and not rows:
                try:
                    header = int(parts[0])
                    continue
                except ValueError:
                    raise FormatError("expected integer header or x y z triple",
                                      path=path, line=lineno) from None
            if len(parts) != 3:
                raise FormatError(f"expected 3 values, got {len(parts)}",
                                  path=path, line=lineno)
            try:
                vec = [float(p) for p in parts]
            except ValueError:
                raise FormatError(f"non-numeric value in {parts!r}",
                                  path=path, line=lineno) from None
            norm = math.sqrt(sum(v * v for v in vec))
            if not abs(norm - 1.0) <= 1e-6:  # also rejects NaN
                raise FormatError(f"point norm {norm!r} deviates from 1 by more than 1e-6",
                                  path=path, line=lineno)
            rows.append([v / norm for v in vec])
    if header is not None and header != len(rows):
        raise FormatError(f"header says {header} points but file holds {len(rows)}",
                          path=path, line=None)
    try:
        return PackingSet(np.asarray(rows, dtype=np.float64))
    except InvalidInputError as exc:
        raise FormatError(str(exc), path=path) from exc


def save_packing(path, packing: PackingSet) -> None:
    """Write a PackingSet in the text format accepted by load_packing."""
    with open(path, "w") as fh:
        fh.write(f"# {packing.C} points, min distance {packing.min_distance:.12f}\n")
        fh.write(f"{packing.C}\n")
        for p in packing.points:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
