"""Constellation builders: sphere-packing based and the structured baselines.

The packing route (build_s_opt / build_man_opt) converts any point set on the
unit sphere into codewords and inherits its minimum distance exactly, halved.
The remaining builders are structured maps from symbol sets or grids onto
G(2,1): an exponential map of complex symbols, a cell-partition map, and a
measure-preserving hypercube map.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError
from .geometry import (
    Constellation,
    angles_to_codewords,
    bloch_angles,
    bloch_array,
    canonicalize_array,
    min_chordal_distance_array,
)

if TYPE_CHECKING:  # annotations only: the structured builders need no packing
    from .packing import PackingConfig, PackingSet


# ---------------------------------------------------------------------------
# sphere-packing constructions


def build_s_opt(p: PackingSet, method: str = "s-opt") -> Constellation:
    """Codewords whose Bloch points are exactly the packing's points."""
    return Constellation(angles_to_codewords(*bloch_angles(p.points)), method)


def build_man_opt(C: int, seed: int = 0, config: PackingConfig | None = None) -> Constellation:
    """Maximin-optimized constellation.

    On G(2,1) maximizing the minimum chordal distance is the same problem as
    maximin point dispersion on the Bloch sphere, so the numerical work runs
    there and the result is converted exactly.
    """
    from .packing import optimize_packing

    packing = optimize_packing(C, seed=seed, config=config)
    return build_s_opt(packing, method="man-opt")


# ---------------------------------------------------------------------------
# exponential map


def build_exp_map(symbols) -> Constellation:
    """Map complex symbols v with |v| < pi/2 to (cos|v|, -(sin|v|/|v|) v)."""
    v = np.asarray(symbols, dtype=np.complex128)
    if np.any(np.abs(v) >= math.pi / 2.0):
        raise InvalidInputError("symbol magnitudes must stay below pi/2 to keep the map invertible")
    return Constellation(canonicalize_array(_exp_map_points(v)), "exp-map")


def psk_symbols(n: int, radius: float) -> np.ndarray:
    """n equally spaced symbols on a circle of the given radius."""
    return radius * np.exp(2j * math.pi * np.arange(n) / n)


def qam_symbols(n: int, scale: float) -> np.ndarray:
    """Square grid of n symbols (n must be a perfect square) at the given scale."""
    m = round(math.sqrt(n))
    if m * m != n:
        raise InvalidInputError(f"{n} is not a perfect square")
    levels = scale * (2.0 * np.arange(m) - (m - 1))
    re, im = np.meshgrid(levels, levels, indexing="ij")
    return (re + 1j * im).ravel()


#: evenly spaced scales in the exp-map grid search
_SWEEP_STEPS = 200
#: grid scales whose pair bounds one call computes; its temporaries peak at
#: 0.4 MiB for 8 scales at B = 10 (1.8 MiB at B = 14), 10 MiB for all 200
_BOUND_CHUNK = 8


def _ring_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the m x m grid's two outer rings, and the positions
    (a, b) in that list of every edge- and diagonal-neighbour pair in them."""
    i, j = np.divmod(np.arange(m * m).reshape(m, m), m)
    ring = np.minimum(np.minimum(i, j), m - 1 - np.maximum(i, j)) < 2
    pos = np.cumsum(ring).reshape(m, m) - 1
    a, b = [], []
    for p, q in (
        (np.s_[:-1, :], np.s_[1:, :]),
        (np.s_[:, :-1], np.s_[:, 1:]),
        (np.s_[:-1, :-1], np.s_[1:, 1:]),
        (np.s_[:-1, 1:], np.s_[1:, :-1]),
    ):
        both = ring[p] & ring[q]
        a.append(pos[p][both])
        b.append(pos[q][both])
    return np.flatnonzero(ring), np.concatenate(a), np.concatenate(b)


def _pair_bounds(m: int, scales) -> np.ndarray:
    """Upper bounds on the minimum distance of the m x m grid's exp-map
    points at each scale, as `min_chordal_distance_array` computes it.

    Each is the least distance over the pairs of `_ring_pairs`. Any pair
    bounds d_min, and on the grid scales for B = 2..14 the closest pair is
    one of these, except at the top scales, where the corners close in on
    the south pole. The symbols and squared distances are computed as the
    full probe computes them, and 1e-14 added to the square covers the
    probe's rounding: it picks its candidate pairs by dot product, so its
    square can exceed a pair's here by about 1e-16.
    """
    rows, a, b = _ring_pairs(m)
    levels = np.asarray(scales, dtype=np.float64)[:, None] * (2.0 * np.arange(m) - (m - 1))
    i, j = np.divmod(rows, m)
    v = levels[:, i] + 1j * levels[:, j]
    p = bloch_array(canonicalize_array(_exp_map_points(v.ravel()))).reshape(len(v), len(rows), 3)
    dx, dy, dz = (p[:, a] - p[:, b]).transpose(2, 0, 1)
    return np.sqrt((dx * dx + dy * dy + dz * dz).min(axis=1) + 1e-14) / 2.0


def _sweep_scale(m: int, lo: float, hi: float) -> float:
    """Scale in [lo, hi] at which the m x m grid's exp-map points have the
    largest minimum distance: the best of `_SWEEP_STEPS` evenly spaced
    scales, then 30 rounds of two probes at a shrinking span either side of
    the best, the first scale winning exact ties.

    A scale is probed (one full d_min) only while its `_pair_bounds` can
    reach the best d_min found, so the choice is the one that probing every
    scale makes. The grid scales go in descending bound order.
    """

    def d_min(s):
        return min_chordal_distance_array(canonicalize_array(_exp_map_points(qam_symbols(m * m, s))))

    grid = np.linspace(lo, hi, _SWEEP_STEPS)
    bounds = np.concatenate(
        [_pair_bounds(m, grid[i : i + _BOUND_CHUNK]) for i in range(0, _SWEEP_STEPS, _BOUND_CHUNK)]
    )
    best_i, best_d = 0, -1.0
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] < best_d:
            break
        d = d_min(grid[i])
        if d > best_d or (d == best_d and i < best_i):
            best_i, best_d = i, d
    best_s = grid[best_i]
    span = (hi - lo) / (_SWEEP_STEPS - 1)
    for _ in range(30):
        span *= 0.6
        probes = [s for s in (best_s - span, best_s + span) if lo <= s <= hi]
        for s, bound in zip(probes, _pair_bounds(m, probes)):
            if bound >= best_d:
                d = d_min(s)
                if d > best_d:
                    best_s, best_d = s, d
    return best_s


def _exp_map_points(v: np.ndarray) -> np.ndarray:
    rho = np.abs(v)
    sinc = np.where(rho > 0.0, np.sin(rho) / np.where(rho > 0, rho, 1.0), 1.0)
    return np.column_stack([np.cos(rho), -sinc * v])


def exp_map_psk(C: int) -> Constellation:
    """PSK symbols on one ring of radius pi/4.

    The map sends |v| to the Bloch polar angle 2|v|, so this ring is the
    equator, where the in-ring chord 2 sin(theta) sin(pi/C) peaks.
    """
    return build_exp_map(psk_symbols(C, math.pi / 4.0))


def exp_map_qam(C: int) -> Constellation:
    """Square-grid symbols, scaled by grid search inside the invertibility disk."""
    if C < 4:
        raise InvalidInputError(f"square-grid symbols need at least 4 codewords, not {C}")
    m = round(math.sqrt(C))
    if m * m != C:
        raise InvalidInputError(f"square-grid symbols need a square constellation size, not {C}")
    s_max = (math.pi / 2.0 - 1e-9) / (math.sqrt(2.0) * (m - 1))
    scale = _sweep_scale(m, s_max * 1e-3, s_max)
    return build_exp_map(qam_symbols(C, scale))


def exp_map_constellation(B: int, symbols: str = "auto") -> Constellation:
    """2^B-point exponential-map constellation; grid symbols when B is even."""
    C = 2**B
    if symbols == "auto":
        symbols = "qam" if B % 2 == 0 and B >= 2 else "psk"
    if symbols == "qam":
        return exp_map_qam(C)
    if symbols == "psk":
        return exp_map_psk(C)
    raise InvalidInputError(f"unknown symbol family {symbols!r}")


# ---------------------------------------------------------------------------
# inverse normal CDF (needed by the two grid-based maps)

_STD_NORMAL = NormalDist()


def normal_quantile(p):
    """Inverse standard normal CDF: the standard library's AS241 (Wichura),
    evaluated once per distinct value.

    Absolute error is far below 1e-9 over (0, 1); inputs outside the open
    interval, NaN included, are rejected.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise InvalidInputError("quantile argument must lie strictly inside (0, 1)")
    u, inv = np.unique(p, return_inverse=True)
    out = np.array([_STD_NORMAL.inv_cdf(x) for x in u.tolist()])[inv].reshape(p.shape)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# cell-partition map


def cube_split_map(a, cell: int) -> np.ndarray:
    """Map points of (0,1)^2, shape (..., 2), into the given cell (1 or 2) of G(2,1).

    Each grid point becomes a complex value through the standard normal
    quantile, shrinks into the unit disk, and lands next to the cell's basis
    vector. Returns shape (..., 2); a single pair (a1, a2) gives one 2-vector.
    """
    a = np.asarray(a, dtype=np.float64)
    if cell not in (1, 2):
        raise InvalidInputError("cell must be 1 or 2 when T = 2")
    re, im = normal_quantile(a[..., 0]), normal_quantile(a[..., 1])
    r = np.hypot(re, im)
    safe = np.where(r > 0.0, r, 1.0)
    t = np.sqrt(np.tanh(r**2 / 4.0)) * (re / safe + 1j * (im / safe))
    denom = np.sqrt(1.0 + np.abs(t) ** 2)
    one = np.ones_like(t)
    vec = np.stack([one, t] if cell == 1 else [t, one], axis=-1)
    return vec / denom[..., None]


def _half_odd_grid(bits: int) -> np.ndarray:
    """Odd multiples of 1/2^(bits+1): the centers of 2^bits equal cells of (0,1)."""
    denom = 2.0 ** (bits + 1)
    return (2.0 * np.arange(2**bits) + 1.0) / denom


def build_cube_split(B_total: int) -> Constellation:
    """Cell-partition constellation with 2^B_total codewords (T = 2).

    One bit picks the cell; the remaining bits split as evenly as possible
    over the two real grid dimensions (the extra bit goes to the first). With
    a single bit the grid is empty and the two cell centers are emitted.
    """
    if B_total < 1:
        raise InvalidInputError("need at least one bit")
    if B_total == 1:
        return Constellation(np.eye(2), "cube-split", 1)
    b1 = math.ceil((B_total - 1) / 2)
    b2 = (B_total - 1) // 2
    a1, a2 = np.meshgrid(_half_odd_grid(b1), _half_odd_grid(b2), indexing="ij")
    grid = np.column_stack([a1.ravel(), a2.ravel()])
    points = canonicalize_array(np.vstack([cube_split_map(grid, 1), cube_split_map(grid, 2)]))
    return Constellation(points, "cube-split", B_total)


# ---------------------------------------------------------------------------
# measure-preserving hypercube map


def ball_shrink_factor(t):
    """radial factor sqrt(1 - exp(-t^2)) / t mapping complex normals into the disk.

    Finite and smooth at t -> 0 where it tends to 1.
    """
    t = np.asarray(t, dtype=np.float64)
    safe = np.where(t > 0.0, t, 1.0)
    out = np.sqrt(-np.expm1(-safe * safe)) / safe
    return np.where(t > 0.0, out, 1.0)


def build_grass_lattice(B_r: int, alpha: float = 1e-2) -> Constellation:
    """Uniform-measure constellation of 2^(2*B_r) codewords (T = 2).

    Grid points of [alpha, 1-alpha]^2 map through the quantile of a complex
    normal with unit total variance, then shrink into the unit disk, and the
    first coordinate is completed to unit norm.
    """
    if not 0.0 < alpha < 0.5:
        raise InvalidInputError(f"alpha must lie in (0, 0.5), got {alpha!r}")
    if B_r < 1:
        raise InvalidInputError("need at least one bit per real dimension")
    p = np.arange(2**B_r, dtype=np.float64)
    grid = alpha + p * (1.0 - 2.0 * alpha) / (2**B_r - 1)
    a, b = np.meshgrid(grid, grid, indexing="ij")
    # quantile of Normal(0, 1/2) per real dimension
    z = (normal_quantile(a.ravel()) + 1j * normal_quantile(b.ravel())) / math.sqrt(2.0)
    w = z * ball_shrink_factor(np.abs(z))
    points = np.column_stack([np.sqrt(np.maximum(0.0, 1.0 - np.abs(w) ** 2)), w])
    return Constellation(points, "grass-lattice", 2 * B_r)
