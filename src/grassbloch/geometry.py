"""Geometry of complex lines in 2-space and their Bloch-sphere duals.

A point of G(2,1) is stored as a unit-norm complex 2-vector in canonical form:
the global phase is removed so the first entry is real and nonnegative, and at
the south pole (first entry zero) the second entry is made real positive so
serialization is deterministic. Each such line corresponds to a unit vector on
the Bloch sphere, and the chordal distance between two lines is exactly half
the Euclidean distance between their Bloch points.

Every operation is an array kernel over many points at once: codewords are
(n, 2) complex rows, Bloch points (n, 3) real rows, and spherical angles a
pair of (n,) arrays. A `Constellation` is its read-only (C, 2) array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

METHOD_TAGS = (
    "s-opt",
    "z-opt",
    "man-opt",
    "exp-map",
    "cube-split",
    "grass-lattice",
    "external",
)
#: the detectors' tags, in `channel.DETECTORS` order; kept here so that the
#: command-line parser can offer them without loading the detectors
DETECTOR_TAGS = ("glrt", "sopt", "zopt")

#: unit axis (12, 15, 16) / 25 of the closest-pair sweep; it is generic, so
#: the rings of equal z and the other symmetric sets the builders make spread
#: out along it, where a coordinate axis would stack them
_SWEEP_AXIS = (0.48, 0.6, 0.64)


def fejes_toth_bound(C: int) -> float:
    """Upper bound on the minimum chordal distance of C lines of G(2,1).

    Half of the classical sphere-packing bound on the minimum Euclidean
    distance of C points on the unit sphere. Attained for C in {3, 4, 6, 12}.
    Singular at C = 2 (two antipodal points reach distance 1 exactly).
    """
    if C <= 2:
        raise InvalidInputError("bound requires C >= 3; for C = 2 the exact value is 1")
    s = math.sin(math.pi * C / (6.0 * (C - 2)))
    radicand = 4.0 - 1.0 / (s * s)
    return 0.5 * math.sqrt(max(radicand, 0.0))


class Constellation:
    """Ordered distinct codewords, stored as a read-only (C, 2) complex array.

    Each row must be finite, with |c0|^2 + |c1|^2 within 1e-10 of 1 and c0
    real and nonnegative within 1e-10; c0 is stored as its real part, a
    negative one as 0, and where c0 is then 0, c1 is stored as |c1|. B is
    the bit load log2(C); it is fractional for the few point counts
    (packing-derived sets such as C = 3 or 12) that are not powers of two.
    """

    def __init__(self, points, method: str, B=None):
        if method not in METHOD_TAGS:
            raise InvalidInputError(f"unknown method tag {method!r}")
        points = np.array(points, dtype=np.complex128)
        if points.ndim != 2 or points.shape[1] != 2:
            raise InvalidInputError(f"codewords must form a (C, 2) array, got {points.shape}")
        C = len(points)
        if C < 2:
            raise InvalidInputError("constellation needs at least two codewords")
        if B is None:
            b = math.log2(C)
            B = int(round(b)) if abs(b - round(b)) < 1e-12 else b
        # B < 64 keeps 2.0**B from overflowing; the negated test also rejects NaN
        if isinstance(B, bool) or not (1 <= B < 64 and abs(2.0**B - C) <= 1e-6):
            raise InvalidInputError(
                f"constellation must hold 2^B codewords; got {C} for B={B}"
            )
        _canonical_rows(points)
        points.setflags(write=False)
        self.method = method
        self.B = B
        self._array = points
        self._bloch = None
        self._min_distance = None
        if _has_duplicate_rows(points):
            raise InvalidInputError("constellation contains duplicate codewords")

    def __len__(self) -> int:
        return len(self._array)

    @property
    def C(self) -> int:
        return len(self._array)

    @property
    def array(self) -> np.ndarray:
        """(C, 2) complex matrix of codeword rows."""
        return self._array

    @property
    def bloch(self) -> np.ndarray:
        """Read-only (C, 3) matrix of the codewords' Bloch points."""
        if self._bloch is None:
            bloch = bloch_array(self._array)
            bloch.setflags(write=False)
            self._bloch = bloch
        return self._bloch

    @property
    def min_chordal_distance(self) -> float:
        if self._min_distance is None:
            self._min_distance = min_chordal_distance_array(self._array)
        return self._min_distance


# ---------------------------------------------------------------------------
# array helpers shared by the builders, detectors and simulator


def _canonical_rows(points: np.ndarray) -> None:
    """Check (C, 2) rows against the `Constellation` rules, then clamp c0 and
    apply the pole rule in place."""
    if not np.isfinite(points).all():
        bad = int(np.flatnonzero(~np.isfinite(points).all(axis=1))[0])
        raise InvalidInputError(f"codeword {bad} has non-finite entries")
    c0 = points[:, 0]
    norm2 = np.abs(c0) ** 2 + np.abs(points[:, 1]) ** 2
    off = np.abs(norm2 - 1.0) > 1e-10
    if off.any():
        bad = int(np.flatnonzero(off)[0])
        raise InvalidInputError(f"codeword {bad} norm^2 = {float(norm2[bad])!r} is not 1")
    if np.any((np.abs(c0.imag) > 1e-10) | (c0.real < -1e-10)):
        raise InvalidInputError("codeword is not canonical: c0 must be real >= 0")
    # max(re, 0.0): only a negative value becomes 0, -0.0 stays
    points[:, 0] = np.where(c0.real < 0.0, 0.0, c0.real)
    # at the pole c1's phase is a global phase, so (0, 1) and (0, i) are one line
    pole = c0 == 0.0
    points[pole, 1] = np.abs(points[pole, 1])


def _has_duplicate_rows(arr: np.ndarray) -> bool:
    """Whether two rows agree in every entry rounded to 9 decimals.

    A lexicographic sort puts equal rows next to each other; float `==`
    keeps -0.0 equal to 0.0.
    """
    view = np.round(arr.view(np.float64).reshape(len(arr), -1), 9)
    view = view[np.lexsort(view.T)]
    return bool((view[1:] == view[:-1]).all(axis=1).any())


def angles_to_codewords(theta, phi) -> np.ndarray:
    """(n, 2) codeword rows (cos(theta/2), e^{j phi} sin(theta/2)) for polar
    angles theta and azimuths phi, both of shape (n,)."""
    half = np.asarray(theta, dtype=np.float64) / 2.0
    out = np.empty((len(half), 2), dtype=np.complex128)
    out[:, 0] = np.cos(half)
    out[:, 1] = np.sin(half) * np.exp(1j * np.asarray(phi, dtype=np.float64))
    return out


def bloch_array(points: np.ndarray) -> np.ndarray:
    """Bloch coordinates for an (n, 2) array of unit 2-vectors, without trig."""
    c0 = points[:, 0]
    c1 = points[:, 1]
    cross = np.conj(c0) * c1
    out = np.empty((len(points), 3), dtype=np.float64)
    out[:, 0] = 2.0 * cross.real
    out[:, 1] = 2.0 * cross.imag
    out[:, 2] = np.abs(c0) ** 2 - np.abs(c1) ** 2
    return out


def bloch_angles(points):
    """Polar angles theta in [0, pi] and azimuths phi in [0, 2*pi) of an
    (n, 3) array of unit Bloch points; inverse of `angles_to_codewords`
    followed by `bloch_array`. An azimuth that rounds to 2*pi wraps to 0."""
    p = np.asarray(points, dtype=np.float64)
    theta = np.arccos(np.clip(p[:, 2], -1.0, 1.0))
    phi = np.arctan2(p[:, 1], p[:, 0]) % (2.0 * math.pi)
    return theta, np.where(phi >= 2.0 * math.pi, 0.0, phi)


def pairwise_min_bloch_dot(points: np.ndarray) -> tuple[float, float]:
    """Closest pair of an (n, 3) array of vectors: the maximum dot product
    over distinct pairs, and the least |p - q| over pairs whose dot came
    within rounding of the best one when they were scanned, a set that
    holds every pair within rounding of the maximum.

    An exact closest-pair sweep in O(n) memory. The points are sorted by
    their projection t on `_SWEEP_AXIS`, and offset k pairs each point with
    the k-th next one. Since |u . (p - q)| <= |p - q| for a unit u, a pair
    whose dot comes within `tol` of the best so far lies within
    sqrt(2 r^2 - 2 (best - tol)) in t, r the largest norm; the sorted gaps
    t[i + k] - t[i] only grow with k, so the sweep stops at the first offset
    whose smallest gap exceeds that reach. The rounding margin on the reach
    can only make it look further. Time is O(n log n) plus O(n) per offset,
    O(n^2) at worst, when all the points project close together.

    Each dot is x x' + y y' + z z' summed in that order, so the result does
    not depend on the BLAS build. For unit vectors the distance is the
    minimum pairwise distance: taken from the coordinates' differences, its
    error stays near 1e-16 absolute, where sqrt(2 - 2 dot) loses 1e-16 / d^2
    relative. Fewer than two points give (-1, inf), a NaN point (nan, nan).
    """
    p = np.asarray(points, dtype=np.float64)
    n = len(p)
    if n < 2:
        return -1.0, math.inf
    ux, uy, uz = _SWEEP_AXIS
    t = p[:, 0] * ux + p[:, 1] * uy + p[:, 2] * uz
    order = np.argsort(t)
    t = t[order]
    x, y, z = np.ascontiguousarray(p[order].T)
    r2 = float(np.max(x * x + y * y + z * z))
    # above twice the rounding error of a three-term dot (1.5 eps r^2), so
    # the truly closest pair is a candidate whichever pair rounds to the best
    tol = 4.0 * np.finfo(np.float64).eps * r2
    best, sq = -math.inf, math.inf
    for k in range(1, n):
        reach = math.sqrt(max(2.0 * r2 - 2.0 * (best - tol), 0.0)) * (1.0 + 1e-6) + 1e-12
        if float((t[k:] - t[:-k]).min()) > reach:
            break
        dots = x[:-k] * x[k:] + y[:-k] * y[k:] + z[:-k] * z[k:]
        top = float(dots.max())
        if math.isnan(top):
            return math.nan, math.nan
        if top >= best - tol:
            best = max(best, top)
            i = np.flatnonzero(dots >= best - tol)
            dx, dy, dz = x[i] - x[i + k], y[i] - y[i + k], z[i] - z[i + k]
            sq = min(sq, float((dx * dx + dy * dy + dz * dz).min()))
    return best, math.sqrt(sq)


def min_chordal_distance_array(points: np.ndarray) -> float:
    """Minimum pairwise chordal distance for an (n, 2) array of unit 2-vectors.

    The chordal distance of two lines is exactly half the Euclidean distance
    between their Bloch points, since |<x_i, x_j>|^2 = (1 + r_i . r_j) / 2.
    """
    if len(points) < 2:
        raise InvalidInputError("need at least two codewords")
    return pairwise_min_bloch_dot(bloch_array(points))[1] / 2.0


def min_euclidean_distance_array(points3: np.ndarray) -> float:
    """Minimum pairwise Euclidean distance for an (n, 3) array of unit vectors."""
    if len(points3) < 2:
        raise InvalidInputError("need at least two points")
    return pairwise_min_bloch_dot(points3)[1]


def canonicalize_array(points: np.ndarray) -> np.ndarray:
    """Canonical form, row-wise, for an (n, 2) complex array of unit vectors."""
    points = np.asarray(points, dtype=np.complex128)
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInputError("zero row cannot be canonicalized")
    points = points / norms[:, None]
    a0 = np.abs(points[:, 0])
    phase = np.where(a0 > 0, points[:, 0] / np.where(a0 > 0, a0, 1.0), 1.0)
    out = points * np.conj(phase)[:, None]
    out[:, 0] = a0
    pole = a0 == 0.0
    if np.any(pole):
        out[pole, 1] = np.abs(out[pole, 1])
    return out
