"""Geometry of complex lines in 2-space and their Bloch-sphere duals.

A point of G(2,1) is stored as a unit-norm complex 2-vector in canonical form:
the global phase is removed so the first entry is real and nonnegative, and at
the south pole (first entry zero) the second entry is made real positive so
serialization is deterministic. Each such line corresponds to a unit vector on
the Bloch sphere, and the chordal distance between two lines is exactly half
the Euclidean distance between their Bloch points. All types are immutable and
all operations are pure functions.

A `Constellation` is its read-only (C, 2) complex array, and the array
kernels below do all the work. `Codeword`, `BlochPoint`, `SphericalAngles`
and their scalar functions are helpers for one point at a time; the tests use
them as independent references for the array kernels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

#: codeword norms must match unity this tightly before distance ops accept them
NORM_TOL = 1e-9

METHOD_TAGS = (
    "s-opt",
    "z-opt",
    "man-opt",
    "exp-map",
    "cube-split",
    "grass-lattice",
    "external",
)

TWO_PI = 2.0 * math.pi

#: unit axis (12, 15, 16) / 25 of the closest-pair sweep; it is generic, so
#: the rings of equal z and the other symmetric sets the builders make spread
#: out along it, where a coordinate axis would stack them
_SWEEP_AXIS = (0.48, 0.6, 0.64)


@dataclass(frozen=True)
class Codeword:
    """One point of G(2,1): unit-norm 2-vector with the global phase removed."""

    c0: complex
    c1: complex

    def __post_init__(self):
        c0 = complex(self.c0)
        c1 = complex(self.c1)
        if not (cmath.isfinite(c0) and cmath.isfinite(c1)):
            raise InvalidInputError("codeword has non-finite entries")
        norm2 = abs(c0) ** 2 + abs(c1) ** 2
        if abs(norm2 - 1.0) > 1e-10:
            raise InvalidInputError(f"codeword norm^2 = {norm2!r} is not 1")
        if abs(c0.imag) > 1e-10 or c0.real < -1e-10:
            raise InvalidInputError("codeword is not canonical: c0 must be real >= 0")
        object.__setattr__(self, "c0", complex(max(c0.real, 0.0), 0.0))
        object.__setattr__(self, "c1", c1)

    @classmethod
    def from_vector(cls, v) -> "Codeword":
        """Normalize an arbitrary nonzero 2-vector onto G(2,1) in canonical form."""
        v0, v1 = complex(v[0]), complex(v[1])
        n = math.hypot(abs(v0), abs(v1))
        if n == 0.0:
            raise DegenerateInputError("cannot canonicalize the zero vector")
        if v0 == 0:
            # south pole: all phases of c1 are the same line; store it real.
            return cls(0.0, abs(v1) / n)
        phase = v0 / abs(v0)
        return cls(abs(v0) / n, v1 * phase.conjugate() / n)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=np.complex128)


@dataclass(frozen=True)
class BlochPoint:
    """Unit vector in real 3-space."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(n2 - 1.0) > 1e-10:
            raise InvalidInputError(f"Bloch point norm^2 = {n2!r} is not 1")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class SphericalAngles:
    """Polar angle in [0, pi] and azimuth in [0, 2*pi); azimuth is 0 at the poles."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidInputError(f"theta = {self.theta!r} outside [0, pi]")
        if not 0.0 <= self.phi < TWO_PI:
            raise InvalidInputError(f"phi = {self.phi!r} outside [0, 2*pi)")
        if self.theta in (0.0, math.pi):
            object.__setattr__(self, "phi", 0.0)


def chordal_distance(a: Codeword, b: Codeword) -> float:
    """Distance between two lines: sqrt(1 - |<a, b>|^2), clamped into [0, 1]."""
    va, vb = a.vector, b.vector
    _check_unit(va)
    _check_unit(vb)
    inner = np.vdot(va, vb)
    radicand = 1.0 - min(abs(inner) ** 2, 1.0)
    return math.sqrt(max(radicand, 0.0))


def euclidean_distance(p: BlochPoint, q: BlochPoint) -> float:
    """Straight-line distance between two points of the unit sphere."""
    return math.sqrt(
        (p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2
    )


def angles_to_codeword(a: SphericalAngles) -> Codeword:
    """Map spherical angles to the codeword (cos(theta/2), e^{j phi} sin(theta/2))."""
    half = 0.5 * a.theta
    s = math.sin(half)
    if s == 0.0:
        return Codeword(1.0, 0.0)
    return Codeword(math.cos(half), cmath.exp(1j * a.phi) * s)


def codeword_to_bloch(c: Codeword) -> tuple[BlochPoint, SphericalAngles]:
    """Invert angles_to_codeword; azimuth is reported as 0 at either pole."""
    z1 = c.c0.real
    if z1 < -NORM_TOL:
        raise InvalidInputError(f"c0 = {z1!r} is negative beyond tolerance")
    z1 = min(max(z1, 0.0), 1.0)
    theta = 2.0 * math.acos(z1)
    if c.c1 == 0 or theta == 0.0:
        theta, phi = 0.0, 0.0
    else:
        phi = cmath.phase(c.c1) % TWO_PI
        if phi >= TWO_PI:
            phi = 0.0
    point = BlochPoint(
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    )
    return point, SphericalAngles(theta, phi)


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

    Rows follow the `Codeword` rules: finite, unit norm and c0 real and
    nonnegative, within 1e-10; c0 is stored clamped exactly as `Codeword`
    stores it. B is the bit load log2(C); it is fractional for the few point
    counts (packing-derived sets such as C = 3 or 12) that are not powers of two.
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
        if B < 1 or abs(2.0**B - C) > 1e-6:
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
        """(C, 3) matrix of the codewords' Bloch points."""
        if self._bloch is None:
            self._bloch = bloch_array(self._array)
        return self._bloch

    @property
    def min_chordal_distance(self) -> float:
        if self._min_distance is None:
            self._min_distance = min_chordal_distance_array(self._array)
        return self._min_distance


# ---------------------------------------------------------------------------
# array helpers shared by the builders, detectors and simulator


def _check_unit(v: np.ndarray) -> None:
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > NORM_TOL:
        raise InvalidInputError(f"vector norm {n!r} deviates from 1 beyond {NORM_TOL}")


def _canonical_rows(points: np.ndarray) -> None:
    """Check (C, 2) rows against the `Codeword` rules and clamp c0 in place."""
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
    # max(re, 0.0) as Codeword takes it: only a negative value becomes 0, -0.0 stays
    points[:, 0] = np.where(c0.real < 0.0, 0.0, c0.real)


def _has_duplicate_rows(arr: np.ndarray) -> bool:
    view = np.round(arr.view(np.float64).reshape(len(arr), -1), 9)
    return len(np.unique(view, axis=0)) != len(arr)


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


def pairwise_min_bloch_dot(points: np.ndarray) -> float:
    """Maximum dot product over distinct pairs of an (n, 3) array of vectors.

    An exact closest-pair sweep in O(n) memory. The points are sorted by
    their projection t on `_SWEEP_AXIS`, and offset k pairs each point with
    the k-th next one. Since |u . (p - q)| <= |p - q| for a unit u, a pair
    whose dot beats the best so far lies within sqrt(2 r^2 - 2 best) in t,
    r the largest norm; the sorted gaps t[i + k] - t[i] only grow with k, so
    the sweep stops at the first offset whose smallest gap exceeds that
    reach. The rounding margin on the reach can only make it look further.
    Time is O(n log n) plus O(n) per offset, O(n^2) at worst, when all the
    points project close together.

    Each dot is x x' + y y' + z z' summed in that order, so the result does
    not depend on the BLAS build. Fewer than two points give -1.
    """
    p = np.asarray(points, dtype=np.float64)
    n = len(p)
    if n < 2:
        return -1.0
    ux, uy, uz = _SWEEP_AXIS
    t = p[:, 0] * ux + p[:, 1] * uy + p[:, 2] * uz
    order = np.argsort(t)
    t = t[order]
    x, y, z = np.ascontiguousarray(p[order].T)
    r2 = float(np.max(x * x + y * y + z * z))
    best = -1.0
    for k in range(1, n):
        reach = math.sqrt(max(2.0 * r2 - 2.0 * best, 0.0)) * (1.0 + 1e-6) + 1e-12
        if float(np.min(t[k:] - t[:-k])) > reach:
            break
        dots = x[:-k] * x[k:] + y[:-k] * y[k:] + z[:-k] * z[k:]
        best = max(best, float(dots.max()))
    return best


def min_chordal_distance_array(points: np.ndarray) -> float:
    """Minimum pairwise chordal distance for an (n, 2) array of unit 2-vectors.

    Uses |<x_i, x_j>|^2 = (1 + r_i . r_j) / 2 on the Bloch sphere, so the
    result is exactly half the minimum Euclidean distance between the points'
    Bloch images.
    """
    if len(points) < 2:
        raise InvalidInputError("need at least two codewords")
    dot = pairwise_min_bloch_dot(bloch_array(points))
    return math.sqrt(max(0.0, (1.0 - min(dot, 1.0)) / 2.0))


def min_euclidean_distance_array(points3: np.ndarray) -> float:
    """Minimum pairwise Euclidean distance for an (n, 3) array of unit vectors."""
    if len(points3) < 2:
        raise InvalidInputError("need at least two points")
    dot = pairwise_min_bloch_dot(np.asarray(points3, dtype=np.float64))
    return math.sqrt(max(0.0, 2.0 - 2.0 * min(dot, 1.0)))


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
