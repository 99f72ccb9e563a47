"""Noncoherent detectors for G(2,1) constellations, with operation counters.

Three detectors are provided. The exhaustive one maximizes ||Y^H x||^2 over
all codewords. The tree-based one maps the received signal to the Bloch sphere
and finds the Euclidean nearest neighbor there, which picks the same codeword
because chordal distance is half of Bloch Euclidean distance. The layered
detector exploits the structure of layered-polygon constellations: the sphere
splits into an angular grid, the grid cell of the received point narrows the
candidates to at most four codewords, and a closed-form cell-to-index map
turns the winning candidate into a codeword index. It takes a
`ZOptConstellation` and keeps only its layer structure and l polar angles,
the O(sqrt(C)) state, never the codeword array.

Ties always resolve to the lowest codeword index. Each detector's single-row
`detect` runs its batch implementation on one row, so scalar and vectorized
detection are exactly the same computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .geometry import Constellation, bloch_array
from .kdtree import KDTree
from .zopt import ZOptConstellation, ZOptStructure, diagonal_chord

TWO_PI = 2.0 * math.pi

#: most entries in one (rows, C) block of GLRT scores: 1 MiB of float64, so
#: a block stays in L2 cache between the product that writes it and the
#: argmax that reads it
_GLRT_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class DetectionResult:
    index: int
    distance_evals: int
    comparisons: int


# ---------------------------------------------------------------------------
# rough estimation: collapse a 2xN observation to a single direction


def _gram_parts(Ys: np.ndarray):
    """Entries of Y Y^H for a batch of (n, 2, N) observations."""
    row0 = Ys[:, 0, :]
    row1 = Ys[:, 1, :]
    g00 = np.einsum("ij,ij->i", row0, row0.conj()).real
    g11 = np.einsum("ij,ij->i", row1, row1.conj()).real
    g01 = np.einsum("ij,ij->i", row0, row1.conj())
    return g00, g11, g01


def rough_estimate_batch(Ys: np.ndarray) -> np.ndarray:
    """Dominant left singular vector for each (2, N) observation in the batch.

    Closed-form eigenvector of the 2x2 matrix Y Y^H. Degenerate spectra
    (multiples of the identity) resolve to the first basis vector.
    """
    Ys = np.asarray(Ys, dtype=np.complex128)
    n, _, N = Ys.shape
    if N == 1:
        return Ys[:, :, 0].copy()
    g00, g11, g01 = _gram_parts(Ys)
    delta = 0.5 * (g00 - g11)
    r = np.sqrt(delta * delta + np.abs(g01) ** 2)
    out = np.empty((n, 2), dtype=np.complex128)
    # pick whichever component of the eigenvector is guaranteed away from zero
    hi = delta >= 0.0
    out[hi, 0] = r[hi] + delta[hi]
    out[hi, 1] = np.conj(g01[hi])
    lo = ~hi
    out[lo, 0] = g01[lo]
    out[lo, 1] = r[lo] - delta[lo]
    diag = np.abs(g01) == 0.0
    if np.any(diag):
        first = g00 >= g11
        out[diag & first] = (1.0, 0.0)
        out[diag & ~first] = (0.0, 1.0)
    norms = np.linalg.norm(out, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInputError("zero observation has no dominant direction")
    return out / norms[:, None]


def rough_estimate(Y) -> np.ndarray:
    """Single-observation front end; N = 1 passes the column through unchanged,
    unless its entries are extreme enough to be rescaled by a power of two."""
    return rough_estimate_batch(_checked(_as_batch(Y)))[0]


def _bloch_of_raw(v: np.ndarray) -> np.ndarray:
    """Bloch points of unnormalized nonzero 2-vectors; phase-invariant."""
    return bloch_array(v) / (np.abs(v[:, 0]) ** 2 + np.abs(v[:, 1]) ** 2)[:, None]


def _angles_of_raw(v: np.ndarray):
    """Polar/azimuth angles of unnormalized nonzero 2-vectors."""
    n = np.sqrt(np.abs(v[:, 0]) ** 2 + np.abs(v[:, 1]) ** 2)
    z0 = np.abs(v[:, 0]) / n
    theta = 2.0 * np.arccos(np.clip(z0, 0.0, 1.0))
    a0 = np.abs(v[:, 0])
    phase = np.where(a0 > 0, v[:, 0] / np.where(a0 > 0, a0, 1.0), 1.0)
    phi = np.angle(v[:, 1] * np.conj(phase)) % TWO_PI
    phi = np.where(phi >= TWO_PI, 0.0, phi)
    return theta, phi


# ---------------------------------------------------------------------------
# exhaustive detector


def _score_matrix_parts(points: np.ndarray) -> np.ndarray:
    """(4, C) real factor so that scores = [g00, g11, 2Re g01, -2Im g01] @ parts."""
    x0 = points[:, 0]
    x1 = points[:, 1]
    m = np.conj(x0) * x1
    return np.vstack([np.abs(x0) ** 2, np.abs(x1) ** 2, m.real, m.imag])


class GlrtDetector:
    """argmax over the constellation of ||Y^H x||^2, evaluated for every codeword.

    A batch is scored in cache-sized blocks of at most 2**17 scores, so its
    memory stays bounded however many rows it holds.
    """

    def __init__(self, constellation: Constellation):
        if len(constellation) == 0:
            raise InvalidInputError("empty constellation")
        self.constellation = constellation
        self._parts = _score_matrix_parts(constellation.array)

    def detect_batch(self, Ys: np.ndarray):
        g00, g11, g01 = _gram_parts(_checked(Ys))
        A = np.column_stack([g00, g11, 2.0 * g01.real, -2.0 * g01.imag])
        C = self._parts.shape[1]
        step = max(1, _GLRT_BLOCK_ENTRIES // C)
        idx = np.empty(len(A), dtype=np.intp)
        for lo in range(0, len(A), step):
            idx[lo:lo + step] = np.argmax(A[lo:lo + step] @ self._parts, axis=1)
        counts = np.full(len(A), C, dtype=np.int64)
        return idx, counts, counts.copy()

    def detect(self, Y) -> DetectionResult:
        idx, evals, comps = self.detect_batch(_as_batch(Y))
        return DetectionResult(int(idx[0]), int(evals[0]), int(comps[0]))


# ---------------------------------------------------------------------------
# Bloch-sphere nearest-neighbor detector


class SoptDetector:
    """Nearest neighbor on the Bloch sphere; decision-identical to the GLRT.

    Owns a space-partitioning tree over the constellation's Bloch points.
    """

    def __init__(self, constellation: Constellation):
        self.constellation = constellation
        self.tree = KDTree(constellation.bloch)

    def detect_batch(self, Ys: np.ndarray):
        est = rough_estimate_batch(_checked(Ys))
        idx, _, evals, comps = self.tree.query(_bloch_of_raw(est))
        return idx, evals, comps

    def detect(self, Y) -> DetectionResult:
        idx, evals, comps = self.detect_batch(_as_batch(Y))
        return DetectionResult(int(idx[0]), int(evals[0]), int(comps[0]))


# ---------------------------------------------------------------------------
# layered-constellation detector


def azimuth_region(phi_z, z_max: int):
    """Sector indices floor(phi / (pi / z_max)), clamped into [0, 2*z_max).

    An azimuth that reaches 2*pi (only possible through rounding) wraps to 0;
    values just below 2*pi stay in the last sector.
    """
    phi_z = np.asarray(phi_z, dtype=np.float64)
    phi_z = np.where(phi_z >= TWO_PI, np.maximum(phi_z - TWO_PI, 0.0), phi_z)
    j = np.floor(phi_z / (math.pi / z_max)).astype(np.int64)
    return np.clip(j, 0, 2 * z_max - 1)


def polar_region(theta_z, theta: np.ndarray):
    """Numbers of layer angles strictly below theta_z, found by bisection."""
    return np.searchsorted(theta, theta_z, side="left").astype(np.int64)


def _region_comparisons(l: int) -> int:
    return max(1, math.ceil(math.log2(l + 1)))


def cell_vertex(i, j0, s: ZOptStructure):
    """(index, a) of the codeword anchored to grid cell (i, j0).

    `i` is the polar region in [0, l]; `j0` the azimuth sector in
    [0, 2*z_max). For i >= 1 the anchor is the point of layer i azimuthally
    nearest sector j0; region 0 borrows layer 1. index is the anchor's
    closed-form codeword index (1-based) and a its azimuth in sectors of
    pi/z_max. Both follow from the layer's entries in `s.layer_table`: a ring
    of Z points steps m = 2*z_max // Z sectors, odd layers start at azimuth 0
    and even layers at b = 1 sector, so a = b + m*k with k the nearest integer
    to (j0 + 1/2 - b) / m, which is never a tie. k = Z wraps to the layer's
    first point: index = layer_offsets[layer] + k mod Z + 1.
    """
    layer = np.maximum(np.asarray(i, dtype=np.int64), 1)
    size, m, first = (t[layer - 1] for t in s.layer_table)
    b = 1 - (layer & 1)
    k = (2 * np.asarray(j0, dtype=np.int64) + 1 - 2 * b + m) // (2 * m)
    return first + k % size + 1, b + m * k


class ZoptDetector:
    """Grid lookup plus at most four distance evaluations per decision.

    Holds only the layer structure and the l polar angles of a
    `ZOptConstellation`, never its codeword array: the closed-form
    cell-to-index map (`cell_vertex`, one gather from the structure's
    per-layer table) names the winning codeword. It works for every shape
    `ZOptStructure` accepts, whatever the number of half rings per cap.
    """

    def __init__(self, z: ZOptConstellation):
        self.structure = z.structure
        self.theta = z.theta

    def anchor_index(self, i, j0):
        """1-based codeword index anchored to grid cell (i, j0)."""
        return cell_vertex(i, j0, self.structure)[0]

    def anchor_table(self) -> np.ndarray:
        """(l+1, 2*z_max) table of anchor indices for every grid cell."""
        s = self.structure
        ii, jj = np.meshgrid(
            np.arange(s.l + 1), np.arange(2 * s.z_max), indexing="ij"
        )
        return self.anchor_index(ii, jj)

    def detect_batch(self, Ys: np.ndarray):
        s = self.structure
        theta_z, phi_z = _angles_of_raw(rough_estimate_batch(_checked(Ys)))
        n = len(theta_z)
        j0 = azimuth_region(phi_z, s.z_max)
        i = polar_region(theta_z, self.theta)
        cand = np.clip(i[:, None] + np.array([-1, 0, 1, 2]), 1, s.l)
        dup = np.zeros_like(cand, dtype=bool)
        dup[:, 1:] = cand[:, 1:] == cand[:, :-1]
        anchors, a = cell_vertex(cand, j0[:, None], s)
        dphi = np.abs(phi_z[:, None] - a * (math.pi / s.z_max))
        d = diagonal_chord(self.theta[cand - 1], theta_z[:, None], dphi)
        d[dup] = np.inf
        dmin = d.min(axis=1)
        best = np.where(d == dmin[:, None], anchors, np.iinfo(np.int64).max).min(axis=1)
        evals = (~dup).sum(axis=1).astype(np.int64)
        comps = np.full(n, _region_comparisons(s.l), dtype=np.int64) + evals - 1
        return best - 1, evals, comps

    def detect(self, Y) -> DetectionResult:
        idx, evals, comps = self.detect_batch(_as_batch(Y))
        return DetectionResult(int(idx[0]), int(evals[0]), int(comps[0]))


# ---------------------------------------------------------------------------
# observation checks


#: rows whose |entries| sum outside [2**-_SCALE_EXP, 2**_SCALE_EXP] are
#: rescaled; inside, the fourth powers of entries that the rough estimate
#: forms stay normal floats
_SCALE_EXP = 200


def _checked(Ys) -> np.ndarray:
    """A (n, 2, N) observation batch, refusing what no detector can decide.

    A single screen sums each row's |entries| (real and imaginary parts).
    A row with a non-finite entry raises InvalidInputError and an all-zero row
    DegenerateInputError. A row far from unit scale, whose Gram products
    would overflow or underflow, is multiplied by the power of two that
    brings its largest |entry| into [1/2, 1): the factor is exact and every
    detector is scale-invariant, so its decision does not change. Every
    other row is returned bit for bit.
    """
    Ys = np.ascontiguousarray(Ys, dtype=np.complex128)
    v = Ys.view(np.float64)
    s = np.einsum("ijk->i", np.abs(v))
    far = ~((s >= 2.0**-_SCALE_EXP) & (s <= 2.0**_SCALE_EXP))
    if far.any():
        a = np.abs(v[far])
        if not np.isfinite(a).all():
            raise InvalidInputError("observation has non-finite entries")
        m = a.max(axis=(1, 2), initial=0.0)
        if not m.all():
            raise DegenerateInputError("observation is zero")
        v = v.copy()
        v[far] = np.ldexp(v[far], -np.frexp(m)[1][:, None, None])
        Ys = v.view(np.complex128)
    return Ys


def _as_batch(Y) -> np.ndarray:
    """One 2xN observation (or a 2-vector) as a batch of one; shape only."""
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2 or Y.shape[0] != 2 or Y.shape[1] < 1:
        raise InvalidInputError("observation must be a 2xN matrix")
    return Y[None, :, :]
