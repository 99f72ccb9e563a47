"""Noncoherent detectors for G(2,1) constellations, with operation counters.

All three detectors read one front end, `bloch_vector_batch`: the
unnormalized Bloch vector r of G = Y Y^H, from the Gram entries, rescaled
by a power of two where |r|^2 is not a normal float. The
exhaustive detector maximizes r . b, which is 2 ||Y^H x||^2 - tr G, over the
codewords' Bloch points b. The two fast ones search r / |r|
(`rough_estimate_batch`), the Bloch point of G's dominant eigenvector. The
tree-based detector finds its Euclidean nearest neighbor among the codewords'
Bloch points, which picks the same codeword because chordal distance is half
of Bloch Euclidean distance. The layered detector exploits the structure of
layered-polygon constellations: the point's angles name a cell of an angular
grid, the cell narrows the candidates to at most four codewords, and a
closed-form cell-to-index map turns the first nearest candidate into a
codeword index. It takes a `ZOptConstellation` and keeps only its layer
structure and l polar angles, the O(sqrt(C)) state, never the codeword array.

Ties always resolve to the lowest codeword index; at r = 0 (G a multiple of
the identity) every codeword ties and every detector decides codeword 0.
Every detector's single-row `detect` is one function, `_detect_one`, which
runs the detector's batch implementation on one row, so scalar and
vectorized detection are exactly the same computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .geometry import Constellation, bloch_angles
from .kdtree import KDTree
from .zopt import ZOptConstellation, ZOptStructure, diagonal_chord

#: most entries in one (rows, C) block of GLRT scores: 1 MiB of float64, so
#: a block stays in L2 cache between the product that writes it and the
#: argmax that reads it
_GLRT_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class DetectionResult:
    index: int
    distance_evals: int
    comparisons: int


def _detect_one(det, Y) -> DetectionResult:
    """`detect` of every detector: its `detect_batch` on one 2xN observation."""
    idx, evals, comps = det.detect_batch(_as_batch(Y))
    return DetectionResult(int(idx[0]), int(evals[0]), int(comps[0]))


# ---------------------------------------------------------------------------
# the front end: the Bloch vector of Y Y^H


def bloch_vector_batch(Ys) -> np.ndarray:
    """(n, 3) unnormalized Bloch vectors r of G = Y Y^H for a batch of (n, 2, N)
    observations, screened by `_checked`.

    G - tr(G)/2 I = (r . sigma) / 2 over the Pauli matrices, so
    r = (2 Re g01, -2 Im g01, g00 - g11) points at the Bloch point of G's
    dominant eigenvector, and r . b = 2 ||Y^H x||^2 - tr G for a unit
    codeword x with Bloch point b. A row whose |r|^2 is not a normal float
    (Y = [[1, 1e-170], [0, 1]] is at unit scale) is divided by the power of
    two of its largest |component|: the factor is exact and no detector
    depends on the length of r, so every detector reads it without
    subnormal products. Every other row keeps its bits.
    """
    Ys = _checked(Ys)
    row0 = Ys[:, 0, :]
    row1 = Ys[:, 1, :]
    g00 = np.einsum("ij,ij->i", row0, row0.conj()).real
    g11 = np.einsum("ij,ij->i", row1, row1.conj()).real
    g01 = np.einsum("ij,ij->i", row0, row1.conj())
    r = np.column_stack([2.0 * g01.real, -2.0 * g01.imag, g00 - g11])
    low = np.flatnonzero(np.einsum("ij,ij->i", r, r) < np.finfo(np.float64).tiny)
    if len(low):
        r[low] = np.ldexp(r[low], -np.frexp(np.abs(r[low]).max(axis=1))[1][:, None])
    return r


def rough_estimate_batch(r) -> np.ndarray:
    """(n, 3) unit Bloch points r / |r| of a batch of `bloch_vector_batch`
    vectors, whose |r|^2 is a normal float or 0: the dominant directions of
    the observations. r = 0 (a multiple of the identity) resolves to the
    north pole, the first basis vector.
    """
    norm = np.sqrt(np.einsum("ij,ij->i", r, r))
    tie = norm == 0.0
    norm[tie] = 1.0
    u = r / norm[:, None]
    u[tie] = (0.0, 0.0, 1.0)
    return u


# ---------------------------------------------------------------------------
# exhaustive detector


class GlrtDetector:
    """argmax over the constellation of ||Y^H x||^2, evaluated for every codeword
    as r . b over a contiguous (3, C) copy of the codewords' Bloch points.

    A batch is scored in cache-sized blocks of at most 2**17 scores, so its
    memory stays bounded however many rows it holds.
    """

    def __init__(self, constellation: Constellation):
        self._bloch = np.ascontiguousarray(constellation.bloch.T)

    def detect_batch(self, Ys: np.ndarray):
        r = bloch_vector_batch(Ys)
        C = self._bloch.shape[1]
        step = max(1, _GLRT_BLOCK_ENTRIES // C)
        idx = np.empty(len(r), dtype=np.intp)
        for lo in range(0, len(r), step):
            idx[lo:lo + step] = np.argmax(r[lo:lo + step] @ self._bloch, axis=1)
        counts = np.full(len(r), C, dtype=np.int64)
        return idx, counts, counts.copy()

    detect = _detect_one


# ---------------------------------------------------------------------------
# Bloch-sphere nearest-neighbor detector


class SoptDetector:
    """Nearest neighbor on the Bloch sphere; decision-identical to the GLRT.

    Owns a space-partitioning tree over the constellation's Bloch points. At
    r = 0 the tree searches the north pole, and the decision is codeword 0.
    """

    def __init__(self, constellation: Constellation):
        self.tree = KDTree(constellation.bloch)

    def detect_batch(self, Ys: np.ndarray):
        r = bloch_vector_batch(Ys)
        idx, _, evals, comps = self.tree.query(rough_estimate_batch(r))
        idx[~r.any(axis=1)] = 0
        return idx, evals, comps

    detect = _detect_one


# ---------------------------------------------------------------------------
# layered-constellation detector


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

    The point's azimuth names a sector of pi/z_max and its polar angle the
    region i in [0, l], the number of layer angles below it. The candidates
    are the anchors (`cell_vertex`) of layers clip(i-1..i+2, 1, l), and the
    decision is the first least distance among them. The layers never
    decrease and codeword indices grow with the layer, so that is the lowest
    index at any tie, and a clipped repeat of a layer never wins. Per
    decision, evals counts the distinct candidate layers and comps the
    bit_length(l) comparisons of the bisection over the layer angles plus
    evals - 1 of the argmin.

    Holds only the layer structure and the l polar angles of a
    `ZOptConstellation`, never its codeword array: the closed-form
    cell-to-index map (`cell_vertex`, one gather from the structure's
    per-layer table) names the winning codeword. It decides as the GLRT on
    uniform rows at any increasing angles, but on capped rows (B = 5, 7 and
    any k half rings per cap) only at the angles `optimize_zopt` places.
    """

    def __init__(self, z: ZOptConstellation):
        if not isinstance(z, ZOptConstellation):
            raise InvalidInputError(
                "this constellation carries no layer structure; "
                "the zopt detector needs one (construct with --method z-opt)"
            )
        self.structure = z.structure
        self.theta = z.theta

    def detect_batch(self, Ys: np.ndarray):
        s = self.structure
        theta_z, phi_z = bloch_angles(rough_estimate_batch(bloch_vector_batch(Ys)))
        # phi < 2*pi, and pi / z_max is pi over a power of two, so even the
        # largest phi, one ulp below 2*pi, lands in the last sector
        j0 = (phi_z / (math.pi / s.z_max)).astype(np.int64)
        i = np.searchsorted(self.theta, theta_z)
        cand = np.clip(i[:, None] + np.array([-1, 0, 1, 2]), 1, s.l)
        anchors, a = cell_vertex(cand, j0[:, None], s)
        dphi = np.abs(phi_z[:, None] - a * (math.pi / s.z_max))
        d = diagonal_chord(self.theta[cand - 1], theta_z[:, None], dphi)
        best = np.take_along_axis(anchors, d.argmin(axis=1)[:, None], axis=1)[:, 0]
        evals = np.minimum(i + 2, s.l) - np.maximum(i - 1, 1) + 1
        comps = s.l.bit_length() + evals - 1
        return best - 1, evals, comps

    detect = _detect_one


# ---------------------------------------------------------------------------
# observation checks


#: rows whose |entries| sum outside [2**-_SCALE_EXP, 2**_SCALE_EXP] are
#: rescaled; inside, the fourth powers of entries that the rough estimate
#: forms in |r|^2, the squared norm of its Gram-entry vector r, stay normal
#: floats
_SCALE_EXP = 200


def _checked(Ys) -> np.ndarray:
    """A (n, 2, N) observation batch, refusing what no detector can decide.

    Any other shape, or N = 0, raises InvalidInputError. A single screen
    sums each row's |entries| (real and imaginary parts). A row with a
    non-finite entry raises InvalidInputError and an all-zero row
    DegenerateInputError. A row far from unit scale, whose Gram products
    would overflow or underflow, is multiplied by the power of two that
    brings its largest |entry| into [1/2, 1): the factor is exact and every
    detector is scale-invariant, so its decision does not change. Every
    other row is returned bit for bit.
    """
    Ys = np.ascontiguousarray(Ys, dtype=np.complex128)
    if Ys.ndim != 3 or Ys.shape[1] != 2 or Ys.shape[2] < 1:
        raise InvalidInputError(f"observations must be 2xN with N >= 1, batched as "
                                f"(n, 2, N); got batch shape {Ys.shape}")
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
    """One 2xN observation (or a 2-vector) as a batch of one; `_checked`
    judges the shape."""
    Y = np.asarray(Y, dtype=np.complex128)
    return (Y[:, None] if Y.ndim == 1 else Y)[None]
