"""Noncoherent detectors for G(2,1) constellations, with operation counters.

All three detectors read one front end, `bloch_vector_batch`: the
unnormalized Bloch vector r of G = Y Y^H, from the Gram entries. It is
also the only screen of the observations: where tr G or |r|^2 is not a
finite normal float, it refuses a non-finite or zero observation and
otherwise rescales by an exact power of two. The exhaustive detector
maximizes r . b, which is 2 ||Y^H x||^2 - tr G, over the codewords' Bloch
points b. The two fast ones search r / |r|
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
runs the detector's batch implementation on one row, so `detect` is exactly
`detect_batch` on a batch of one, and a row is decided alike in any batch:
the GLRT never scores a block of one row, which BLAS rounds its own way.
Where two codewords tie to within rounding, the three detectors can still
pick different ones; ROADMAP item 2 tracks these ties.
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
    """`detect` of every detector: its `detect_batch` on one 2xN observation
    (or a 2-vector, N = 1) as a batch of one."""
    Y = np.asarray(Y, dtype=np.complex128)
    idx, evals, comps = det.detect_batch((Y[:, None] if Y.ndim == 1 else Y)[None])
    return DetectionResult(int(idx[0]), int(evals[0]), int(comps[0]))


# ---------------------------------------------------------------------------
# the front end: the Bloch vector of Y Y^H


def _not_normal(x: np.ndarray) -> np.ndarray:
    """Where x is not a finite normal float: 0, subnormal, inf or NaN."""
    return ~((x >= np.finfo(np.float64).tiny) & (x < np.inf))


def _unit_scaled(a: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Each row of `a` times the power of two that brings `top`, its largest
    |real or imaginary part|, into [1/2, 1): an exact factor, 1 for a zero row."""
    v = a.view(np.float64)
    return np.ldexp(v, -np.frexp(top)[1].reshape((-1,) + (1,) * (v.ndim - 1))).view(a.dtype)


def _bloch_and_trace(Ys: np.ndarray):
    """r and tr G of Y Y^H from its three Gram entries."""
    row0 = Ys[:, 0, :]
    row1 = Ys[:, 1, :]
    g00 = np.einsum("ij,ij->i", row0, row0.conj()).real
    g11 = np.einsum("ij,ij->i", row1, row1.conj()).real
    g01 = np.einsum("ij,ij->i", row0, row1.conj())
    return np.column_stack([2.0 * g01.real, -2.0 * g01.imag, g00 - g11]), g00 + g11


def bloch_vector_batch(Ys) -> np.ndarray:
    """(n, 3) unnormalized Bloch vectors r of G = Y Y^H for a batch of (n, 2, N)
    observations, refusing what no detector can decide.

    G - tr(G)/2 I = (r . sigma) / 2 over the Pauli matrices, so
    r = (2 Re g01, -2 Im g01, g00 - g11) points at the Bloch point of G's
    dominant eigenvector, and r . b = 2 ||Y^H x||^2 - tr G for a unit
    codeword x with Bloch point b.

    Any shape but (n, 2, N >= 1) raises InvalidInputError. The screen reads
    the two quantities the front end forms anyway. A row whose tr G or |r|^2
    is not a finite normal float raises InvalidInputError if it has a
    non-finite entry, then DegenerateInputError if it is zero. Otherwise its
    Gram products overflowed or underflowed, or r is short at any scale
    (Y = [[1, 1e-170], [0, 1]]). Its r is formed again from Y times the power
    of two that brings its largest |entry| into [1/2, 1), or only up to it
    where tr G is normal, and where |r|^2 is still not a normal float, r is
    scaled the same way; r = 0 stays 0. Every factor is exact and no
    detector depends on the length of r. Every other row keeps its bits:
    its |r| >= 2^-511, so a component its products lost below the normal
    floats can only break a tie to within rounding.
    """
    Ys = np.ascontiguousarray(Ys, dtype=np.complex128)
    if Ys.ndim != 3 or Ys.shape[1] != 2 or Ys.shape[2] < 1:
        raise InvalidInputError(f"observations must be 2xN with N >= 1, batched as "
                                f"(n, 2, N); got batch shape {Ys.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        r, trace = _bloch_and_trace(Ys)
        far = np.flatnonzero(_not_normal(trace) | _not_normal(np.einsum("ij,ij->i", r, r)))
    if len(far):
        Yf = Ys[far]
        top = np.abs(Yf.view(np.float64)).max(axis=(1, 2))
        if not np.isfinite(top).all():
            raise InvalidInputError("observation has non-finite entries")
        if not top.all():
            raise DegenerateInputError("observation is zero")
        # where tr G is normal, Y is only scaled up: scaling down could drop
        # subnormal entries
        top = np.where(_not_normal(trace[far]), top, np.minimum(top, 0.5))
        rf = _bloch_and_trace(_unit_scaled(Yf, top))[0]
        low = _not_normal(np.einsum("ij,ij->i", rf, rf))
        rf[low] = _unit_scaled(rf[low], np.abs(rf[low]).max(axis=1))
        r[far] = rf
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
        # a copy (C >= 2), frozen: sweep threads share the detector
        self._bloch = np.ascontiguousarray(constellation.bloch.T)
        self._bloch.setflags(write=False)

    def detect_batch(self, Ys: np.ndarray):
        r = bloch_vector_batch(Ys)
        n = len(r)
        C = self._bloch.shape[1]
        # no block holds one row: BLAS multiplies one row by its own
        # matrix-vector path, which can round differently from the same row
        # in a block of two or more. A batch of one is scored as two copies
        # and a last row left alone joins the block before it.
        if n == 1:
            r = np.repeat(r, 2, axis=0)
        step = max(2, _GLRT_BLOCK_ENTRIES // C)
        edges = list(range(0, len(r), step)) + [len(r)]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]
        idx = np.empty(len(r), dtype=np.intp)
        for lo, hi in zip(edges, edges[1:]):
            idx[lo:hi] = np.argmax(r[lo:hi] @ self._bloch, axis=1)
        counts = np.full(n, C, dtype=np.int64)
        return idx[:n], counts, counts.copy()

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
