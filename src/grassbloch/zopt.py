"""Layered-polygon constellations on the Bloch sphere.

Codewords sit on l stacked regular polygons ("layers"); adjacent layers are
rotated against each other by half an azimuthal step. Mirror symmetry about
the equator cuts the number of free polar angles to n_v, and the minimum
pairwise distance over the whole constellation is attained inside a small
candidate set of vertical, in-layer and diagonal neighbor distances
(`candidate_distances`), which is what the optimizer maximizes; the same set
decides whether each greedy placement it tries is feasible. For B in
{1, 2, 3} the optimal angles are known in closed form and no optimization
runs.

B bits stack 2^ceil(B/2) regular polygons of 2^floor(B/2) points each
(`zopt_structure`), except B = 1 (one equator ring of 2), B = 3 (an antiprism
of two 4-point rings) and B = 5 and 7, which put rings of z_max / 2 points in
the polar caps, where a full ring would crowd the pole. B = 5 has halved caps:
one half ring per cap and an equator layer. B = 7 has doubled caps: two half
rings per cap, no equator layer, ten layers (8, 8, 16, 16, 16, 16, 16, 16, 8,
8). The cap shape is read off the layer sizes `Z_l`, never off B, so caps of
any k half rings work alike.

Why B = 7 uses doubled caps: the greedy bisection below reaches the exact
optimum of a given structure, and searching it over every mirror-symmetric
nine-layer structure with alternating half-step rotation and ring sizes in
{2, 4, 8, 12, 16, 20, 24, 32} gives at best 0.8841 of the Fejes-Toth bound,
the value of the halved-cap row (8, 16 x 7, 8). Eight-layer structures from the
same sizes reach 0.871, the uniform 16 x 8 and 8 x 16 ones 0.840 and 0.868. The
doubled-cap row reaches 0.9055 (minimum chordal distance 0.151828 against
0.148240), the only one found above the 0.90 that the structure is held to for
B = 4..8.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .geometry import Constellation, angles_to_codewords

# layer sizes, top layer first, of the rows the polygon-stacking rule does not give
_IRREGULAR_ROWS = {
    1: (2,),
    3: (4, 4),
    5: (4, 8, 8, 8, 4),
    7: (8, 8) + (16,) * 6 + (8, 8),
}

_CLOSED_FORM_THETA = {
    1: (math.pi / 2.0,),
    2: (math.atan(math.sqrt(2.0)),),
    3: (math.atan(math.sqrt(2.0 * math.sqrt(2.0))),),
}


@dataclass(frozen=True)
class ZOptStructure:
    """Layer sizes Z_l, top layer first; B and C follow from their sum.

    Only the shapes the optimizer and the layered detector handle are
    accepted: 2^B points in all, on rings of z_max = 2^m >= 2 points between
    equal polar caps of k >= 0 rings of z_max / 2 points. Anything else,
    non-integers aside (TypeError), raises InvalidInputError.
    """

    Z_l: tuple

    def __post_init__(self):
        Z_l = tuple(map(operator.index, self.Z_l))
        object.__setattr__(self, "Z_l", Z_l)
        z_max = max(Z_l, default=0)
        cap = (z_max // 2,) * (Z_l.count(z_max // 2) // 2)
        if not (min(Z_l, default=0) >= 2 and z_max & (z_max - 1) == 0
                and Z_l == cap + (z_max,) * (len(Z_l) - 2 * len(cap)) + cap
                and self.C & (self.C - 1) == 0):
            raise InvalidInputError(f"layer sizes {list(Z_l)} are not 2^B points in rings of "
                                    "z_max = 2^m >= 2 between equal caps of z_max / 2 rings")

    @property
    def B(self) -> int:
        return self.C.bit_length() - 1

    @property
    def C(self) -> int:
        return sum(self.Z_l)

    @property
    def l(self) -> int:
        """Number of layers."""
        return len(self.Z_l)

    @property
    def z_max(self) -> int:
        """Size of the largest layer."""
        return max(self.Z_l)

    @property
    def n_v(self) -> int:
        """Free polar angles: one per upper-half layer (an odd middle layer
        sits on the equator), and at least one."""
        return max(1, self.l // 2)

    @property
    def equator(self) -> bool:
        """Whether an odd middle layer sits on the equator."""
        return self.l == 2 * self.n_v + 1

    @cached_property
    def h_layers(self) -> tuple:
        """1-based upper-half layers whose in-layer distance can be the minimum.

        The first layer and each layer whose ring grows over the one above;
        along a run of equal rings the in-layer chord grows towards the equator.
        """
        top = self.Z_l[: self.n_v + self.equator]
        return tuple(k for k in range(1, len(top) + 1) if k == 1 or top[k - 1] > top[k - 2])

    @property
    def layer_offsets(self) -> tuple:
        """Index of each layer's first codeword."""
        return tuple(itertools.accumulate(self.Z_l[:-1], initial=0))

    @cached_property
    def layer_table(self) -> tuple:
        """Read-only int64 arrays over the l layers, for gathers by layer:
        ring size, sectors of pi/z_max between neighboring points
        (2*z_max // size) and index of the layer's first codeword."""
        size = np.array(self.Z_l, dtype=np.int64)
        table = (size, 2 * self.z_max // size, np.array(self.layer_offsets, dtype=np.int64))
        for t in table:
            t.setflags(write=False)
        return table


def zopt_structure(B: int) -> ZOptStructure:
    """The layer sizes of B bits: 2^floor(B/2) points on each of 2^ceil(B/2)
    stacked regular polygons, except for the four rows in `_IRREGULAR_ROWS`
    (B = 1, the B = 3 antiprism and the capped B = 5 and 7)."""
    if B not in range(1, 17):
        raise InvalidInputError(f"B={B} outside the supported range 1..16")
    B = int(B)  # an integral float or numpy scalar names the same row
    return ZOptStructure(_IRREGULAR_ROWS.get(B, (2 ** (B // 2),) * 2 ** ((B + 1) // 2)))


# ---------------------------------------------------------------------------
# candidate distances (all on the sphere's chord scale, i.e. twice chordal)


def vertical_chord(theta_i, theta_j):
    """Chord between two sphere points sharing an azimuth."""
    return 2.0 * np.sin(np.abs(np.asarray(theta_i) - theta_j) / 2.0)


def horizontal_chord(theta, dphi):
    """Chord between two sphere points at the same polar angle, dphi apart."""
    return 2.0 * np.sin(theta) * np.sin(np.asarray(dphi) / 2.0)


def diagonal_chord(theta_i, theta_j, dphi):
    """Chord between sphere points differing in both angles."""
    half = (np.asarray(theta_i) - theta_j) / 2.0
    rad = np.sin(half) ** 2 + np.sin(theta_i) * np.sin(theta_j) * np.sin(np.asarray(dphi) / 2.0) ** 2
    return 2.0 * np.sqrt(np.maximum(rad, 0.0))


@dataclass(frozen=True)
class CandidateDistances:
    """The distances that can attain the constellation minimum."""

    V: np.ndarray  # vertical, between layers i and i+2
    H: np.ndarray  # in-layer nearest pairs
    D: np.ndarray  # diagonal, between adjacent layers

    @property
    def minimum(self) -> float:
        return float(min(self.V.min(initial=np.inf), self.H.min(initial=np.inf),
                         self.D.min(initial=np.inf)))

    @property
    def count(self) -> int:
        return len(self.V) + len(self.H) + len(self.D)


def expand_theta(free_theta, s: ZOptStructure) -> np.ndarray:
    """All l polar angles from the n_v free ones via equator mirror symmetry."""
    free_theta = np.asarray(free_theta, dtype=np.float64)
    if len(free_theta) != s.n_v:
        raise InvalidInputError(f"expected {s.n_v} free angles, got {len(free_theta)}")
    if s.l == 1:
        return np.array([math.pi / 2.0])
    return np.concatenate([free_theta, [math.pi / 2.0] * s.equator, math.pi - free_theta[::-1]])


def candidate_distances(free_theta, s: ZOptStructure) -> CandidateDistances:
    """Evaluate the candidate set at the given free angles.

    In-layer entries use the full azimuthal separation 2*pi/z_i of adjacent
    points within layer i, for the layers in `s.h_layers`; diagonal entries
    use the half-step offset pi/z_max between neighboring layers.
    """
    free_theta = np.asarray(free_theta, dtype=np.float64)
    if s.l == 1:
        # single equatorial layer: only the in-layer distance exists
        h = horizontal_chord(math.pi / 2.0, 2.0 * math.pi / s.Z_l[0])
        return CandidateDistances(V=np.empty(0), H=np.array([h]), D=np.empty(0))
    if np.any(free_theta <= 0.0) or np.any(free_theta >= math.pi / 2.0) or np.any(
        np.diff(free_theta) <= 0.0
    ):
        raise InvalidInputError("free angles must be strictly increasing in (0, pi/2)")
    theta = expand_theta(free_theta, s)
    n_v_prime = s.n_v + s.equator
    V = vertical_chord(theta[0:n_v_prime - 1], theta[2:n_v_prime + 1])
    H = np.array([
        horizontal_chord(theta[i - 1], 2.0 * math.pi / s.Z_l[i - 1]) for i in s.h_layers
    ])
    D = diagonal_chord(theta[0:n_v_prime], theta[1:n_v_prime + 1], math.pi / s.z_max)
    return CandidateDistances(V=np.atleast_1d(V), H=H, D=np.atleast_1d(D))


# ---------------------------------------------------------------------------
# angle optimization


def _diag_lower_root(theta_prev: float, t: float, h: float) -> float:
    """Smallest theta >= theta_prev whose diagonal chord to theta_prev reaches t.

    In closed form: the squared half chord is 1/2 - R*cos(theta - psi), with
    (R*cos(psi), R*sin(psi)) = (cos(theta_prev), cos(h)*sin(theta_prev))/2.
    For theta_prev < pi/2, psi <= theta_prev, so the chord grows over
    [theta_prev, pi] and the root is psi + acos((1/2 - t^2/4)/R). It is
    evaluated as psi + 2*asin(sqrt(x)), with the chord's minimum 1/2 - R
    written without cancellation, so it stays accurate for roots close to psi
    (acos loses up to 3e-10 there). inf means not even theta = pi reaches t.
    """
    a = 0.5 * math.cos(theta_prev)
    b = 0.5 * math.cos(h) * math.sin(theta_prev)
    R = math.hypot(a, b)
    lowest = (0.5 * math.sin(h) * math.sin(theta_prev)) ** 2 / (0.5 + R)  # 1/2 - R
    x = (t * t / 4.0 - lowest) / (2.0 * R)  # sin^2((theta - psi) / 2) at the root
    if x <= 0.0:
        return theta_prev
    if x >= 1.0:
        return math.inf
    root = math.atan2(b, a) + 2.0 * math.asin(math.sqrt(x))
    return max(theta_prev, root) if root <= math.pi else math.inf


def _greedy_feasible(t: float, s: ZOptStructure):
    """Minimal strictly increasing free angles whose candidate set is >= t.

    Walks the layers top-down taking each angle as low as the in-layer (for
    the layers in `s.h_layers`), vertical and diagonal constraints from
    already placed layers allow. The candidates that couple into the mirrored
    half only cap the angles from above, so minimal angles are optimal, and
    the candidate set at those angles (`candidate_distances`, within 1e-12)
    decides feasibility exactly. None if t is not reachable.
    """
    h = math.pi / s.z_max
    vgap = 2.0 * math.asin(t / 2.0)
    free = []
    for k in range(1, s.n_v + 1):
        lb = 0.0 if k == 1 else max(_diag_lower_root(free[-1], t, h), free[-1] + 1e-12)
        if k >= 3:
            lb = max(lb, free[-2] + vgap)
        if k in s.h_layers:
            sin_k = t / (2.0 * math.sin(math.pi / s.Z_l[k - 1]))
            if sin_k > 1.0:
                return None
            lb = max(lb, math.asin(sin_k))
        if not lb < math.pi / 2.0:
            return None
        free.append(lb)
    if candidate_distances(free, s).minimum - t < -1e-12:
        return None
    return np.asarray(free)


def optimize_zopt(s: ZOptStructure) -> np.ndarray:
    """Free polar angles maximizing the candidate-set minimum.

    A bisection of at most 90 steps over the achievable minimum t in
    (1e-9, 2), where each step places the layers greedily at their lowest
    feasible angles and checks them against the candidate set
    (`_greedy_feasible`). It stops once the midpoint rounds to an end of the
    bracket, since every later step would test that end again, and returns
    the placement at the last feasible t. The greedy placement decides
    feasibility exactly, so the bisection converges on the optimum of the
    structure and no polish follows. Deterministic.
    """
    if not 4 <= s.B <= 16:
        raise InvalidInputError("optimization applies to B in 4..16; smaller B is closed form")
    lo = 1e-9
    hi = 2.0  # no chord exceeds the sphere diameter
    best = _greedy_feasible(lo, s)
    if best is None:
        raise InvalidInputError("no feasible layer placement found")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        theta = _greedy_feasible(mid, s)
        if theta is not None:
            lo, best = mid, theta
        else:
            hi = mid
    return best


# ---------------------------------------------------------------------------
# constellation realization


def realize_codewords(theta: np.ndarray, s: ZOptStructure) -> np.ndarray:
    """(C, 2) codeword rows in layer-major order for the given polar angles.

    Point j of 1-based layer m sits at azimuth base + 2 pi j / Z_m, where base
    is 0 on odd layers and pi / z_max on even ones.
    """
    size, _, first = s.layer_table
    base = np.arange(s.l) % 2 * (math.pi / s.z_max)
    j = np.arange(s.C) - np.repeat(first, size)
    phi = np.repeat(base, size) + 2.0 * math.pi * j / np.repeat(size, size)
    return angles_to_codewords(np.repeat(theta, size), phi)


class ZOptConstellation(Constellation):
    """A layered constellation: the codewords that `structure` and the l
    polar angles `theta` realize, with both kept for the layered detector."""

    def __init__(self, structure: ZOptStructure, theta):
        theta = np.array(theta, dtype=np.float64)
        if theta.shape != (structure.l,) or not np.all(np.diff(theta) > 0.0):
            raise InvalidInputError("theta must hold l strictly increasing angles")
        theta.setflags(write=False)
        super().__init__(realize_codewords(theta, structure), "z-opt", structure.B)
        self._structure = structure
        self._theta = theta

    @property
    def structure(self) -> ZOptStructure:
        return self._structure

    @property
    def theta(self) -> np.ndarray:
        """Read-only polar angle of each of the l layers, increasing."""
        return self._theta


def build_z_opt(B: int) -> ZOptConstellation:
    """Construct the layered constellation for 1 <= B <= 16."""
    s = zopt_structure(B)
    if B in _CLOSED_FORM_THETA:
        free = np.asarray(_CLOSED_FORM_THETA[B])
    else:
        free = optimize_zopt(s)
    return ZOptConstellation(s, expand_theta(free, s))
