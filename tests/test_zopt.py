import dataclasses
import math

import numpy as np
import pytest

from grassbloch.errors import InvalidInputError
from grassbloch.geometry import angles_to_codewords, fejes_toth_bound
from grassbloch.zopt import (
    ZOptStructure,
    _diag_lower_root,
    _greedy_feasible,
    build_z_opt,
    candidate_distances,
    diagonal_chord,
    expand_theta,
    horizontal_chord,
    optimize_zopt,
    realize_codewords,
    vertical_chord,
    zopt_structure,
)

ANTIPRISM_D = math.sqrt((4.0 - math.sqrt(2.0)) / 7.0)
Z_MAX_VALUES = (2, 4, 8, 16, 32, 64, 128, 256)
#: searched structures with k half rings per cap: B = 9 (k = 3) and B = 11 (k = 7)
K_CAP_ROWS = [(16,) * 3 + (32,) * 13 + (16,) * 3, (32,) * 7 + (64,) * 25 + (32,) * 7]


def reference_layer_azimuths(s, layer):
    """Azimuths of 1-based layer `layer`, one layer at a time: the reference
    for the vectorized azimuths of `realize_codewords`."""
    z = s.Z_l[layer - 1]
    base = 0.0 if layer % 2 == 1 else math.pi / s.z_max
    return base + 2.0 * math.pi * np.arange(z) / z


def reference_diag_lower_root(theta_prev, t, h):
    """80-step bisection on diagonal_chord: the reference for the closed-form root."""
    if diagonal_chord(theta_prev, theta_prev, h) >= t:
        return theta_prev
    lo, hi = theta_prev, math.pi
    if diagonal_chord(theta_prev, hi, h) < t:
        return math.inf
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if diagonal_chord(theta_prev, mid, h) >= t:
            hi = mid
        else:
            lo = mid
    return hi


class TestStructureTable:
    def test_row_b4(self):
        s = zopt_structure(4)
        assert (s.l, s.Z_l, s.z_max, s.n_v) == (4, (4, 4, 4, 4), 4, 2)

    def test_row_b5(self):
        s = zopt_structure(5)
        assert (s.l, s.Z_l, s.z_max, s.n_v) == (5, (4, 8, 8, 8, 4), 8, 2)

    def test_row_b10(self):
        s = zopt_structure(10)
        assert s.l == 32 and s.Z_l == (32,) * 32 and s.z_max == 32 and s.n_v == 16

    def test_sizes_sum(self):
        for B in range(1, 17):
            s = zopt_structure(B)
            assert sum(s.Z_l) == 2**B
            assert s.z_max == max(s.Z_l)

    def test_rows_derive_from_layer_sizes(self):
        # (l, z_max, n_v) per B written out: an oracle independent of the properties
        listed = {
            1: (1, 2, 1), 2: (2, 2, 1), 3: (2, 4, 1), 4: (4, 4, 2), 5: (5, 8, 2),
            6: (8, 8, 4), 7: (10, 16, 5), 8: (16, 16, 8), 9: (32, 16, 16),
            10: (32, 32, 16), 11: (64, 32, 32), 12: (64, 64, 32),
            13: (128, 64, 64), 14: (128, 128, 64), 15: (256, 128, 128),
            16: (256, 256, 128),
        }
        assert [f.name for f in dataclasses.fields(ZOptStructure)] == ["Z_l"]
        for B, row in listed.items():
            s = zopt_structure(B)
            assert (s.l, s.z_max, s.n_v) == row
            assert (s.B, s.C) == (B, 2**B)

    def test_sizes_must_sum_to_two_to_the_b(self):
        with pytest.raises(InvalidInputError):
            ZOptStructure((4, 2))

    def test_half_layer_shape(self):
        # B = 5 has halved caps (one half ring per pole), B = 7 doubled caps
        # (two half rings per pole); every other row is uniform
        for B, n_half in ((5, 1), (7, 2)):
            s = zopt_structure(B)
            cap = (s.z_max // 2,) * n_half
            assert s.Z_l[:n_half + 1] == cap + (s.z_max,)
            assert s.Z_l[-n_half:] == cap
            assert all(z == s.z_max for z in s.Z_l[n_half:-n_half])
        for B in set(range(1, 17)) - {5, 7}:
            s = zopt_structure(B)
            assert set(s.Z_l) == {s.z_max}

    @pytest.mark.parametrize("Z_l", [(2,), (4, 4), (2, 4, 2)] + K_CAP_ROWS)
    def test_validator_accepts(self, Z_l):
        s = ZOptStructure(Z_l)
        assert s.Z_l == Z_l and s.C == 2**s.B == sum(Z_l)

    @pytest.mark.parametrize("Z_l", [(2, 4, 2)] + K_CAP_ROWS)
    def test_candidate_count_with_k_half_rings(self, Z_l):
        s = ZOptStructure(Z_l)
        free = np.linspace(0.2, math.pi / 2 - 0.1, s.n_v)
        assert candidate_distances(free, s).count == 2 * s.n_v + 1 + 2 * s.equator

    @pytest.mark.parametrize("Z_l", [
        (2, 6, 6, 2),  # rings not powers of two
        (2, 4, 8, 2),  # not mirror symmetric
        (8, 4, 4),  # half rings at one pole only
        (4, 2),  # neither symmetric nor a power-of-two total
        (),  # no layers
        (1, 1),  # rings of one point
        (1, 2, 1),  # caps of one-point rings
        (4, 8, 8, 4, 4, 8, 8, 4),  # half rings between full ones
        (4, 8, 4, 4, 8, 4),  # the same, with a power-of-two total
        (2, 8, 2),  # a cap ring below z_max / 2
        (4, 4, 4),  # a total of 12
    ])
    def test_validator_rejects(self, Z_l):
        with pytest.raises(InvalidInputError):
            ZOptStructure(Z_l)

    def test_sizes_become_python_ints(self):
        s = ZOptStructure(np.array([4, 4]))
        assert s.Z_l == (4, 4) and all(type(z) is int for z in s.Z_l)
        assert s == zopt_structure(3)
        with pytest.raises(TypeError):
            ZOptStructure((4.0, 4.0))

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError, match="B=0 outside the supported range"):
            zopt_structure(0)
        with pytest.raises(InvalidInputError, match="B=17 outside the supported range"):
            zopt_structure(17)

    def test_candidate_count_column(self):
        for B in range(1, 17):
            s = zopt_structure(B)
            expected = 1 if B == 1 else 2 * s.n_v + (3 if B == 5 else 1 if B == 7 else 0)
            free = np.linspace(0.2, math.pi / 2 - 0.1, s.n_v)
            assert candidate_distances(free, s).count == expected


class TestChordHelpers:
    def test_vertical(self):
        assert vertical_chord(math.pi / 4, math.pi / 2) == pytest.approx(
            2.0 * math.sin(math.pi / 8), abs=1e-12
        )

    def test_horizontal_equator(self):
        assert horizontal_chord(math.pi / 2, math.pi / 2) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_diagonal_reduces_on_equator(self):
        for dphi in (0.3, 0.7, 1.1):
            d = diagonal_chord(math.pi / 2, math.pi / 2, dphi)
            h = horizontal_chord(math.pi / 2, dphi)
            assert d == pytest.approx(h, abs=1e-12)

    def test_diagonal_is_true_chord(self):
        # against direct 3-space geometry
        rng = np.random.default_rng(2)
        for _ in range(50):
            t1, t2 = sorted(rng.uniform(0.1, math.pi - 0.1, 2))
            dphi = rng.uniform(0.0, math.pi)
            p = np.array([math.sin(t1), 0.0, math.cos(t1)])
            q = np.array([math.sin(t2) * math.cos(dphi), math.sin(t2) * math.sin(dphi),
                          math.cos(t2)])
            assert diagonal_chord(t1, t2, dphi) == pytest.approx(
                np.linalg.norm(p - q), abs=1e-12
            )


class TestCandidateDistances:
    def test_monotone_required(self):
        s = zopt_structure(4)
        with pytest.raises(InvalidInputError):
            candidate_distances([0.9, 0.5], s)

    def test_set_sizes(self):
        for B in range(4, 13):
            s = zopt_structure(B)
            free = np.linspace(0.2, math.pi / 2 - 0.1, s.n_v)
            cd = candidate_distances(free, s)
            # only B = 5 has an equator layer; both cap shapes add one
            # in-layer entry, for the first full ring
            n_v_prime = s.n_v + (1 if B == 5 else 0)
            assert len(cd.V) == n_v_prime - 1
            assert len(cd.H) == (2 if B in (5, 7) else 1)
            assert len(cd.D) == n_v_prime
            assert cd.count == 2 * s.n_v + (3 if B == 5 else 1 if B == 7 else 0)

    def test_matches_all_pairs_minimum(self):
        # the whole point of the reduction: nothing outside the set is smaller
        for B in range(1, 17):
            z = build_z_opt(B)
            free = z.theta[: z.structure.n_v]
            cd = candidate_distances(free, z.structure)
            assert cd.minimum / 2.0 == pytest.approx(
                z.min_chordal_distance, abs=1e-12
            )


class TestDiagLowerRoot:
    def check(self, theta_prev, t, h):
        got = _diag_lower_root(theta_prev, t, h)
        want = reference_diag_lower_root(theta_prev, t, h)
        if math.isinf(want):
            assert got == math.inf
        else:
            assert abs(got - want) <= 1e-12, (theta_prev, t, h, got, want)
        return got

    def test_matches_bisection_on_random_cases(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            theta_prev = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            h = rng.uniform(1e-3, math.pi / 2)
            theta = rng.uniform(theta_prev, math.pi)
            # t reached at a known interior root, then t anywhere in (0, 2)
            got = self.check(theta_prev, float(diagonal_chord(theta_prev, theta, h)), h)
            assert got == pytest.approx(theta, abs=1e-12)
            self.check(theta_prev, rng.uniform(0.0, 2.0), h)

    def test_small_t_gives_theta_prev(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            theta_prev = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            h = rng.uniform(1e-3, math.pi / 2)
            t = float(diagonal_chord(theta_prev, theta_prev, h)) * rng.uniform(0.0, 1.0)
            assert _diag_lower_root(theta_prev, t, h) == theta_prev
            assert self.check(theta_prev, t, h) == theta_prev

    def test_unreachable_gives_inf(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            theta_prev = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            h = rng.uniform(1e-3, math.pi / 2)
            top = float(diagonal_chord(theta_prev, math.pi, h))
            t = top * (1.0 + 1e-9) + rng.uniform(0.0, 2.0 - top)
            assert _diag_lower_root(theta_prev, t, h) == math.inf
            self.check(theta_prev, t, h)

    @pytest.mark.parametrize("z_max", Z_MAX_VALUES)
    def test_layer_offsets_near_the_root(self, z_max):
        # the optimizer's h = pi/z_max, with roots from far above theta_prev
        # down to 1e-10 above it, including near the pole and the equator
        h = math.pi / z_max
        for theta_prev in (1e-3, 0.1, 0.7, 1.2, 1.5, math.pi / 2 - 1e-3):
            for gap in (1.0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
                t = float(diagonal_chord(theta_prev, theta_prev + gap, h))
                self.check(theta_prev, t, h)


class TestClosedForms:
    def test_b1(self):
        z = build_z_opt(1)
        assert z.min_chordal_distance == pytest.approx(1.0, abs=1e-9)
        assert z.theta[0] == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_b2_tetrahedron(self):
        z = build_z_opt(2)
        assert z.theta[0] == pytest.approx(math.atan(math.sqrt(2.0)), abs=1e-12)
        assert z.min_chordal_distance == pytest.approx(
            math.sqrt(6.0) / 3.0, abs=1e-9
        )

    def test_b3_antiprism(self):
        z = build_z_opt(3)
        assert z.theta[0] == pytest.approx(
            math.atan(math.sqrt(2.0 * math.sqrt(2.0))), abs=1e-12
        )
        assert z.min_chordal_distance == pytest.approx(
            ANTIPRISM_D, abs=1e-9
        )


def reference_optimize_zopt(s):
    """Every one of the 90 bisection steps, then the placement at the last
    feasible t: the reference for the optimizer that stops once the bracket
    stops moving."""
    lo, hi = 1e-9, 2.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if _greedy_feasible(mid, s) is not None:
            lo = mid
        else:
            hi = mid
    return _greedy_feasible(lo, s)


class TestOptimizer:
    def test_b4_matches_exhaustive_grid(self):
        # two free angles: exhaustive scan is a usable global oracle
        s = zopt_structure(4)
        grid = np.arange(1e-4, math.pi / 2, 1e-3)
        best = -1.0
        for t1 in grid[::4]:
            t2s = grid[grid > t1][::4]
            if not len(t2s):
                continue
            vals = [candidate_distances([t1, t2], s).minimum for t2 in t2s]
            best = max(best, max(vals))
        free = optimize_zopt(s)
        achieved = candidate_distances(free, s).minimum
        assert achieved >= best - 1e-4

    def test_b4_ratio_window(self):
        z = build_z_opt(4)
        bound = fejes_toth_bound(16)
        d = z.min_chordal_distance
        assert 0.9 * bound <= d <= bound

    def test_objective_equals_built_minimum(self):
        z = build_z_opt(6)
        free = z.theta[: z.structure.n_v]
        cd = candidate_distances(free, z.structure)
        assert cd.minimum / 2.0 == pytest.approx(
            z.min_chordal_distance, abs=1e-12
        )

    def test_variable_count_matches_table(self):
        for B in range(4, 17):
            s = zopt_structure(B)
            free = optimize_zopt(s)
            assert len(free) == s.n_v

    @pytest.mark.parametrize("B", range(4, 17))
    def test_no_single_angle_move_raises_minimum(self, B):
        # the greedy bisection is the optimum: moving any one free angle alone
        # never raises the candidate minimum beyond rounding
        s = zopt_structure(B)
        free = optimize_zopt(s)
        best = candidate_distances(free, s).minimum
        for k in range(s.n_v):
            for step in (-1e-4, -1e-6, -1e-9, 1e-9, 1e-6, 1e-4):
                moved = free.copy()
                moved[k] += step
                assert candidate_distances(moved, s).minimum <= best + 1e-13, (k, step)

    def test_bisection_reaches_largest_feasible_minimum(self):
        # 1e-10 above the achieved minimum no placement meets every candidate
        for B in range(4, 17):
            s = zopt_structure(B)
            achieved = candidate_distances(optimize_zopt(s), s).minimum
            assert _greedy_feasible(achieved + 1e-10, s) is None, B

    @pytest.mark.parametrize("B", range(4, 17))
    def test_early_stop_matches_every_step(self, B):
        s = zopt_structure(B)
        assert optimize_zopt(s).tobytes() == reference_optimize_zopt(s).tobytes()

    def test_small_b_rejected(self):
        with pytest.raises(InvalidInputError, match="optimization applies to B in 4..16"):
            optimize_zopt(zopt_structure(3))

    def test_deterministic(self):
        s = zopt_structure(5)
        a = optimize_zopt(s)
        b = optimize_zopt(s)
        assert np.array_equal(a, b)


class TestRealization:
    def test_theta_symmetry(self):
        for B in (2, 3, 4, 5, 6, 7, 8):
            z = build_z_opt(B)
            s = z.structure
            for k in range(s.n_v):
                if s.l - 1 - k == k:
                    continue
                assert z.theta[s.l - 1 - k] + z.theta[k] == pytest.approx(
                    math.pi, abs=1e-12
                )
            if B == 5:
                assert z.theta[s.n_v] == math.pi / 2.0

    def test_phi_assignment(self):
        for B in (4, 5, 6):
            z = build_z_opt(B)
            s = z.structure
            phi = np.angle(z.array[:, 1]) % (2.0 * math.pi)
            for m in range(1, s.l + 1):
                lo = s.layer_offsets[m - 1]
                phis = phi[lo: lo + s.Z_l[m - 1]]
                steps = np.diff(phis)
                assert np.allclose(steps, 2.0 * math.pi / s.Z_l[m - 1], atol=1e-12)
                expected_offset = 0.0 if m % 2 == 1 else math.pi / s.z_max
                assert phis[0] == pytest.approx(expected_offset, abs=1e-15)

    @pytest.mark.parametrize("Z_l", [zopt_structure(B).Z_l for B in range(1, 17)] + K_CAP_ROWS)
    def test_matches_per_layer_loop(self, Z_l):
        s = ZOptStructure(Z_l)
        theta = np.linspace(0.1, math.pi - 0.1, s.l)
        phi = np.concatenate([reference_layer_azimuths(s, m) for m in range(1, s.l + 1)])
        want = angles_to_codewords(np.repeat(theta, s.Z_l), phi)
        assert realize_codewords(theta, s).tobytes() == want.tobytes()

    def test_layer_offsets(self):
        z = build_z_opt(5)
        assert z.structure.layer_offsets == (0, 4, 12, 20, 28)

    def test_codewords_layer_major(self):
        z = build_z_opt(4)
        arr = z.array
        s = z.structure
        for m in range(1, s.l + 1):
            lo = z.structure.layer_offsets[m - 1]
            block = arr[lo: lo + s.Z_l[m - 1]]
            c0 = math.cos(z.theta[m - 1] / 2.0)
            assert np.allclose(block[:, 0].real, c0, atol=1e-12)

    def test_expand_theta_shapes(self):
        for B in (4, 5, 7, 8):
            s = zopt_structure(B)
            free = np.linspace(0.2, 1.4, s.n_v)
            theta = expand_theta(free, s)
            assert len(theta) == s.l
            assert np.all(np.diff(theta) > 0)

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError, match="B=0 outside the supported range"):
            build_z_opt(0)

    def test_structure_and_theta_read_only(self):
        z = build_z_opt(4)
        with pytest.raises(ValueError):
            z.theta[0] = 0.1
        with pytest.raises(AttributeError):
            z.theta = z.theta[::-1]
        with pytest.raises(AttributeError):
            z.structure = zopt_structure(5)
