import functools
import math
import os
import tracemalloc

import numpy as np
import pytest

from grassbloch import packing
from grassbloch.errors import FormatError, InvalidInputError
from grassbloch.formats import load_packing
from grassbloch.geometry import fejes_toth_bound, min_euclidean_distance_array
from grassbloch.packing import (
    PackingConfig,
    PackingSet,
    exact_packing,
    fibonacci_points,
    optimize_packing,
)

DATA = os.path.join(os.path.dirname(__file__), "data")

TETRA = 2.0 * math.sqrt(2.0 / 3.0)
ANTIPRISM = 2.0 * math.sqrt((4.0 - math.sqrt(2.0)) / 7.0)
ICOSA = 2.0 * fejes_toth_bound(12)

LIGHT = PackingConfig(starts=1, phase1_iters=150, phase2_sweeps=250)
TWO_STARTS = PackingConfig(starts=2, phase1_iters=150, phase2_sweeps=250)
ONE_ITER = PackingConfig(starts=1, phase1_iters=1, phase2_sweeps=250)
#: enough sweeps that the polish of a small set ends on the step bound
TO_MIN_STEP = PackingConfig(starts=1, phase1_iters=150, phase2_sweeps=2000)
#: the default phase-1 budget alone; at C = 256 its late exponents underflow
PHASE1_ONLY = PackingConfig(starts=1, phase1_iters=500, phase2_sweeps=0)
#: a few steps of each phase, for sizes whose full runs would slow the suite
FEW_STEPS = PackingConfig(starts=1, phase1_iters=3, phase2_sweeps=3)


class TestExactPacking:
    @pytest.mark.parametrize("C,expected", [
        (2, 2.0),
        (3, math.sqrt(3.0)),
        (4, TETRA),
        (6, math.sqrt(2.0)),
        (8, ANTIPRISM),
        (12, ICOSA),
    ])
    def test_min_distances(self, C, expected):
        p = exact_packing(C)
        assert p.C == C
        assert p.min_distance == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("C", [3, 4, 6, 12])
    def test_attains_bound(self, C):
        assert exact_packing(C).min_distance == pytest.approx(
            2.0 * fejes_toth_bound(C), abs=1e-9
        )

    def test_eight_below_bound(self):
        assert exact_packing(8).min_distance < 2.0 * fejes_toth_bound(8) - 1e-3

    def test_unsupported_count(self):
        with pytest.raises(InvalidInputError, match="no closed form for C=5"):
            exact_packing(5)


class TestOptimizePacking:
    def test_rediscovers_tetrahedron(self):
        p = optimize_packing(4, seed=0)
        assert p.min_distance >= TETRA - 1e-6

    def test_five_points(self):
        # the best five-point spread is a square pyramid at 90 degrees
        p = optimize_packing(5, seed=0)
        assert p.min_distance == pytest.approx(math.sqrt(2.0), abs=1e-4)

    def test_rediscovers_icosahedron(self):
        p = optimize_packing(12, seed=0)
        assert p.min_distance >= ICOSA - 1e-4

    def test_reproducible_bitwise(self):
        a = optimize_packing(7, seed=9)
        b = optimize_packing(7, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_seed_changes_result(self):
        a = optimize_packing(7, seed=1)
        b = optimize_packing(7, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_all_pairs_respect_min(self):
        p = optimize_packing(9, seed=0)
        d = min_euclidean_distance_array(p.points)
        assert d == pytest.approx(p.min_distance, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(InvalidInputError):
            optimize_packing(1)

    def test_two_points_are_the_exact_poles(self):
        p = optimize_packing(2, seed=5, config=LIGHT)
        assert np.array_equal(p.points, exact_packing(2).points)
        assert p.min_distance == 2.0

    @pytest.mark.parametrize("budget", [
        {"starts": 0}, {"starts": -3}, {"phase1_iters": -5}, {"phase2_sweeps": -1},
    ])
    def test_rejects_invalid_budget(self, budget):
        with pytest.raises(InvalidInputError):
            PackingConfig(**budget)

    def test_zero_phase_budgets_allowed(self):
        p = optimize_packing(7, seed=0, config=PackingConfig(1, 0, 0))
        assert p.min_distance > 0.0

    def test_keeps_the_benchmark_construct_floor(self):
        # s-opt -B 9 of the benchmark's construct workload: the packing's
        # minimum distance is twice the constellation's chordal d_min, which
        # the benchmark holds to within 1e-9 of 0.07923886313244705
        p = optimize_packing(512, seed=0, config=LIGHT)
        assert p.min_distance >= 0.1584777262648934 * (1.0 - 1e-12)

    def test_optimizer_memory_is_bounded(self):
        # a handful of C x C float64 buffers per phase, not fresh temporaries
        # for every elementwise step
        C = 512
        tracemalloc.start()
        try:
            optimize_packing(C, seed=0, config=PackingConfig(1, 20, 20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * C * C * 8


# Dense reference for the two optimizer phases: fresh arrays for every step
# and a new distance matrix for every sweep. The buffered phases in `packing`
# must reproduce its points bit for bit.


def reference_pairwise_distances(points):
    dots = np.clip(points @ points.T, -1.0, 1.0)
    np.fill_diagonal(dots, 1.0)
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots))


def reference_softmin_phase(points, cfg):
    decay = (packing._EPS_FINAL / packing._EPS_START) ** (1.0 / max(cfg.phase1_iters - 1, 1))
    d = reference_pairwise_distances(points)
    np.fill_diagonal(d, np.inf)
    eps = packing._EPS_START * float(d.min())
    for _ in range(cfg.phase1_iters):
        d = reference_pairwise_distances(points)
        np.fill_diagonal(d, np.inf)
        dmin = float(d.min())
        w = np.exp(-(d - dmin) / eps)
        np.fill_diagonal(w, 0.0)
        w /= w.sum()
        inv = np.where(d > 0, 1.0 / d, 0.0)
        coef = w * inv
        g = points * coef.sum(axis=1)[:, None] - coef @ points
        g = packing._project_tangent(points, g)
        gmax = float(np.abs(g).max())
        if gmax > 0:
            points = packing._renormalize(points + (packing._STEP_SCALE * eps / gmax) * g)
        eps *= decay
    return points


def reference_maximin_polish(points, cfg, stops, accepted=None):
    """`stops` receives why the polish ended: "step" or "budget"; `accepted`,
    if given, one entry per kept step."""
    step = packing._PHASE2_STEP
    d = reference_pairwise_distances(points)
    np.fill_diagonal(d, np.inf)
    best_f = float(d.min())
    best_points = points.copy()
    stop = "budget"
    for _ in range(cfg.phase2_sweeps):
        if step < packing._MIN_STEP:
            stop = "step"
            break
        d = reference_pairwise_distances(best_points)
        np.fill_diagonal(d, np.inf)
        f = float(d.min())
        nn = d.min(axis=1)
        slack = min(0.05, max(2.0 * step, 1e-12))
        active = nn <= f * (1.0 + slack)
        near = d <= (nn * (1.0 + slack))[:, None]
        weight = np.where(np.isfinite(d) & near,
                          (nn * (1.0 + slack))[:, None] - d, 0.0)
        inv = np.where(weight > 0, weight / np.maximum(d, 1e-15), 0.0)
        g = best_points * inv.sum(axis=1)[:, None] - inv @ best_points
        g = packing._project_tangent(best_points, g)
        norms = np.linalg.norm(g, axis=1)
        move = active & (norms > 0)
        if not np.any(move):
            step *= 0.5
            continue
        g[move] /= norms[move][:, None]
        g[~move] = 0.0
        trial = packing._renormalize(best_points + (step * f) * g)
        dt = reference_pairwise_distances(trial)
        np.fill_diagonal(dt, np.inf)
        ft = float(dt.min())
        if ft > best_f:
            best_points = trial
            best_f = ft
            if accepted is not None:
                accepted.append(ft)
            step = min(step * 1.3, packing._PHASE2_STEP)
        else:
            step *= 0.5
    stops.append(stop)
    return best_points


ORACLE_GRID = (
    [(C, seed, cfg) for C in (3, 5, 16, 33, 100) for seed in (0, 7)
     for cfg in (LIGHT, TWO_STARTS, ONE_ITER)]
    + [(C, seed, TO_MIN_STEP) for C in (5, 16) for seed in (0, 7)]
    + [(512, 0, LIGHT), (512, 7, LIGHT)]
    + [(256, 0, PHASE1_ONLY)]
    + [(C, 0, FEW_STEPS) for C in (511, 513, 1024)]
)


@pytest.mark.parametrize("C, seed, cfg", ORACLE_GRID, ids=[
    f"C{C}-seed{seed}-{cfg.starts}/{cfg.phase1_iters}/{cfg.phase2_sweeps}"
    for C, seed, cfg in ORACLE_GRID])
def test_optimizer_matches_dense_reference(monkeypatch, C, seed, cfg):
    got = optimize_packing(C, seed=seed, config=cfg)
    stops = []
    monkeypatch.setattr(packing, "_softmin_phase", reference_softmin_phase)
    monkeypatch.setattr(packing, "_maximin_polish",
                        functools.partial(reference_maximin_polish, stops=stops))
    want = optimize_packing(C, seed=seed, config=cfg)
    assert np.array_equal(got.points, want.points)
    assert got.min_distance == want.min_distance
    assert len(stops) == cfg.starts
    if cfg is TO_MIN_STEP:
        assert stops == ["step"]


GRAM_SIZES = (3, 100, 255, 504, 511, 512, 513, 1024)


def _unit_rows(C, seed):
    pts = np.random.default_rng(seed).standard_normal((C, 3))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@pytest.mark.parametrize("C", GRAM_SIZES)
def test_padded_gram_is_the_contiguous_product(C):
    # the sizes include 100, 255 and 511, where a gemm on a transposed copy
    # differs from the rank-k update that both products take
    pts = _unit_rows(C, C)
    gram, w = packing._gram_buffer(C)
    np.matmul(pts, pts.T, out=gram)
    assert np.array_equal(gram, pts @ pts.T)
    assert w.shape == (C, C) and w.flags.c_contiguous
    assert np.shares_memory(gram, w)


@pytest.mark.parametrize("C", GRAM_SIZES)
def test_gram_rows_lie_an_odd_number_of_cache_lines_apart(C):
    gram, _ = packing._gram_buffer(C)
    row_bytes = gram.strides[0]
    assert gram.shape == (C, C) and gram.strides[1] == 8
    assert row_bytes >= 8 * C and row_bytes % 64 == 0 and (row_bytes // 64) % 2 == 1


def _row_beyond_one():
    """A unit row whose squared norm rounds above 1: with itself its dot
    product lies above 1, and with its negation below -1, until the clip."""
    pts = _unit_rows(200, 5)
    row = pts[np.argmax(np.einsum("ij,ij->i", pts, pts))]
    assert row @ row > 1.0
    return row


def _with_row(pts, i, row):
    pts = pts.copy()
    pts[i] = row
    return pts


DECISION_SETS = {
    **{f"random{C}": _unit_rows(C, C) for C in (3, 17, 100, 512)},
    "duplicate": np.vstack([_row_beyond_one(), _row_beyond_one(), _unit_rows(4, 6)]),
    "poles": exact_packing(2).points,
    "antipodal": np.vstack([_row_beyond_one(), -_row_beyond_one()]),
    "nan-row": _with_row(_unit_rows(50, 1), 7, np.nan),
}


@pytest.mark.parametrize("name", DECISION_SETS)
def test_max_dot_decides_as_the_distance_matrix(name):
    pts = DECISION_SETS[name]
    C = len(pts)
    gram, _ = packing._gram_buffer(C)
    want = float(packing._pairwise_distances(pts, gram, np.empty((C, C))).min())
    got = packing._min_distance_from_gram(gram)
    assert got.hex() == want.hex()  # bit for bit, NaN included
    expected = {"duplicate": 0.0, "poles": 2.0, "antipodal": 2.0}
    if name in expected:
        assert got == expected[name]
    if name == "nan-row":
        assert math.isnan(got) and not got > 0.0  # the polish rejects it


def test_polish_converts_only_kept_trials(monkeypatch):
    # one conversion for the start, one per kept step; a rejected trial is
    # decided from its Gram matrix alone
    start = packing._renormalize(fibonacci_points(100))
    accepted = []
    want = reference_maximin_polish(start, LIGHT, [], accepted)
    calls = {"_distances_from_gram": 0, "_min_distance_from_gram": 0}

    def counted(name):
        real = getattr(packing, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(packing, name, counted(name))
    got = packing._maximin_polish(start, LIGHT)
    assert np.array_equal(got, want)
    assert 0 < len(accepted) < calls["_min_distance_from_gram"]
    assert calls["_distances_from_gram"] == 1 + len(accepted)


def test_phase1_from_a_duplicate_pair_matches_the_reference():
    # the closest pair at 0 sets the temperature to 0, so every weight is NaN
    # and no point moves; the phase takes the masked reciprocal there
    pts = packing._renormalize(fibonacci_points(16))
    start = _with_row(pts, 3, pts[9])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = reference_softmin_phase(start, LIGHT)
        got = packing._softmin_phase(start, LIGHT)
    assert np.array_equal(got, want)
    assert np.array_equal(got, start)


def exp_census(monkeypatch, phase):
    """`phase` with np.exp wrapped while it runs, and the tally it keeps.

    The tally holds the lowest argument, the finite arguments whose exp
    underflows to 0 (below -745) or lands subnormal (-745 to -708), and the
    results that are not normal numbers (0 and subnormals).
    """
    tally = {"lowest": np.inf, "underflow": 0, "subnormal": 0, "not_normal": 0}
    real_exp = np.exp

    def exp(x, *args, **kwargs):
        x = np.asarray(x)
        finite = x[np.isfinite(x)]
        tally["lowest"] = min(tally["lowest"], float(x.min()))
        tally["underflow"] += int(np.count_nonzero(finite < -745.0))
        tally["subnormal"] += int(np.count_nonzero((finite >= -745.0) & (finite <= -708.0)))
        y = real_exp(x, *args, **kwargs)
        tally["not_normal"] += int(np.count_nonzero(np.abs(y) < np.finfo(np.float64).tiny))
        return y

    def wrapped(points, cfg):
        with monkeypatch.context() as m:
            m.setattr(np, "exp", exp)
            return phase(points, cfg)

    return wrapped, tally


def test_phase1_exp_stays_normal(monkeypatch):
    # the unclamped reference does reach numpy's slow exp (so the oracle case
    # at the same budget covers the floor), and the buffered phase never does
    buffered = packing._softmin_phase
    ref, ref_tally = exp_census(monkeypatch, reference_softmin_phase)
    monkeypatch.setattr(packing, "_softmin_phase", ref)
    optimize_packing(256, seed=0, config=PHASE1_ONLY)
    assert ref_tally["underflow"] > 0
    assert ref_tally["subnormal"] > 0

    got, tally = exp_census(monkeypatch, buffered)
    monkeypatch.setattr(packing, "_softmin_phase", got)
    optimize_packing(256, seed=0, config=PHASE1_ONLY)
    assert tally["lowest"] >= packing._EXP_FLOOR
    assert tally["not_normal"] == 0


def test_softmin_counts_all_pairs():
    # every off-diagonal weight is at least exp(_EXP_FLOOR) / C^2 > 0
    pts = fibonacci_points(9)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    gram, w = packing._gram_buffer(9)
    dmin = packing._softmin_weights(packing._pairwise_distances(pts, gram, np.empty((9, 9))), 0.05, w)
    assert np.count_nonzero(w) // 2 == 9 * 8 // 2
    assert not w.diagonal().any()
    assert math.isclose(w.sum(), 1.0)
    assert math.isclose(dmin, min_euclidean_distance_array(pts), rel_tol=1e-12)


class TestPackingSet:
    @pytest.mark.parametrize("make", [lambda: exact_packing(12).points,
                                      lambda: fibonacci_points(50)])
    def test_min_distance_is_derived(self, make):
        p = make()
        p = p / np.linalg.norm(p, axis=1)[:, None]
        assert PackingSet(p).min_distance == min_euclidean_distance_array(p)

    def test_rejects_non_unit(self):
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
        with pytest.raises(InvalidInputError):
            PackingSet(pts)

    def test_rejects_nan_point(self):
        pts = exact_packing(4).points.copy()
        pts[1] = np.nan
        with pytest.raises(InvalidInputError):
            PackingSet(pts)

    def test_rejects_duplicate(self):
        pts = exact_packing(4).points.copy()
        pts[2] = pts[0]
        with pytest.raises(InvalidInputError, match="duplicate"):
            PackingSet(pts)


    def test_caller_array_stays_writable(self):
        p = exact_packing(6).points.copy()
        packed = PackingSet(p)
        assert p.flags.writeable
        assert not packed.points.flags.writeable
        p[0] = 0.0
        assert packed.points[0].tolist() != [0.0, 0.0, 0.0]


def save_packing(path, packing_set):
    """Write a PackingSet in the text format accepted by load_packing."""
    with open(path, "w") as fh:
        fh.write(f"# {packing_set.C} points, min distance {packing_set.min_distance:.12f}\n")
        fh.write(f"{packing_set.C}\n")
        for p in packing_set.points:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")


class TestLoadPacking:
    def test_two_antipodal(self, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("0 0 1\n0 0 -1\n")
        p = load_packing(f)
        assert p.C == 2 and p.min_distance == pytest.approx(2.0)

    def test_header_and_comments(self, tmp_path):
        f = tmp_path / "hdr.txt"
        f.write_text("# a comment\n2\n0 0 1\n0 0 -1  # inline\n")
        assert load_packing(f).C == 2

    def test_header_mismatch(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3\n0 0 1\n0 0 -1\n")
        with pytest.raises(FormatError):
            load_packing(f)

    def test_duplicate_rejected(self, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("0 0 1\n0 0 1\n")
        with pytest.raises(FormatError):
            load_packing(f)

    def test_duplicate_through_cli_exits_3(self, tmp_path):
        from grassbloch.cli import main

        f = tmp_path / "dup4.txt"
        f.write_text("0 0 1\n0 0 -1\n1 0 0\n0 0 1\n")
        assert main(["construct", "--method", "s-opt", "-B", "2", "--packing-file",
                     str(f), "-o", str(tmp_path / "s.json")]) == 3

    def test_bad_norm_rejected_with_line(self, tmp_path):
        f = tmp_path / "norm.txt"
        f.write_text("0 0 1\n0 0 1.001\n")
        with pytest.raises(FormatError) as err:
            load_packing(f)
        assert err.value.line == 2

    def test_nan_rejected_with_line(self, tmp_path):
        f = tmp_path / "nan_row.txt"
        f.write_text("3\n0 0 1\nnan 0 0\n1 0 0\n")
        with pytest.raises(FormatError) as err:
            load_packing(f)
        assert err.value.line == 3

    def test_small_norm_drift_renormalized(self, tmp_path):
        f = tmp_path / "drift.txt"
        f.write_text("0 0 1.0000005\n0 0 -1\n")
        p = load_packing(f)
        assert np.allclose(np.linalg.norm(p.points, axis=1), 1.0, atol=1e-12)

    def test_non_numeric(self, tmp_path):
        f = tmp_path / "nan.txt"
        f.write_text("0 0 one\n0 0 -1\n")
        with pytest.raises(FormatError) as err:
            load_packing(f)
        assert err.value.line == 1

    def test_icosahedron_file_round_trip(self, tmp_path):
        f = tmp_path / "ico.txt"
        save_packing(f, exact_packing(12))
        p = load_packing(f)
        assert p.min_distance == pytest.approx(ICOSA, abs=1e-9)

    def test_frozen_sixteen(self):
        p = load_packing(os.path.join(DATA, "packing16.txt"))
        assert p.C == 16
        assert p.min_distance > 0.87

    @pytest.mark.parametrize("text, line, message", [
        ("2.5\n0 0 1\n0 0 -1\n", 1, "expected integer header or x y z triple"),
        ("2\n0 0 1\n0 1\n", 3, "expected 3 values, got 2"),
        ("0 0 1\n0, 0, -1, 1\n", 2, "expected 3 values, got 4"),
        # a non-number is reported before its line's wrong count
        ("0 0 1\n0 x\n", 2, "non-numeric value in ['0', 'x']"),
        ("x\n0 0 1\n", 1, "non-numeric value in ['x']"),
        # the first bad line wins, whatever its fault
        ("0 0 1\n0 0 2\n0 1\n", 2, "point norm 2.0 deviates from 1 by more than 1e-6"),
        ("0 0 1\n0 1\n0 0 y\n", 2, "expected 3 values, got 2"),
    ])
    def test_error_names_its_line(self, tmp_path, text, line, message):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        with pytest.raises(FormatError) as err:
            load_packing(f)
        assert err.value.line == line and message in str(err.value)

    def test_commas_load_as_whitespace(self, tmp_path):
        plain, commas = tmp_path / "plain.txt", tmp_path / "commas.txt"
        save_packing(plain, exact_packing(12))
        commas.write_text(plain.read_text().replace(" ", ", "))
        assert "," in commas.read_text()
        want, got = load_packing(plain).points, load_packing(commas).points
        assert want.tobytes() == got.tobytes()

    def test_whole_number_count_row(self, tmp_path):
        f = tmp_path / "count.txt"
        f.write_text("2.0\n0 0 1\n0 0 -1\n")
        assert load_packing(f).C == 2


def reference_load_packing(path):
    """The line-by-line parser `formats.load_packing` replaced, for tables
    without commas, with a line's non-number now reported before its count:
    the oracle for accepted points and bad lines."""
    rows, header = [], None
    with open(path) as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            parts = raw_line.split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) == 1 and header is None and not rows:
                try:
                    header = int(parts[0])
                    continue
                except ValueError:
                    raise FormatError("header", path=path, line=lineno) from None
            try:
                vec = [float(p) for p in parts]
            except ValueError:
                raise FormatError("non-numeric", path=path, line=lineno) from None
            if len(parts) != 3:
                raise FormatError("count", path=path, line=lineno)
            norm = math.sqrt(sum(v * v for v in vec))
            if not abs(norm - 1.0) <= 1e-6:
                raise FormatError("norm", path=path, line=lineno)
            rows.append([v / norm for v in vec])
    if header is not None and header != len(rows):
        raise FormatError("header count", path=path)
    return PackingSet(np.asarray(rows, dtype=np.float64)).points


def test_load_packing_matches_line_by_line_parser(tmp_path):
    # tables with a stray token, row or count now and then; every table the
    # old parser accepts loads to the same bits, and every one it rejects
    # fails on the same line
    rng = np.random.default_rng(7)
    words = ["x", "nan", "inf", "0", "1.5", "#c", "\t"]
    outcomes = set()
    for trial in range(300):
        pts = rng.standard_normal((int(rng.integers(0, 6)), 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= 1.0 + rng.choice([0.0, 3e-7, 1e-5], size=(len(pts), 1))
        lines = [" ".join(f"{v:.17g}" for v in p) for p in pts]
        for k in range(len(lines)):
            if rng.random() < 0.05:
                lines[k] += " " + words[rng.integers(0, len(words))]
            if rng.random() < 0.05:
                lines[k] = words[rng.integers(0, len(words))]
        if rng.random() < 0.5:
            lines.insert(0, str(len(pts) + int(rng.integers(-1, 2)) * (rng.random() < 0.2)))
        path = tmp_path / f"pk{trial}.txt"
        path.write_text("\n".join(lines))
        try:
            want = reference_load_packing(path)
        except (FormatError, InvalidInputError) as exc:
            with pytest.raises(FormatError) as got:
                load_packing(path)
            assert got.value.line == getattr(exc, "line", None)
            outcomes.add(str(exc).split(": ", 1)[-1] if getattr(exc, "line", None) else "file")
            continue
        assert load_packing(path).points.tobytes() == want.tobytes()
        outcomes.add("ok")
    assert {"ok", "file", "norm", "count", "non-numeric"} <= outcomes
