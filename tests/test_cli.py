import json
import math

import numpy as np
import pytest

from grassbloch.channel import make_detector
from grassbloch import cli, detectors
from grassbloch.cli import MAX_BITS, MAX_SNR_POINTS, _parse_snr, main
from grassbloch.errors import InvalidInputError
from grassbloch.formats import load_constellation


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def zopt_file(tmp_path):
    out = tmp_path / "z3.json"
    assert run(["construct", "--method", "z-opt", "-B", 3, "-o", out]) == 0
    return out


class TestSharedParser:
    """`main` parses every call with the one parser `build_parser` caches."""

    def run_calls(self, tmp_path, capsys):
        """Exit code, stdout, stderr and written file of each call in turn."""
        out = tmp_path / "z3.json"
        rx = tmp_path / "rx.csv"
        rx.write_text("0.5 0.1 -0.3 0.2\n1.0 0.0 0.0 1.0\n")
        calls = [
            ["construct", "--method", "z-opt", "-B", 3, "-o", out],
            ["construct", "--method", "z-opt"],
            ["--version"],
            ["simulate", "--constellation", out, "--snr", "0,10", "--trials", 50],
            ["detect", "--constellation", out, "--input", rx],
        ]
        got = []
        for args in calls:
            code = run(args)
            std = capsys.readouterr()
            got.append((code, std.out, std.err, out.read_bytes()))
        out.unlink()
        return got

    def test_matches_fresh_parser(self, tmp_path, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        shared = self.run_calls(tmp_path, capsys)
        assert [g[0] for g in shared] == [0, 2, 0, 0, 0]
        assert "usage:" in shared[1][2] and shared[2][1].strip() == cli.__version__
        # every call builds its own parser
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        assert self.run_calls(tmp_path, capsys) == shared


class TestParseSnr:
    def test_list(self):
        assert _parse_snr("0,10,20") == [0.0, 10.0, 20.0]

    def test_range(self):
        assert _parse_snr("0:20:4") == [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]

    def test_bad(self):
        with pytest.raises(InvalidInputError):
            _parse_snr("zero,one")

    @pytest.mark.parametrize("spec", ["0:inf:1", "-inf:0:1", "0:10:nan", "0:10:inf"])
    def test_non_finite_range_rejected(self, spec):
        with pytest.raises(InvalidInputError, match="finite"):
            _parse_snr(spec)

    @pytest.mark.parametrize("spec", ["0:1e9:1e-9", "0:1e300:1e-300", "0:10000:1"])
    def test_oversized_range_rejected(self, spec):
        with pytest.raises(InvalidInputError, match=str(MAX_SNR_POINTS)):
            _parse_snr(spec)

    def test_largest_range_accepted(self):
        assert len(_parse_snr(f"0:{MAX_SNR_POINTS - 1}:1")) == MAX_SNR_POINTS

    def test_range_exit_code(self, zopt_file):
        assert run(["simulate", "--constellation", zopt_file, "--snr", "0:inf:1",
                    "--trials", 10]) == 2


class TestConstruct:
    def test_zopt_b3_report(self, tmp_path, zopt_file):
        data = json.loads(zopt_file.read_text())
        assert len(data["codewords"]) == 8
        report = json.loads((tmp_path / "z3.json.report.json").read_text())
        assert report["d_min"] == pytest.approx(
            math.sqrt((4.0 - math.sqrt(2.0)) / 7.0), abs=1e-9
        )
        assert report["n_v"] == 1

    def test_sopt_b2_exact(self, tmp_path):
        out = tmp_path / "s2.json"
        assert run(["construct", "--method", "s-opt", "-B", 2, "-o", out]) == 0
        report = json.loads((tmp_path / "s2.json.report.json").read_text())
        assert report["d_min"] == pytest.approx(math.sqrt(6.0) / 3.0, abs=1e-9)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_grass_lattice_b2(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["construct", "--method", "grass-lattice", "-B", 2, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert len(data["codewords"]) == 4
        norms = [r0 * r0 + i0 * i0 + r1 * r1 + i1 * i1
                 for r0, i0, r1, i1 in data["codewords"]]
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_grass_lattice_odd_bits_usage_error(self, tmp_path):
        assert run(["construct", "--method", "grass-lattice", "-B", 3,
                    "-o", tmp_path / "x.json"]) == 2

    def test_sopt_with_packing_file(self, tmp_path):
        pk = tmp_path / "pk.txt"
        pk.write_text("0 0 1\n0 0 -1\n")
        out = tmp_path / "s.json"
        assert run(["construct", "--method", "s-opt", "-B", 1,
                    "--packing-file", pk, "-o", out]) == 0
        rep = json.loads((tmp_path / "s.json.report.json").read_text())
        assert rep["d_min"] == pytest.approx(1.0, abs=1e-12)

    def test_packing_count_mismatch(self, tmp_path):
        pk = tmp_path / "pk.txt"
        pk.write_text("0 0 1\n0 0 -1\n")
        assert run(["construct", "--method", "s-opt", "-B", 2,
                    "--packing-file", pk, "-o", tmp_path / "s.json"]) == 2

    def test_packing_file_with_nan_row(self, tmp_path):
        pk = tmp_path / "pk.txt"
        pk.write_text("4\n0 0 1\nnan 0 0\n1 0 0\n0 1 0\n")
        assert run(["construct", "--method", "s-opt", "-B", 2,
                    "--packing-file", pk, "-o", tmp_path / "s.json"]) == 3

    def test_optimizer_flags(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["construct", "--method", "man-opt", "-B", 4, "-o", out,
                    "--starts", 1, "--phase1-iters", 60, "--phase2-sweeps", 80]) == 0
        report = json.loads((tmp_path / "m.json.report.json").read_text())
        assert report["C"] == 16 and report["d_min"] > 0.3

    @pytest.mark.parametrize("flag, value", [
        ("--starts", -3), ("--starts", 0), ("--phase1-iters", -5), ("--phase2-sweeps", -1),
    ])
    def test_invalid_optimizer_budget_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "s.json"
        assert run(["construct", "--method", "s-opt", "-B", 5, flag, value, "-o", out]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, B", [
        ("exp-map", 101), ("s-opt", 101), ("man-opt", 101), ("exp-map", 2000),
    ])
    def test_bits_beyond_limit_usage_error(self, tmp_path, capsys, method, B):
        out = tmp_path / "x.json"
        assert run(["construct", "--method", method, "-B", B, "-o", out]) == 2
        assert f"1..{MAX_BITS}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_exit_4(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "exp_map_constellation", exhausted)
        out = tmp_path / "x.json"
        assert run(["construct", "--method", "exp-map", "-B", 4, "-o", out]) == 4
        assert "error: out of memory" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def test_table(self, tmp_path, zopt_file):
        out = tmp_path / "eval.csv"
        assert run(["evaluate", zopt_file, "--output", out]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "method,B,C,d_min,fejes_toth_bound,ratio"
        cells = lines[1].split(",")
        assert cells[0] == "z-opt" and cells[2] == "8"
        assert float(cells[5]) <= 1.0 + 1e-9

    def test_icosahedron_ratio_is_one(self, tmp_path):
        # a 12-line constellation attains the bound exactly
        from grassbloch.builders import build_s_opt
        from grassbloch.formats import save_constellation
        from grassbloch.packing import exact_packing
        path = tmp_path / "s12.json"
        save_constellation(path, build_s_opt(exact_packing(12)))
        out = tmp_path / "eval12.csv"
        assert run(["evaluate", path, "-o", out]) == 0
        row = [l for l in out.read_text().splitlines()
               if l and not l.startswith("#")][1].split(",")
        assert row[2] == "12"
        assert abs(float(row[5]) - 1.0) <= 1e-6

    def test_bound_blank_for_two_points(self, tmp_path):
        from grassbloch.builders import build_s_opt
        from grassbloch.formats import save_constellation
        from grassbloch.packing import exact_packing
        path = tmp_path / "s2.json"
        save_constellation(path, build_s_opt(exact_packing(2)))
        out = tmp_path / "eval2.csv"
        assert run(["evaluate", path, "-o", out]) == 0
        text = out.read_text()
        row = [l for l in text.splitlines() if l and not l.startswith("#")][1]
        assert row.split(",")[4] == ""
        assert "exact value is 1" in text

    def test_missing_file(self, tmp_path):
        assert run(["evaluate", tmp_path / "none.json"]) == 3

    def test_nan_codeword_format_error(self, tmp_path, zopt_file, capsys):
        text = zopt_file.read_text()
        data = json.loads(text)
        data["codewords"][3][2] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))  # writes the bare NaN literal
        assert "NaN" in path.read_text()
        assert run(["evaluate", path]) == 3
        assert "non-finite" in capsys.readouterr().err


class TestBound:
    def test_csv_monotone(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bound", "--c-min", 3, "--c-max", 40, "-o", out]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        vals = [float(r[1]) for r in rows]
        assert len(vals) == 38
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_c2_rejected(self):
        assert run(["bound", "--c-min", 2, "--c-max", 5]) == 2


class TestSimulate:
    def test_csv_output(self, tmp_path, zopt_file):
        out = tmp_path / "ser.csv"
        code = run(["simulate", "--constellation", zopt_file, "--detector", "zopt",
                    "--snr", "0,10", "--trials", 2000, "--seed", 5, "-o", out])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 3

    def test_matched_seeds_equivalence(self, tmp_path, zopt_file):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for det, out in (("glrt", out_a), ("sopt", out_b)):
            assert run(["simulate", "--constellation", zopt_file, "--detector", det,
                        "--snr", "0,6", "--trials", 5000, "--seed", 11, "-o", out]) == 0

        def ser_column(path):
            rows = [l.split(",") for l in path.read_text().splitlines()
                    if l and not l.startswith("#")][1:]
            return [r[3] for r in rows]

        assert ser_column(out_a) == ser_column(out_b)

    def test_zero_trials_usage_error(self, zopt_file):
        assert run(["simulate", "--constellation", zopt_file, "--snr", "0",
                    "--trials", 0]) == 2

    @pytest.mark.parametrize("snr", ["nan", "-inf", "0,nan", "-4000"])
    def test_snr_without_noise_variance(self, zopt_file, capsys, snr):
        assert run(["simulate", "--constellation", zopt_file, f"--snr={snr}",
                    "--trials", 10]) == 2
        err = capsys.readouterr().err
        assert f"SNR {float(snr.split(',')[-1])!r} dB gives no finite noise variance" in err

    def test_infinite_snr_is_noiseless(self, tmp_path, zopt_file):
        out = tmp_path / "ser.csv"
        assert run(["simulate", "--constellation", zopt_file, "--snr", "inf",
                    "--trials", 500, "-o", out]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert float(rows[1][3]) == 0.0

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_malformed_thread_count_usage_error(self, zopt_file, capsys, monkeypatch,
                                                command):
        monkeypatch.setenv("GRASSBLOCH_THREADS", "two")
        assert run([command, "--constellation", zopt_file, "--snr", "0",
                    "--trials", 10]) == 2
        assert "GRASSBLOCH_THREADS must be an integer >= 1" in capsys.readouterr().err

    def test_json_metadata(self, tmp_path, zopt_file):
        out = tmp_path / "ser.csv"
        meta = tmp_path / "ser.json"
        assert run(["simulate", "--constellation", zopt_file, "--snr", "0",
                    "--trials", 100, "-o", out, "--json", meta]) == 0
        data = json.loads(meta.read_text())
        assert data["trials"] == 100 and "config_hash" in data


class TestBench:
    def test_glrt_mean_evals(self, tmp_path):
        out6 = tmp_path / "z6.json"
        assert run(["construct", "--method", "z-opt", "-B", 6, "-o", out6]) == 0
        rep = tmp_path / "bench.csv"
        assert run(["bench", "--constellation", out6, "--detectors", "glrt,sopt,zopt",
                    "--trials", 2000, "-o", rep]) == 0
        rows = [l.split(",") for l in rep.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        glrt = next(r for r in rows if r[0] == "glrt")
        assert float(glrt[3]) == 64.0
        for r in rows:
            assert int(r[6]) == 0  # no detector disagrees with the reference


    @pytest.mark.parametrize("snr", ["nan", "-inf", "-4000"])
    def test_snr_without_noise_variance(self, zopt_file, capsys, snr):
        assert run(["bench", "--constellation", zopt_file, f"--snr={snr}",
                    "--trials", 10]) == 2
        assert "gives no finite noise variance" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -1])
    def test_antenna_count_usage_error(self, zopt_file, capsys, n):
        assert run(["bench", "--constellation", zopt_file, "--trials", 10, "-N", n]) == 2
        assert "need at least one receive antenna" in capsys.readouterr().err


class TestDetect:
    def test_round_trip(self, tmp_path, zopt_file):
        data = json.loads(zopt_file.read_text())
        rows = []
        for r0, i0, r1, i1 in data["codewords"][:4]:
            # noiseless single-antenna observation of each codeword
            h = 0.3 - 1.1j
            y0 = math.sqrt(2) * complex(r0, i0) * h
            y1 = math.sqrt(2) * complex(r1, i1) * h
            rows.append(f"{y0.real} {y0.imag} {y1.real} {y1.imag}")
        rx = tmp_path / "rx.csv"
        rx.write_text("\n".join(rows) + "\n")
        out = tmp_path / "det.csv"
        assert run(["detect", "--constellation", zopt_file, "--detector", "zopt",
                    "--input", rx, "-o", out]) == 0
        got = [l.split(",") for l in out.read_text().splitlines()
               if l and not l.startswith("#")][1:]
        assert [int(r[1]) for r in got] == [0, 1, 2, 3]
        assert all(int(r[2]) <= 4 for r in got)

    def test_two_antenna_rows(self, tmp_path, zopt_file):
        data = json.loads(zopt_file.read_text())
        r0, i0, r1, i1 = data["codewords"][2]
        x = np.array([complex(r0, i0), complex(r1, i1)])
        Y = math.sqrt(2.0) * np.outer(x, [1.0 - 0.4j, 0.7j])
        vals = []
        for n in range(2):
            for row in range(2):
                vals += [Y[row, n].real, Y[row, n].imag]
        rx = tmp_path / "rx2.csv"
        rx.write_text(" ".join(f"{v:.17g}" for v in vals) + "\n")
        out = tmp_path / "det2.csv"
        for det in ("glrt", "sopt", "zopt"):
            assert run(["detect", "--constellation", zopt_file, "--detector", det,
                        "--input", rx, "-o", out]) == 0
            row = [l for l in out.read_text().splitlines()
                   if l and not l.startswith("#")][1]
            assert int(row.split(",")[1]) == 2

    def test_bad_row_format_error(self, tmp_path, zopt_file):
        rx = tmp_path / "rx.csv"
        rx.write_text("1 2 3\n")
        assert run(["detect", "--constellation", zopt_file, "--input", rx]) == 3

    def test_non_finite_row_format_error(self, tmp_path, zopt_file, capsys):
        for bad in ("nan", "inf", "-inf"):
            rx = tmp_path / "rx.csv"
            rx.write_text(f"1 0 0 0\n# comment\n1 {bad} 0 0\n")
            for det in ("glrt", "sopt", "zopt"):
                assert run(["detect", "--constellation", zopt_file, "--detector", det,
                            "--input", rx]) == 3
                assert ":3" in capsys.readouterr().err

    def test_mixed_antenna_counts_format_error(self, tmp_path, zopt_file, capsys):
        rx = tmp_path / "rx.csv"
        rx.write_text("1 0 0 0\n\n1 0 0 0 0 1 0 0\n")
        assert run(["detect", "--constellation", zopt_file, "--input", rx]) == 3
        assert ":3" in capsys.readouterr().err

    def test_empty_input_header_only(self, tmp_path, zopt_file):
        rx = tmp_path / "rx.csv"
        rx.write_text("# no blocks\n\n")
        out = tmp_path / "det.csv"
        assert run(["detect", "--constellation", zopt_file, "--input", rx,
                    "-o", out]) == 0
        body = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert body == ["trial,index,distance_evals,comparisons"]

    def test_zero_row_numerical_failure(self, tmp_path, zopt_file):
        rx = tmp_path / "rx.csv"
        rx.write_text("1 0 0 0\n0 0 0 0\n")
        for det in ("glrt", "sopt", "zopt"):
            assert run(["detect", "--constellation", zopt_file, "--detector", det,
                        "--input", rx]) == 4

    def test_rows_beyond_one_chunk_match_per_row(self, tmp_path):
        x = tmp_path / "z12.json"
        assert run(["construct", "--method", "z-opt", "-B", 12, "-o", x]) == 0
        target = load_constellation(x)
        rows, N = 1100, 2
        assert rows * len(target) > detectors._GLRT_BLOCK_ENTRIES
        rng = np.random.default_rng(12)
        vals = rng.standard_normal((rows, 4 * N))
        rx = tmp_path / "rx.csv"
        rx.write_text("\n".join(",".join(f"{v:.17g}" for v in r) for r in vals) + "\n")
        flat = vals.reshape(rows, N, 2, 2)
        Ys = (flat[..., 0] + 1j * flat[..., 1]).transpose(0, 2, 1)
        out = tmp_path / "det.csv"
        for tag in ("glrt", "sopt", "zopt"):
            assert run(["detect", "--constellation", x, "--detector", tag,
                        "--input", rx, "-o", out]) == 0
            body = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
            got = [[int(v) for v in l.split(",")] for l in body[1:]]
            det = make_detector(tag, target)
            want = [[t, r.index, r.distance_evals, r.comparisons]
                    for t, r in enumerate(det.detect(Y) for Y in Ys)]
            assert got == want

    def test_zopt_detector_needs_structure(self, tmp_path):
        out = tmp_path / "s2.json"
        assert run(["construct", "--method", "s-opt", "-B", 2, "-o", out]) == 0
        rx = tmp_path / "rx.csv"
        rx.write_text("1 0 0 0\n")
        assert run(["detect", "--constellation", out, "--detector", "zopt",
                    "--input", rx]) == 2


class TestLayerAnglesMustMatchCodewords:
    # angles shifted but still increasing: before the loader rebuilt the
    # codewords from them, zopt silently disagreed with glrt on such a file
    @pytest.fixture()
    def shifted_file(self, tmp_path):
        good = tmp_path / "z6.json"
        assert run(["construct", "--method", "z-opt", "-B", 6, "-o", good]) == 0
        data = json.loads(good.read_text())
        data["zopt"]["theta"] = [t + 0.07 for t in data["zopt"]["theta"]]
        bad = tmp_path / "z6_shifted.json"
        bad.write_text(json.dumps(data))
        return bad

    @pytest.mark.parametrize("argv", [
        ["detect", "--detector", "zopt", "--input", "RX"],
        ["simulate", "--detector", "zopt", "--snr", "10", "--trials", 500],
        ["bench", "--detectors", "glrt,zopt", "--trials", 2000, "-N", 2],
    ])
    def test_exit_3(self, tmp_path, shifted_file, capsys, argv):
        rx = tmp_path / "rx.csv"
        rx.write_text("1 0 0.3 0.1\n")
        argv = [rx if a == "RX" else a for a in argv]
        assert run(argv[:1] + ["--constellation", shifted_file] + argv[1:]) == 3
        assert "differ" in capsys.readouterr().err


def test_explicit_report_path(tmp_path):
    out = tmp_path / "c.json"
    rep = tmp_path / "custom_report.json"
    assert run(["construct", "--method", "cube-split", "-B", 2, "-o", out,
                "--report", rep]) == 0
    data = json.loads(rep.read_text())
    assert data["C"] == 4 and "config_hash" in data


def test_version_flag():
    assert run(["--version"]) == 0


def test_usage_error_exit_code():
    assert run(["construct", "--method", "nope", "-B", 2, "-o", "x.json"]) == 2
