import hashlib
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
from collections import OrderedDict

import numpy as np
import pytest

from grassbloch.channel import DETECTOR_TAGS, make_detector
from grassbloch import builders, cli, detectors, formats
from grassbloch.cli import MAX_BITS, MAX_SNR_POINTS, _parse_snr, main
from grassbloch.errors import FormatError, InvalidInputError
from grassbloch.formats import FORMAT_VERSION, config_hash, load_constellation


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


def text_mode_load(path):
    """The --constellation loader as it read files before the memo: text
    mode, then JSON, then the payload checks. The reference for errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}", path=path) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}", path=path) from exc
    return formats.constellation_from_dict(data, path=path)


def run_child(code, args=()):
    """The finished process of `python -c code *args` in a new interpreter
    that imports this checkout's grassbloch."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def fresh_process(args):
    """(exit code, stdout, stderr) of `main(args)` in a new interpreter."""
    proc = run_child("import sys; from grassbloch.cli import main; "
                     "sys.exit(main(sys.argv[1:]))", args)
    return proc.returncode, proc.stdout, proc.stderr


class TestColdImport:
    """A new process loads only the modules the command it runs needs."""

    #: modules only some commands run
    LAZY = ("packing", "builders", "channel", "detectors", "kdtree", "rng")

    def loaded(self, code, args=()):
        proc = run_child(code + "; import sys; print(' '.join(m for m in "
                         f"{self.LAZY!r} if 'grassbloch.' + m in sys.modules))", args)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    def test_importing_cli(self):
        assert self.loaded("from grassbloch import cli") == []

    def test_importing_package(self):
        assert self.loaded("import grassbloch") == []

    def test_package_names(self):
        # the names the package exported when it imported every module at once
        import grassbloch

        assert grassbloch.__all__ == [
            "CandidateDistances", "Constellation", "DetectionResult", "GlrtDetector",
            "PackingConfig", "PackingSet", "SerCurve", "SoptDetector", "ZOptConstellation",
            "ZOptStructure", "ZoptDetector", "bench_detectors", "build_cube_split",
            "build_exp_map", "build_grass_lattice", "build_man_opt", "build_s_opt",
            "build_z_opt", "builders", "candidate_distances", "channel", "detectors",
            "errors", "exact_packing", "exp_map_constellation", "fejes_toth_bound",
            "formats", "geometry", "kdtree", "load_packing", "optimize_packing",
            "optimize_zopt", "packing", "rng", "run_ser", "zopt", "zopt_structure"]
        star = {}
        exec("from grassbloch import *", star)
        assert set(grassbloch.__all__) <= set(star)
        assert star["run_ser"] is grassbloch.channel.run_ser
        assert star["kdtree"] is importlib.import_module("grassbloch.kdtree")
        with pytest.raises(AttributeError):
            grassbloch.no_such_name

    @pytest.mark.parametrize("method, loads", [("z-opt", []), ("cube-split", ["builders"])])
    def test_construct(self, tmp_path, method, loads):
        code = ("import sys; from grassbloch.cli import main; "
                "assert main(sys.argv[1:]) == 0")
        args = ["construct", "--method", method, "-B", 4, "-o", tmp_path / "x.json"]
        assert self.loaded(code, args) == loads


class TestConstellationMemo:
    """`main` keeps what it parsed of the files it read, keyed by the parser
    and the SHA-256 of the file's bytes: the --constellation file (and so its
    detectors), detect's --input and evaluate's files, and the constellation
    construct wrote, under the digest of the bytes it wrote."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(cli, "_parsed", OrderedDict())

    @pytest.fixture()
    def parses(self, monkeypatch):
        """The number of parses of each kind: {"constellation": n, "blocks": n}."""
        count = {"constellation": 0, "blocks": 0}

        def counted(kind, parse):
            def wrapper(*args, **kwargs):
                count[kind] += 1
                return parse(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "constellation_from_bytes",
                            counted("constellation", formats.constellation_from_bytes))
        monkeypatch.setattr(cli, "blocks_from_bytes",
                            counted("blocks", formats.blocks_from_bytes))
        return count

    @pytest.fixture()
    def files(self, tmp_path, parses):
        # after `parses`, so that construct keeps z4.json under the counted parser
        z = tmp_path / "z4.json"
        assert run(["construct", "--method", "z-opt", "-B", 4, "-o", z]) == 0
        rx = tmp_path / "rx.csv"
        rx.write_text("0.5 0.1 -0.3 0.2 1 0 0 1\n1.0 0.0 0.0 1.0 0.2 0.1 0.7 -0.4\n")
        return z, rx

    @staticmethod
    def kept(parse):
        """What the memo holds from `parse`, oldest first."""
        return [value for (p, _), (value, _) in cli._parsed.items() if p is parse]

    def commands(self, z, rx, out):
        return [
            ["simulate", "--constellation", z, "--detector", "sopt", "--snr", "0,10",
             "--trials", 300, "-N", 2, "-o", out],
            ["bench", "--constellation", z, "--detectors", "glrt,sopt,zopt",
             "--trials", 300, "-o", out],
            *(["detect", "--constellation", z, "--detector", d, "--input", rx, "-o", out]
              for d in DETECTOR_TAGS),
        ]

    def test_repeats_write_the_first_calls_bytes(self, files, tmp_path, parses):
        z, rx = files
        out = tmp_path / "out.csv"
        for args in self.commands(z, rx, out):
            got = []
            for _ in range(3):
                assert run(args) == 0
                got.append(out.read_bytes())
            assert got[1] == got[0] and got[2] == got[0]
            assert fresh_process(args)[0] == 0
            assert out.read_bytes() == got[0]
        # construct kept what it wrote, and the three detect calls share one parse
        assert parses == {"constellation": 0, "blocks": 1}
        [x] = self.kept(cli.constellation_from_bytes)
        assert all(make_detector(d, x) is make_detector(d, x) for d in DETECTOR_TAGS)

    def test_three_detectors_parse_the_input_once(self, files, tmp_path, parses):
        z, rx = files
        for d in DETECTOR_TAGS:
            out = tmp_path / f"det-{d}.csv"
            args = ["detect", "--constellation", z, "--detector", d, "--input", rx, "-o", out]
            assert run(args) == 0
            kept = out.read_bytes()
            assert fresh_process(args)[0] == 0
            assert out.read_bytes() == kept
        assert parses == {"constellation": 0, "blocks": 1}

    def test_same_length_rewrite_reparses(self, files, tmp_path, capsys, parses):
        z, rx = files
        out = tmp_path / "out.csv"
        args = ["detect", "--constellation", z, "--detector", "sopt", "--input", rx, "-o", out]
        assert run(args) == 0
        first = out.read_bytes()
        good = z.read_bytes()
        stat = z.stat()
        digit = good.index(b"[[0.9") + 4
        bad = good[:digit] + b"8" + good[digit + 1:]
        assert len(bad) == len(good)
        # the same size and mtime: only the bytes tell the files apart
        z.write_bytes(bad)
        os.utime(z, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        capsys.readouterr()
        assert run(args) == 3
        assert "codeword 0 differs by 0.1 from the one the zopt layer angles" in \
            capsys.readouterr().err
        assert parses["constellation"] == 1
        z.write_bytes(good)
        assert run(args) == 0
        assert out.read_bytes() == first
        assert parses["constellation"] == 1  # the failed load kept nothing

    def test_same_length_input_rewrite_reparses(self, files, tmp_path, parses):
        z, rx = files
        out = tmp_path / "out.csv"
        args = ["detect", "--constellation", z, "--detector", "glrt", "--input", rx, "-o", out]
        assert run(args) == 0
        first = out.read_bytes()
        good = rx.read_bytes()
        stat = rx.stat()
        # the first block's second column goes from (1, 0) to (0, 1): codeword
        # 13, not 9; the same size and mtime, so only the bytes tell them apart
        rewritten = good.replace(b"1 0 0 1", b"0 0 1 0")
        assert len(rewritten) == len(good) and rewritten != good
        rx.write_bytes(rewritten)
        os.utime(rx, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert run(args) == 0
        second = out.read_bytes()
        assert parses["blocks"] == 2
        assert fresh_process(args)[0] == 0
        assert out.read_bytes() == second != first
        rx.write_bytes(good)
        assert run(args) == 0
        assert out.read_bytes() == first
        assert parses["blocks"] == 2

    def test_bad_file_fails_every_call(self, files, tmp_path, capsys):
        z, rx = files
        run(["detect", "--constellation", z, "--input", rx])
        kept = list(cli._parsed.items())
        bad = tmp_path / "bad.json"
        bad.write_text('{"method": "z-opt", "B": 4, "codewords": [[1, 0, 0]]}')
        capsys.readouterr()
        errs = []
        for _ in range(3):
            assert run(["detect", "--constellation", bad, "--input", rx]) == 3
            errs.append(capsys.readouterr().err)
        assert errs == [errs[0]] * 3 and "bad codeword data" in errs[0]
        assert list(cli._parsed.items()) == kept

    def test_bad_input_fails_every_call(self, files, tmp_path, capsys, parses):
        z, rx = files
        kept = list(cli._parsed.items())
        bad = tmp_path / "bad.csv"
        bad.write_text("1 0 0 1\n1 nan 0 1\n")
        capsys.readouterr()
        errs = []
        for _ in range(3):
            assert run(["detect", "--constellation", z, "--input", bad]) == 3
            errs.append(capsys.readouterr().err)
        assert errs == [errs[0]] * 3 and "non-finite value" in errs[0]
        assert parses["blocks"] == 3
        assert list(cli._parsed.items()) == kept

    @pytest.mark.parametrize("content", [
        None,  # no file
        b'{"method": "z-opt", "B": \xff}',
        b'{\r\n"method": "z-opt",\r\n"B": 4,\r\n}',
        b'\xef\xbb\xbf{"method": "z-opt"}',
        b'{"method": "z-opt",\r"B": 4 "T": 2}',
    ], ids=["missing", "not-utf8", "crlf-json-error", "bom", "cr-json-error"])
    def test_read_errors_keep_their_messages(self, files, tmp_path, capsys, content):
        _, rx = files
        kept = list(cli._parsed.items())
        path = tmp_path / "c.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises((FormatError, OSError)) as exc:
            text_mode_load(str(path))
        capsys.readouterr()
        for _ in range(2):
            assert run(["detect", "--constellation", path, "--input", rx]) == 3
            assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert list(cli._parsed.items()) == kept

    def test_kept_arrays_are_read_only(self, files):
        z, rx = files
        assert run(["detect", "--constellation", z, "--detector", "zopt", "--input", rx]) == 0
        [blocks] = self.kept(cli.blocks_from_bytes)
        assert np.array_equal(blocks, formats.read_blocks(rx))
        [x] = self.kept(cli.constellation_from_bytes)
        for a in (blocks, x.array, x.bloch, x.theta):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 0.0

    def test_construct_then_evaluate_parses_nothing(self, tmp_path, parses):
        paths = []
        for method, B in (("z-opt", 6), ("cube-split", 6), ("exp-map", 4)):
            paths.append(tmp_path / f"{method}.json")
            assert run(["construct", "--method", method, "-B", B, "-o", paths[-1]]) == 0
        out = tmp_path / "evaluate.csv"
        args = ["evaluate", *paths, "-o", out]
        assert run(args) == 0
        assert parses["constellation"] == 0
        kept = out.read_bytes()
        assert fresh_process(args)[0] == 0
        assert out.read_bytes() == kept

    def test_evaluate_keeps_what_it_parsed(self, tmp_path, parses):
        z = tmp_path / "z5.json"
        assert fresh_process(["construct", "--method", "z-opt", "-B", 5, "-o", z])[0] == 0
        rx = tmp_path / "rx.csv"
        rx.write_text("0.5 0.1 -0.3 0.2\n")
        for _ in range(2):
            assert run(["evaluate", z]) == 0
        assert run(["detect", "--constellation", z, "--input", rx]) == 0
        assert parses["constellation"] == 1
        # a construct keeps one entry more, under the digest of what it wrote
        entries = len(cli._parsed)
        z3 = tmp_path / "z3.json"
        assert run(["construct", "--method", "z-opt", "-B", 3, "-o", z3]) == 0
        assert len(cli._parsed) == entries + 1
        digest = hashlib.sha256(z3.read_bytes()).digest()
        assert list(cli._parsed)[-1] == (cli.constellation_from_bytes, digest)

    def test_budget_drops_the_oldest_and_keeps_the_newest(self, tmp_path, monkeypatch,
                                                           parses):
        def rx(name, rows):
            path = tmp_path / name
            path.write_text(f"{name[0]}.5 0 0 1\n" * rows)
            return path

        # one N = 1 block is 2 complex entries, 32 bytes
        a, b, c = rx("1.csv", 2), rx("2.csv", 3), rx("3.csv", 4)
        monkeypatch.setattr(cli, "MEMO_BYTES", 32 * 7)
        load = lambda path: cli._load(path, cli.blocks_from_bytes)  # noqa: E731
        for path in (a, b, a, c):
            load(path)
        # b, the least recently used, made room for c; a and c fit in 7 blocks
        assert [len(v) for v in self.kept(cli.blocks_from_bytes)] == [2, 4]
        assert parses["blocks"] == 3
        big = rx("4.csv", 8)
        assert len(load(big)) == 8
        # past the budget on its own, the newest stays and every other entry goes
        assert [len(v) for v in self.kept(cli.blocks_from_bytes)] == [8]
        assert load(big) is load(big) and parses["blocks"] == 4


class TestConstructKeepsWhatItWrote:
    """The constellation construct keeps is the one its file parses as."""

    #: a small optimizer budget for man-opt
    EXTRA = {"man-opt": ["--starts", 1, "--phase1-iters", 10, "--phase2-sweeps", 10]}

    @pytest.mark.parametrize("method, B", [
        *(("z-opt", B) for B in range(1, 9)),
        *(("s-opt", B) for B in (1, 2, 3, 5)),
        ("man-opt", 3),
        *(("exp-map", B) for B in (1, 3, 4, 6)),
        *(("cube-split", B) for B in (1, 3, 6)),
        *(("grass-lattice", B) for B in (2, 4)),
    ])
    def test_matches_the_parsed_file(self, tmp_path, monkeypatch, method, B):
        monkeypatch.setattr(cli, "_parsed", OrderedDict())
        out = tmp_path / "x.json"
        extra = self.EXTRA.get(method, [])
        assert run(["construct", "--method", method, "-B", B, *extra, "-o", out]) == 0
        data = out.read_bytes()
        [(key, (built, _))] = cli._parsed.items()
        assert key == (cli.constellation_from_bytes, hashlib.sha256(data).digest())
        parsed = formats.constellation_from_bytes(data)
        assert type(built) is type(parsed)
        assert (built.method, built.B, type(built.B)) == \
            (parsed.method, parsed.B, type(parsed.B))
        assert built.array.tobytes() == parsed.array.tobytes()
        assert built.min_chordal_distance == parsed.min_chordal_distance
        if method == "z-opt":
            assert built.structure == parsed.structure
            assert built.theta.tobytes() == parsed.theta.tobytes()


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

    @pytest.mark.parametrize("B, n_v, candidates", [
        (1, 1, 1), (2, 1, 2), (3, 1, 2), (4, 2, 4), (5, 2, 7), (6, 4, 8), (7, 5, 11),
        (8, 8, 16), (12, 32, 64),
    ])
    def test_zopt_report_counts(self, tmp_path, B, n_v, candidates):
        # 2 n_v candidate distances, +3 at B = 5 (halved caps and an equator
        # layer), +1 at B = 7 (doubled caps); one in-layer distance at B = 1
        out = tmp_path / "z.json"
        assert run(["construct", "--method", "z-opt", "-B", B, "-o", out]) == 0
        report = json.loads((tmp_path / "z.json.report.json").read_text())
        assert (report["n_v"], report["candidate_set_size"]) == (n_v, candidates)

    def test_sopt_report_has_no_layer_counts(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["construct", "--method", "s-opt", "-B", 2, "-o", out]) == 0
        report = json.loads((tmp_path / "s.json.report.json").read_text())
        assert report["n_v"] is None and report["candidate_set_size"] is None

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

        monkeypatch.setattr(builders, "exp_map_constellation", exhausted)
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

    @pytest.mark.parametrize("snr", [",", "10:0:1"])
    def test_empty_snr_list_usage_error(self, zopt_file, capsys, snr):
        assert run(["simulate", "--constellation", zopt_file, f"--snr={snr}",
                    "--trials", 10]) == 2
        assert "empty SNR list" in capsys.readouterr().err

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

    def test_no_detector_usage_error(self, zopt_file, capsys):
        assert run(["bench", "--constellation", zopt_file, "--detectors", " , ",
                    "--trials", 10]) == 2
        assert "need at least one detector" in capsys.readouterr().err


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


class TestUndecodableFiles:
    """A file that is not UTF-8 text is a format error (exit 3) naming it."""

    @pytest.fixture()
    def utf16(self, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe1 0 0 1\n")
        return path

    def _exits_3(self, argv, path, capsys):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_detect_input(self, zopt_file, utf16, capsys):
        self._exits_3(["detect", "--constellation", zopt_file, "--input", utf16],
                      utf16, capsys)

    @pytest.mark.parametrize("argv", [
        ["evaluate", "FILE"],
        ["simulate", "--constellation", "FILE", "--snr", "10", "--trials", 10],
    ])
    def test_constellation(self, utf16, capsys, argv):
        self._exits_3([utf16 if a == "FILE" else a for a in argv], utf16, capsys)

    def test_packing_file(self, tmp_path, utf16, capsys):
        self._exits_3(["construct", "--method", "s-opt", "-B", 2, "--packing-file", utf16,
                       "-o", tmp_path / "s.json"], utf16, capsys)


def test_constellation_file_with_pole_twins_exit_3(tmp_path, capsys):
    # (0, 1) and (0, i) are one point of G(2,1)
    s = math.sqrt(0.5)
    rows = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [s, 0, s, 0]]
    path = tmp_path / "twins.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "method": "external",
                                "B": 2, "codewords": rows}))
    assert run(["evaluate", path]) == 3
    assert "duplicate codewords" in capsys.readouterr().err


def _hash_of(path):
    """The config_hash a JSON file or a CSV preamble records."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["config_hash"]
    return next(l.split("=", 1)[1] for l in text.splitlines()
                if l.startswith("# config_hash="))


class TestConfigHash:
    """Every file a command writes records one hash: of the command and
    every argument but the output destinations."""

    # command: (argv without outputs, {output flag: file name}); "Z" and "RX"
    # stand for the input files
    COMMANDS = {
        "construct": (["construct", "--method", "z-opt", "-B", 3],
                      {"-o": "z.json", "--report": "z.report.json"}),
        "evaluate": (["evaluate", "Z"], {"-o": "e.csv"}),
        "bound": (["bound", "--c-min", 3, "--c-max", 4], {"-o": "b.csv"}),
        "simulate": (["simulate", "--constellation", "Z", "--snr", "0,10", "--trials", 50],
                     {"-o": "s.csv", "--json": "s.json"}),
        "bench": (["bench", "--constellation", "Z", "--trials", 50], {"-o": "bench.csv"}),
        "detect": (["detect", "--constellation", "Z", "--input", "RX"], {"-o": "d.csv"}),
    }

    @pytest.fixture()
    def inputs(self, tmp_path, zopt_file):
        rx = tmp_path / "rx.csv"
        rx.write_text("0.5 0.1 -0.3 0.2\n1.0 0.0 0.0 1.0\n")
        pk = tmp_path / "pk.txt"
        pk.write_text("0 0 1\n0 0 -1\n")
        return {"Z": zopt_file, "RX": rx, "PK": pk}

    def write(self, argv, outputs, inputs, out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [inputs.get(a, a) for a in argv]
        for flag, name in outputs.items():
            argv += [flag, out_dir / name]
        assert run(argv) == 0
        return {name: out_dir / name for name in outputs.values()}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_output_paths_leave_bytes_unchanged(self, tmp_path, inputs, command):
        argv, outputs = self.COMMANDS[command]
        a = self.write(argv, outputs, inputs, tmp_path / "a")
        b = self.write(argv, outputs, inputs, tmp_path / "b" / "deeper")
        for name in outputs.values():
            assert a[name].read_bytes() == b[name].read_bytes(), name
        assert len({_hash_of(p) for p in a.values()}) == 1

    def test_construct_file_and_report_share_hash(self, tmp_path):
        out = tmp_path / "z.json"
        assert run(["construct", "--method", "z-opt", "-B", 6, "-o", out]) == 0
        report = tmp_path / "z.json.report.json"
        assert _hash_of(out) == _hash_of(report)
        assert json.loads(report.read_text())["format_version"] == FORMAT_VERSION

    def test_bound_hash_is_of_documented_payload(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bound", "--c-min", 3, "--c-max", 4, "-o", out]) == 0
        assert _hash_of(out) == config_hash({"command": "bound", "c_min": 3, "c_max": 4})

    @pytest.mark.parametrize("command, flag, values", [
        ("construct", "--seed", (0, 1)),
        ("simulate", "--trials", (50, 60)),
        ("bench", "--detectors", ("glrt,sopt", "glrt,zopt")),
    ])
    def test_other_arguments_change_hash(self, tmp_path, inputs, command, flag, values):
        argv, outputs = self.COMMANDS[command]
        hashes = {_hash_of(self.write(argv + [flag, v], outputs, inputs,
                                      tmp_path / str(v))[outputs["-o"]])
                  for v in values}
        assert len(hashes) == 2

    @pytest.mark.parametrize("command", ["construct", "simulate"])
    def test_colliding_outputs_usage_error(self, tmp_path, inputs, capsys, command):
        argv, outputs = self.COMMANDS[command]
        (tmp_path / "sub").mkdir()
        same = [tmp_path / "x.out", f"{tmp_path}/sub/../x.out"]
        argv = [inputs.get(a, a) for a in argv]
        for flag, path in zip(outputs, same):
            argv += [flag, path]
        assert run(argv) == 2
        assert "same file" in capsys.readouterr().err
        assert not same[0].exists()

    SIM = ["simulate", "--constellation", "Z", "--snr", "0", "--trials", 50]
    SOPT = ["construct", "--method", "s-opt", "-B", 1, "--packing-file", "PK"]

    # (argv, output flag, the input that flag names)
    @pytest.mark.parametrize("argv, flag, name", [
        (["evaluate", "Z"], "-o", "Z"),
        (["evaluate", "RX", "Z"], "-o", "Z"),
        (SIM, "--json", "Z"),
        (SIM, "-o", "Z"),
        (["bench", "--constellation", "Z", "--trials", 50], "-o", "Z"),
        (["detect", "--constellation", "Z", "--input", "RX"], "-o", "RX"),
        (["detect", "--constellation", "Z", "--input", "RX"], "-o", "Z"),
        (SOPT, "-o", "PK"),
        (SOPT + ["-o", "s.json"], "--report", "PK"),
    ], ids=["evaluate", "evaluate-second-input", "simulate-json", "simulate-csv",
            "bench", "detect-input", "detect-constellation", "construct-output",
            "construct-report"])
    def test_output_naming_an_input_usage_error(self, tmp_path, inputs, capsys,
                                                argv, flag, name):
        path = inputs[name]
        before = path.read_bytes()
        (tmp_path / "sub").mkdir()
        argv = [tmp_path / a if a == "s.json" else inputs.get(a, a) for a in argv]
        assert run(argv + [flag, f"{tmp_path}/sub/../{path.name}"]) == 2
        assert "names an input file" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert not (tmp_path / "s.json").exists()

    def test_default_report_naming_an_input_usage_error(self, tmp_path, capsys):
        # construct's default report path OUTPUT.report.json counts as an output
        pk = tmp_path / "p.report.json"
        pk.write_text("0 0 1\n0 0 -1\n")
        assert run(["construct", "--method", "s-opt", "-B", 1,
                    "--packing-file", pk, "-o", tmp_path / "p"]) == 2
        assert "names an input file" in capsys.readouterr().err
        assert pk.read_text() == "0 0 1\n0 0 -1\n"
        assert not (tmp_path / "p").exists()


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


def reference_read_blocks(path):
    """The line-by-line parser `formats.read_blocks` replaced: the oracle for
    accepted input, values, messages and line numbers."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                vals = [float(v) for v in line.replace(",", " ").split()]
            except ValueError:
                raise FormatError("non-numeric value", path=path, line=lineno) from None
            if len(vals) % 4 != 0 or not vals:
                raise FormatError("each row needs 4*N values (re/im interleaved)",
                                  path=path, line=lineno)
            if not all(map(math.isfinite, vals)):
                raise FormatError("non-finite value", path=path, line=lineno)
            if rows and len(vals) != len(rows[0]):
                raise FormatError(
                    f"row holds N={len(vals) // 4} antennas but the first row "
                    f"holds N={len(rows[0]) // 4}; every row needs the same N",
                    path=path, line=lineno)
            rows.append(vals)
    N = len(rows[0]) // 4 if rows else 1
    flat = np.asarray(rows, dtype=np.float64).reshape(len(rows), N, 2, 2)
    return (flat[..., 0] + 1j * flat[..., 1]).transpose(0, 2, 1)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


GOOD_ROW = "0.5, -1e-3\t2.5e+2 7 ,1 0 -0 .25"
READ_BLOCKS_CASES = {
    "valid": f"# header\n\n{GOOD_ROW}\n  {GOOD_ROW}  # tail\n\n",
    "crlf, no final newline": f"{GOOD_ROW}\r\n#\r\n{GOOD_ROW}",
    "old mac newlines": f"{GOOD_ROW}\r{GOOD_ROW}\r",
    "N = 1, digits and signs": "1 2 3 4\n+1_0 -0.0 1e308 4.9e-324\n0x1 1 1 1\n",
    "empty": "",
    "comments only": "# a\n   \n\t# b\n",
    "non-numeric first": "1 2 3 x\n1 2 3\n",
    "width before non-numeric": "1 2 3 4\n1 2 3\n1 2 3 y\n",
    "non-numeric before width": "1 2 3 4\n1 2 y\n1 2 3\n",
    "non-numeric with width on one line": "1 2 3 4 5 nan z\n",
    "a line of commas": "1 2 3 4\n , ,\n",
    "empty fields": "1,,2,3,4\n1,2,,3\n",
    "non-finite": "1 2 3 4\n1 inf 3 4\n",
    "nan": "1 2 3 4\nnan 2 3 4\n",
    "width before non-finite on one line": "1 2 3 4\n1 inf 3\n",
    "non-finite before N on one line": "1 2 3 4\n1 2 3 4 5 6 7 -inf\n",
    "N mismatch": "1 2 3 4 5 6 7 8\n1 2 3 4\n",
    "N mismatch before non-numeric": "1 2 3 4\n1 2 3 4 5 6 7 8\nq 1 2 3\n",
    "bad first row": "1 2 3 inf\n1 2 3 4 5 6 7 8\n",
}


@pytest.mark.parametrize("name", READ_BLOCKS_CASES)
def test_read_blocks_matches_line_by_line_parser(tmp_path, name):
    path = tmp_path / "rx.csv"
    path.write_bytes(READ_BLOCKS_CASES[name].encode())
    try:
        want = reference_read_blocks(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            formats.read_blocks(path)
        assert str(got.value) == str(exc) and got.value.line == exc.line
        return
    got = formats.read_blocks(path)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))


def test_read_blocks_matches_on_random_files(tmp_path):
    # rows of random widths with a stray token now and then; every outcome,
    # acceptance and each of the four messages, must occur
    rng = np.random.default_rng(3)
    words = ["1.5", "-2", "3e-7", "0", "-0", "inf", "nan", "x", ",", "", "#c", "\t"]
    outcomes = set()
    for trial in range(300):
        lines = []
        for _ in range(rng.integers(0, 6)):
            width = 4 * rng.integers(1, 3) if rng.random() < 0.8 else rng.integers(0, 9)
            pick = rng.random(width) < 0.03
            lines.append(" ".join(words[rng.integers(0, len(words))] if p else
                                  f"{rng.standard_normal():.17g}" for p in pick))
        path = tmp_path / f"rx{trial}.csv"
        path.write_text("\n".join(lines))
        try:
            want = reference_read_blocks(path)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                formats.read_blocks(path)
            assert str(got.value) == str(exc)
            outcomes.add(str(exc).split(": ", 1)[1][:12])
            continue
        got = formats.read_blocks(path)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))
        outcomes.add("ok")
    assert len(outcomes) == 5
