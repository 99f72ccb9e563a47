import functools
import json
import math
import re

import numpy as np
import pytest

from grassbloch import formats
from grassbloch.builders import (
    build_cube_split,
    build_grass_lattice,
    build_man_opt,
    build_s_opt,
    exp_map_constellation,
)
from grassbloch.channel import run_ser
from grassbloch.errors import FormatError
from grassbloch.formats import (
    FORMAT_VERSION,
    config_hash,
    constellation_from_dict,
    constellation_to_dict,
    load_constellation,
    save_constellation,
    ser_curve_to_csv,
    write_csv,
)
from grassbloch.packing import EXACT_COUNTS, PackingConfig, exact_packing
from grassbloch.geometry import Constellation
from grassbloch.zopt import (
    ZOptConstellation,
    ZOptStructure,
    build_z_opt,
    expand_theta,
    optimize_zopt,
)

#: unit-norm rows holding -0.0 (in re0 and re1), the least subnormal, 1e-05
#: (which repr writes with an exponent) and its negation, and repeats
HAND_ROWS = [
    [1.0, complex(-0.0, 5e-324)],
    [-0.0, 1.0],
    [math.sqrt(1.0 - 2e-10), complex(1e-05, -1e-05)],
    [0.6, complex(-0.0, 0.8)],
]


class TestConstellationJson:
    def test_round_trip_plain(self, tmp_path):
        x = build_s_opt(exact_packing(4))
        path = tmp_path / "c.json"
        save_constellation(path, x, seed=7)
        back = load_constellation(path)
        assert type(back) is Constellation
        assert back.method == "s-opt" and len(back) == 4
        assert np.allclose(back.array, x.array)

    def test_round_trip_layered(self, tmp_path):
        z = build_z_opt(5)
        path = tmp_path / "z.json"
        save_constellation(path, z, seed=0)
        back = load_constellation(path)
        assert isinstance(back, ZOptConstellation)
        assert back.structure.B == 5
        assert np.allclose(back.theta, z.theta)
        # the block repeats what Z_l determines; the reader checks it all
        assert json.loads(path.read_text())["zopt"]["layer_offsets"] == [0, 4, 12, 20, 28]
        assert np.allclose(back.array, z.array)

    @pytest.mark.parametrize("make", [
        *(functools.partial(build_z_opt, B) for B in range(1, 17)),
        *(functools.partial(build_cube_split, B) for B in (1, 2, 5, 8, 11)),
        *(functools.partial(build_grass_lattice, Br) for Br in (1, 2, 4, 5)),
        *(functools.partial(exp_map_constellation, B) for B in (1, 2, 3, 6, 9, 10)),
        *(lambda C=C: build_s_opt(exact_packing(C)) for C in EXACT_COUNTS),
        lambda: build_man_opt(8, seed=3, config=PackingConfig(starts=1, phase1_iters=20,
                                                              phase2_sweeps=20)),
        lambda: Constellation(HAND_ROWS, "external"),
    ])
    def test_file_bytes_match_streamed_encoder(self, tmp_path, make):
        # the writer formats each distinct value once; the file is still
        # exactly what the streamed encoder writes
        x = make()
        path = tmp_path / "c.json"
        save_constellation(path, x, seed=4, cfg_hash="0123456789ab")
        with open(tmp_path / "want.json", "w") as fh:
            json.dump(constellation_to_dict(x, seed=4, cfg_hash="0123456789ab"), fh)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_hand_rows_keep_their_values(self):
        # the rows keep -0.0, the subnormal and 1e-05 through Constellation,
        # so the byte test above writes each of them
        x = Constellation(HAND_ROWS, "external")
        rows = constellation_to_dict(x)["codewords"]
        assert [math.copysign(1.0, v) for v in (rows[0][2], rows[1][0], rows[3][2])] == [-1.0] * 3
        assert {rows[0][3], rows[2][2], rows[2][3]} == {5e-324, 1e-05, -1e-05}

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, 5e-324, -5e-324],
        [1e-05, 0.0001, 1e16, 9999999999999998.0],
        [1e+16, -1e+16, 1e-05, -1e-05, 1e-05, 1e+16, -0.0, 0.1],
        [1.7976931348623157e308, 2.2250738585072014e-308, 1 / 3, 2 / 3],
    ])
    def test_row_text_is_json_dumps(self, values):
        # any finite values, not only unit-norm rows, repeated and negated
        points = np.array(values, dtype=np.float64).view(np.complex128).reshape(-1, 2)
        assert formats._codewords_text(points) == json.dumps(
            points.view(np.float64).reshape(-1, 4).tolist())

    @pytest.mark.parametrize("B", list(range(1, 17)))
    def test_layered_rows_rebuild_bitwise(self, B):
        # the loader rebuilds the codewords from the angles; for every file
        # this program writes they equal the saved rows bit for bit
        z = build_z_opt(B)
        back = constellation_from_dict(json.loads(json.dumps(constellation_to_dict(z))))
        assert back.array.tobytes() == z.array.tobytes()
        assert back.theta.tobytes() == z.theta.tobytes()

    @pytest.mark.parametrize("shift", [0.05, 0.1])
    def test_layer_block_perturbed_theta(self, shift):
        # angles still increasing, but they no longer realize the codewords
        d = constellation_to_dict(build_z_opt(6))
        d["zopt"]["theta"] = [t + shift for t in d["zopt"]["theta"]]
        with pytest.raises(FormatError, match="differ"):
            constellation_from_dict(d)

    @pytest.mark.parametrize("key, value, message", [
        ("method", "s-opt", "needs method 'z-opt' and an integer B, not 's-opt' and B=3"),
        # the header's B names the structure, which the block's Z_l must match
        ("B", 2, r"layer sizes \[4, 4\] \(2 layers\) do not match the B=2 structure \[2, 2\]"),
    ], ids=["method-s-opt", "B-2"])
    def test_layer_block_needs_zopt_header(self, key, value, message):
        d = constellation_to_dict(build_z_opt(3))
        d[key] = value
        with pytest.raises(FormatError, match=message):
            constellation_from_dict(d)

    @pytest.mark.parametrize("B", [0, 17, 2000])
    def test_layer_header_bits_outside_table(self, tmp_path, B):
        from grassbloch.cli import main

        d = constellation_to_dict(build_z_opt(3))
        d["B"] = B
        with pytest.raises(FormatError, match=f"B={B} outside the supported range"):
            constellation_from_dict(d)
        path = tmp_path / "zrange.json"
        path.write_text(json.dumps(d))
        assert main(["evaluate", str(path)]) == 3

    @pytest.mark.parametrize("keep", [1, 8, 15])
    def test_layer_block_row_count(self, tmp_path, keep):
        # one row would broadcast against the realized ones; none may pass
        from grassbloch.cli import main

        d = constellation_to_dict(build_z_opt(4))
        d["codewords"] = d["codewords"][:keep]
        with pytest.raises(FormatError, match=f"{keep} codewords, but the zopt block realizes 16"):
            constellation_from_dict(d)
        path = tmp_path / "zrows.json"
        path.write_text(json.dumps(d))
        assert main(["evaluate", str(path)]) == 3

    @pytest.mark.parametrize("moved, loads", [(1e-13, True), (1e-11, False)])
    def test_layer_block_row_tolerance(self, moved, loads):
        d = constellation_to_dict(build_z_opt(6))
        d["codewords"][17][3] += moved
        if loads:
            assert constellation_from_dict(d).array.tobytes() == build_z_opt(6).array.tobytes()
        else:
            with pytest.raises(FormatError, match="differ"):
                constellation_from_dict(d)

    def test_required_header_fields(self):
        x = build_s_opt(exact_packing(4))
        d = constellation_to_dict(x, seed=3)
        for key in ("format_version", "tool_version", "seed", "config_hash",
                    "method", "B", "T", "M", "codewords"):
            assert key in d
        assert d["T"] == 2 and d["M"] == 1
        # the writers record the hash they are given and never compute one
        assert list(d)[:4] == ["format_version", "tool_version", "config_hash", "seed"]
        assert d["config_hash"] is None

    def test_future_version_rejected(self, tmp_path):
        x = build_s_opt(exact_packing(4))
        d = constellation_to_dict(x)
        d["format_version"] = FORMAT_VERSION + 1
        path = tmp_path / "f.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError):
            load_constellation(path)

    def test_missing_field(self):
        with pytest.raises(FormatError):
            constellation_from_dict({"method": "s-opt", "B": 2})

    def test_wrong_shape_rejected(self):
        d = {"method": "s-opt", "B": 1, "T": 3, "M": 1,
             "codewords": [[1, 0, 0, 0], [0, 0, 1, 0]]}
        with pytest.raises(FormatError):
            constellation_from_dict(d)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_constellation(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FormatError):
            load_constellation(path)

    def test_layer_block_size_mismatch(self, tmp_path):
        z = build_z_opt(3)
        d = constellation_to_dict(z)
        d["zopt"]["B"] = 4  # structure for 16 codewords, file holds 8
        path = tmp_path / "zz.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError):
            load_constellation(path)

    def test_layer_block_bad_theta(self, tmp_path):
        z = build_z_opt(3)
        d = constellation_to_dict(z)
        d["zopt"]["theta"] = [2.0, 1.0]  # not increasing
        path = tmp_path / "zt.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError):
            load_constellation(path)

    def test_layer_block_old_b7_shape(self, tmp_path):
        # B = 7 once had nine layers (8, 16 x 7, 8); such a file must fail on
        # the layer sizes, not on the angle count
        from grassbloch.cli import main

        d = constellation_to_dict(build_z_opt(7))
        Z_l = [8] + [16] * 7 + [8]
        d["zopt"].update(l=9, Z_l=Z_l, n_v=4,
                         theta=list(np.linspace(0.4, math.pi - 0.4, 9)),
                         layer_offsets=[int(o) for o in np.cumsum([0] + Z_l[:-1])])
        path = tmp_path / "z7old.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError, match=r"layer sizes \[8, 16, .*9 layers"):
            load_constellation(path)
        assert main(["evaluate", str(path)]) == 3

    # B = 5: Z_l (4, 8, 8, 8, 4), C 32, l 5, z_max 8, n_v 2, offsets 0, 4, 12, 20, 28
    @pytest.mark.parametrize("key, value", [
        ("B", math.inf), ("l", math.inf), ("Z_l", [math.inf, 8, 8, 8, 4]),
        ("C", 64), ("z_max", 4), ("n_v", 3), ("layer_offsets", [0, 4, 12, 20, 27]),
        ("B", 6), ("l", 6),
    ], ids=["B-inf", "l-inf", "Z_l-inf", "C", "z_max", "n_v", "layer_offsets", "B", "l"])
    def test_layer_block_fields_checked(self, tmp_path, key, value):
        from grassbloch.cli import main

        d = constellation_to_dict(build_z_opt(5))
        d["zopt"][key] = value
        with pytest.raises(FormatError, match="layered-structure block"):
            constellation_from_dict(json.loads(json.dumps(d)))
        path = tmp_path / "z5.json"
        path.write_text(json.dumps(d))
        assert main(["evaluate", str(path)]) == 3

    @pytest.mark.parametrize("B, key, value", [
        (1, "B", True), (1, "l", True), (1, "n_v", True), (1, "layer_offsets", [False]),
        (4, "B", 4.0), (4, "C", 16.0), (4, "l", 4.0), (4, "z_max", 4.0), (4, "n_v", 2.0),
        (4, "Z_l", [4.0, 4, 4, 4]), (4, "layer_offsets", [0, 4.0, 8, 12]),
    ])
    def test_layer_block_ints_are_ints(self, tmp_path, B, key, value):
        # equal by ==, but not what the writer writes
        from grassbloch.cli import main

        d = constellation_to_dict(build_z_opt(B))
        assert d["zopt"][key] == value
        d["zopt"][key] = value
        with pytest.raises(FormatError, match="layered-structure block"):
            constellation_from_dict(json.loads(json.dumps(d)))
        path = tmp_path / "zint.json"
        path.write_text(json.dumps(d))
        assert main(["evaluate", str(path)]) == 3

    @pytest.mark.parametrize("B, value", [(1, True), (4, 4.0)])
    def test_layer_header_bits_are_int(self, tmp_path, B, value):
        from grassbloch.cli import main

        d = constellation_to_dict(build_z_opt(B))
        d["B"] = value
        message = re.escape(f"an integer B, not 'z-opt' and B={value!r}")
        with pytest.raises(FormatError, match=message):
            constellation_from_dict(json.loads(json.dumps(d)))
        d["zopt"]["B"] = value  # header and block alike
        path = tmp_path / "zhead.json"
        path.write_text(json.dumps(d))
        assert main(["evaluate", str(path)]) == 3

    def test_layer_block_pinned_to_table(self, tmp_path):
        # a valid k-cap structure at B = 9, but not the paper's row for B = 9
        from grassbloch.cli import main

        s = ZOptStructure((16,) * 3 + (32,) * 13 + (16,) * 3)
        z = ZOptConstellation(s, expand_theta(optimize_zopt(s), s))
        path = tmp_path / "kcap.json"
        save_constellation(path, z)
        with pytest.raises(FormatError, match=r"layer sizes \[16, 16, 16, 32, .*19 layers"):
            load_constellation(path)
        assert main(["evaluate", str(path)]) == 3

    def test_layer_block_counted_before_realized(self, tmp_path, monkeypatch):
        from grassbloch import zopt
        from grassbloch.cli import main

        def realize(*args):
            raise AssertionError("realized a structure the file cannot hold")

        d = constellation_to_dict(build_z_opt(3))  # 8 rows
        d["zopt"]["Z_l"] = [2**19, 2**19]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(d))
        monkeypatch.setattr(zopt, "realize_codewords", realize)
        message = r"layer sizes \[524288, 524288\] .* B=3 structure \[4, 4\]"
        with pytest.raises(FormatError, match=message):
            load_constellation(path)
        assert main(["evaluate", str(path)]) == 3

    @pytest.mark.parametrize("B", [math.nan, True, 2000])
    def test_plain_file_bad_bits(self, tmp_path, B):
        from grassbloch.cli import main

        d = constellation_to_dict(build_s_opt(exact_packing(2)))
        d["B"] = B
        path = tmp_path / "badB.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError, match="2\\^B"):
            load_constellation(path)
        assert main(["evaluate", str(path)]) == 3

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_codeword_rejected(self, tmp_path, literal):
        # json.load accepts these literals; the loader must not
        text = json.dumps(constellation_to_dict(build_s_opt(exact_packing(8))))
        head, sep, rest = text.partition('"codewords": [[')
        path = tmp_path / "nf.json"
        path.write_text(head + sep + literal + rest[rest.index(","):])
        with pytest.raises(FormatError, match="non-finite"):
            load_constellation(path)

    @pytest.mark.parametrize("rows", [
        [[1, 0, 0, 0], [0, 0, 1]],            # ragged
        [[1, 0, 0, 0], [0, 0, "1", 0]],       # a string, not a number
        [[1, 0, 0, 0], [0, 0, None, 0]],
        [[1, 0, 0, 0], [0.5, 0, 0.5, 0]],     # not unit norm
        [[1, 0, 0, 0], [0, 0.6, 0.8, 0]],     # c0 not real
    ])
    def test_bad_codeword_rows_rejected(self, rows):
        with pytest.raises(FormatError):
            constellation_from_dict({"method": "external", "B": 1, "codewords": rows})

    def test_fractional_bits(self, tmp_path):
        x = build_s_opt(exact_packing(12))
        path = tmp_path / "c12.json"
        save_constellation(path, x)
        back = load_constellation(path)
        assert len(back) == 12
        assert back.B == pytest.approx(math.log2(12))


class TestCsv:
    def test_preamble(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2]], seed=9, cfg_hash="0123456789ab")
        text = path.read_text()
        assert "# format_version=" in text
        assert "# tool_version=" in text
        assert "# config_hash=0123456789ab" in text
        assert "# seed=9" in text
        assert text.strip().endswith("1,2")
        # a missing value is spelled as in the JSON files
        write_csv(path, ["a", "b"], [[1, 2]])
        text = path.read_text()
        assert "# config_hash=null\n" in text and "# seed=null\n" in text
        assert "None" not in text

    def test_ser_curve_csv(self, tmp_path):
        x = build_s_opt(exact_packing(4))
        curve = run_ser(x, "glrt", [0.0, 10.0], trials=500, N=1, seed=0)
        path = tmp_path / "ser.csv"
        ser_curve_to_csv(path, curve)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",")[:4] == ["snr_db", "trials", "errors", "ser"]
        assert len(lines) == 3


class TestConfigHash:
    def test_stable(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_sensitive(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

