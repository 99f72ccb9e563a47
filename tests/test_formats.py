import json
import math

import numpy as np
import pytest

from grassbloch.builders import build_s_opt
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
from grassbloch.packing import exact_packing
from grassbloch.geometry import Constellation
from grassbloch.zopt import (
    ZOptConstellation,
    ZOptStructure,
    build_z_opt,
    expand_theta,
    optimize_zopt,
)


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

    @pytest.mark.parametrize("make", [lambda: build_s_opt(exact_packing(12)),
                                      lambda: build_z_opt(9)])
    def test_file_bytes_match_streamed_encoder(self, tmp_path, make):
        x = make()
        path = tmp_path / "c.json"
        save_constellation(path, x, seed=4, extra_config={"starts": 1})
        with open(tmp_path / "want.json", "w") as fh:
            json.dump(constellation_to_dict(x, seed=4, extra_config={"starts": 1}), fh)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "want.json").read_bytes()

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

    @pytest.mark.parametrize("key, value", [("method", "s-opt"), ("B", 2)])
    def test_layer_block_needs_zopt_header(self, key, value):
        d = constellation_to_dict(build_z_opt(3))
        d[key] = value
        with pytest.raises(FormatError, match="needs method 'z-opt' and B=3"):
            constellation_from_dict(d)

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
        with pytest.raises(FormatError, match="1048576"):
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
        write_csv(path, ["a", "b"], [[1, 2]], seed=9, cfg={"x": 1})
        text = path.read_text()
        assert "# format_version=" in text
        assert "# tool_version=" in text
        assert "# config_hash=" in text
        assert "# seed=9" in text
        assert text.strip().endswith("1,2")

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

