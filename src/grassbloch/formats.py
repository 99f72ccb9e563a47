"""On-disk formats: constellation JSON and result CSV/JSON.

Every file this package writes carries the tool version, a hash of the
generating configuration and the seed, so any figure can be reproduced from
its own header. Formats are versioned and readers reject files from a future
major version. A constellation file with a `zopt` block loads as the
`ZOptConstellation` that the block's layer sizes Z_l and angles theta
realize. The rest of the block (B, C, l, z_max, n_v and the layer offsets)
must be what those two determine, and the realized codewords must match the
file's rows to within 1e-12 in every entry.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict

import numpy as np

from . import __version__
from .channel import BenchReport, SerCurve
from .errors import FormatError
from .geometry import Constellation
from .zopt import ZOptConstellation, ZOptStructure, zopt_structure

FORMAT_VERSION = 1

#: largest difference, in any real entry, between a z-opt file's codeword rows
#: and the rows its `zopt` angles realize
_ZOPT_ROW_TOL = 1e-12


def config_hash(obj) -> str:
    """Short stable digest of a JSON-serializable configuration."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _check_version(data, path):
    v = data.get("format_version", 1)
    if not isinstance(v, int) or v > FORMAT_VERSION:
        raise FormatError(f"format_version {v!r} is newer than supported {FORMAT_VERSION}",
                          path=path)


# ---------------------------------------------------------------------------
# constellation JSON


def constellation_to_dict(x, seed=None, extra_config=None) -> dict:
    """JSON payload for a Constellation or ZOptConstellation."""
    b = x.B
    data = {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "method": x.method,
        "B": int(b) if float(b).is_integer() else float(b),
        "T": 2,
        "M": 1,
        "seed": seed,
        "config_hash": config_hash({"method": x.method, "B": b, "seed": seed,
                                    "extra": extra_config}),
        "codewords": x.array.view(np.float64).reshape(len(x), 4).tolist(),
    }
    if isinstance(x, ZOptConstellation):
        data["zopt"] = _zopt_block(x)
    return data


def _zopt_block(z: ZOptConstellation) -> dict:
    """The `zopt` block of a layered constellation: its layer sizes and
    angles, and what follows from them."""
    s = z.structure
    return {"B": s.B, "C": s.C, "l": s.l, "Z_l": list(s.Z_l), "z_max": s.z_max,
            "n_v": s.n_v, "theta": [float(t) for t in z.theta],
            "layer_offsets": list(s.layer_offsets)}


def save_constellation(path, x, seed=None, extra_config=None) -> None:
    # json.dumps takes the C encoder; json.dump to a file would not
    text = json.dumps(constellation_to_dict(x, seed=seed, extra_config=extra_config))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def constellation_from_dict(data, path=None):
    """Rebuild the Constellation from a JSON payload.

    A payload with a `zopt` block gives the ZOptConstellation that the block's
    Z_l and theta realize. Every other field of the block must be what those
    two determine, a `z-opt` file must carry its B's row of the structure
    table, and the payload's codeword rows must match the realized ones
    within 1e-12 in every entry.
    """
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object", path=path)
    _check_version(data, path)
    for key in ("method", "B", "codewords"):
        if key not in data:
            raise FormatError(f"missing field {key!r}", path=path)
    if data.get("T", 2) != 2 or data.get("M", 1) != 1:
        raise FormatError("only T=2, M=1 constellations are supported", path=path)
    try:
        rows = np.asarray(data["codewords"])
        if rows.dtype.kind not in "biuf" or rows.ndim != 2 or rows.shape[1] != 4:
            raise ValueError("codewords must be rows of 4 numbers [re0, im0, re1, im1]")
        rows = rows.astype(np.float64, copy=False)
        if "zopt" not in data:
            return Constellation(rows.view(np.complex128), data["method"], data["B"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad codeword data: {exc}", path=path) from exc
    zd = data["zopt"]
    try:
        s = ZOptStructure(zd["Z_l"])
        # before realizing anything: a Z_l can claim 2^40 points
        if s.C != len(rows):
            raise ValueError(f"layer sizes sum to {s.C}, not the file's {len(rows)} codewords")
        if (data["method"], data["B"]) != ("z-opt", s.B):
            raise ValueError(f"a zopt block needs method 'z-opt' and B={s.B}, "
                             f"not {data['method']!r} and B={data['B']!r}")
        table = zopt_structure(s.B)
        if s != table:
            # e.g. a B = 7 file from before B = 7 moved to ten layers
            raise ValueError(f"layer sizes {list(s.Z_l)} ({s.l} layers) do not match the "
                             f"B={s.B} structure {list(table.Z_l)} ({table.l} layers); "
                             "rebuild the constellation")
        z = ZOptConstellation(s, zd["theta"])
        if _zopt_block(z) != zd:
            raise ValueError("its fields do not all follow from its Z_l and theta")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad layered-structure block: {exc}", path=path) from exc
    # the rebuilt rows are valid codewords, so matching them validates the file's
    gap = np.abs(z.array.view(np.float64).reshape(len(rows), 4) - rows).max(axis=1)
    bad = np.flatnonzero(~(gap <= _ZOPT_ROW_TOL))
    if len(bad):
        k = int(bad[0])
        if not np.isfinite(gap[k]):
            raise FormatError(f"bad codeword data: codeword {k} has non-finite entries",
                              path=path)
        raise FormatError(
            f"codeword {k} differs by {gap[k]:.3g} from the one the zopt layer angles "
            f"realize (tolerance {_ZOPT_ROW_TOL:g}); rebuild the constellation", path=path)
    return z


def load_constellation(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}", path=path) from exc
    return constellation_from_dict(data, path=path)


# ---------------------------------------------------------------------------
# CSV with a reproducibility preamble


def _write_preamble(fh, seed, cfg_hash) -> None:
    fh.write(f"# format_version={FORMAT_VERSION}\n")
    fh.write(f"# tool_version={__version__}\n")
    fh.write(f"# config_hash={cfg_hash}\n")
    fh.write(f"# seed={seed}\n")


def write_csv(path_or_fh, header, rows, seed=None, cfg=None, footnotes=()) -> None:
    """Rows to CSV with '#' preamble lines carrying version, hash and seed."""

    def _emit(fh):
        _write_preamble(fh, seed, config_hash(cfg))
        for note in footnotes:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    if isinstance(path_or_fh, (str, bytes)) or hasattr(path_or_fh, "__fspath__"):
        with open(path_or_fh, "w", newline="") as fh:
            _emit(fh)
    else:
        _emit(path_or_fh)


def ser_curve_rows(curve: SerCurve):
    header = ["snr_db", "trials", "errors", "ser",
              "mean_distance_evals", "mean_comparisons"]
    rows = [
        [curve.snr_db[i], curve.trials, curve.errors[i], f"{curve.ser[i]:.10g}",
         f"{curve.mean_distance_evals[i]:.10g}", f"{curve.mean_comparisons[i]:.10g}"]
        for i in range(len(curve.snr_db))
    ]
    return header, rows


def _ser_curve_config(curve: SerCurve) -> dict:
    """The SerCurve fields that its config hash covers."""
    return {k: getattr(curve, k) for k in ("snr_db", "trials", "seed", "detector", "N",
                                             "method", "C")}


def ser_curve_to_csv(path_or_fh, curve: SerCurve) -> None:
    header, rows = ser_curve_rows(curve)
    write_csv(path_or_fh, header, rows, seed=curve.seed, cfg=_ser_curve_config(curve))


def ser_curve_to_json(curve: SerCurve) -> dict:
    data = asdict(curve)
    data["format_version"] = FORMAT_VERSION
    data["tool_version"] = __version__
    data["config_hash"] = config_hash(_ser_curve_config(curve))
    return data


def bench_rows(reports: list[BenchReport]):
    header = ["detector", "trials", "errors", "mean_distance_evals",
              "max_distance_evals", "mean_comparisons", "mismatches_vs_first"]
    rows = [
        [r.detector, r.trials, r.errors, f"{r.mean_distance_evals:.10g}",
         r.max_distance_evals, f"{r.mean_comparisons:.10g}", r.mismatches_vs_first]
        for r in reports
    ]
    return header, rows
