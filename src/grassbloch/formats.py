"""On-disk formats: constellation JSON, result CSV/JSON, and the numeric text
of `detect --input` and `construct --packing-file`, which one tokenizer reads.

Every file this package writes opens with one provenance record: format
version, tool version, config hash and seed. The writers record the hash
they are given and never compute one (the CLI hashes each command once); a
library caller that passes none gets null. Formats are versioned and readers
reject files from a future major version; they never read the hash. A
constellation file with a `zopt` block loads as the `ZOptConstellation` that
`zopt_structure(B)` of its integer B and the block's angles theta realize.
The block's Z_l must be that structure's, the rest of the block what the
two determine, and the realized codewords must match the file's rows to
within 1e-12 in every entry.
"""

from __future__ import annotations

import csv
import hashlib
import json
import operator
from dataclasses import asdict
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import FormatError, InvalidInputError
from .geometry import Constellation
from .zopt import ZOptConstellation, zopt_structure

if TYPE_CHECKING:  # annotations only, so that loading formats loads neither module
    from .channel import BenchReport, SerCurve
    from .packing import PackingSet

FORMAT_VERSION = 1

#: largest difference, in any real entry, between a z-opt file's codeword rows
#: and the rows its `zopt` angles realize
_ZOPT_ROW_TOL = 1e-12


def config_hash(obj) -> str:
    """Short stable digest of a JSON-serializable configuration."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def provenance(seed=None, cfg_hash=None) -> dict:
    """The record that heads every file written: versions, hash and seed."""
    return {"format_version": FORMAT_VERSION, "tool_version": __version__,
            "config_hash": cfg_hash, "seed": seed}


def write_json(path, data) -> None:
    text = json.dumps(data, indent=1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_bytes(path) -> bytes:
    """A file's bytes, read once."""
    with open(path, "rb") as fh:
        return fh.read()


def _decode_text(data: bytes, path=None) -> str:
    """The text of a file's bytes, with its newlines translated as text mode
    reads them; bytes that are not UTF-8 are a format error naming the file."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}", path=path) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path) -> str:
    """A file's text; a file that is not UTF-8 is a format error naming it."""
    return _decode_text(read_bytes(path), path)


def _check_version(data, path):
    v = data.get("format_version", 1)
    if not isinstance(v, int) or v > FORMAT_VERSION:
        raise FormatError(f"format_version {v!r} is newer than supported {FORMAT_VERSION}",
                          path=path)


# ---------------------------------------------------------------------------
# constellation JSON


def constellation_to_dict(x, seed=None, cfg_hash=None) -> dict:
    """JSON payload for a Constellation or ZOptConstellation."""
    return _fields(x, seed, cfg_hash, x.array.view(np.float64).reshape(len(x), 4).tolist())


def _fields(x, seed, cfg_hash, codewords) -> dict:
    """A constellation file's fields in file order, with `codewords` as given."""
    b = x.B
    data = {
        **provenance(seed, cfg_hash),
        "method": x.method,
        "B": int(b) if float(b).is_integer() else float(b),
        "T": 2,
        "M": 1,
        "codewords": codewords,
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


def _codewords_text(points: np.ndarray) -> str:
    """The `json.dumps` text of finite (C, 2) complex codewords as rows
    [re0, im0, re1, im1], each distinct value formatted once.

    Values are told apart by their bits, since a float-valued `np.unique`
    would merge -0.0 into 0.0. `float.__repr__` is the text `json.dumps`
    gives a finite float, and a Constellation holds only finite rows.
    """
    values, index = np.unique(points.view(np.uint64).ravel(), return_inverse=True)
    texts = list(map(float.__repr__, values.view(np.float64).tolist()))
    cells = operator.itemgetter(*index.tolist())(texts)
    return "[" + ", ".join(["[%s, %s, %s, %s]"] * len(points)) % cells + "]"


def save_constellation(path, x, seed=None, cfg_hash=None) -> None:
    """Write `json.dumps(constellation_to_dict(x, seed, cfg_hash))` and a
    newline, without the list of every codeword entry as a Python float."""
    parts = []
    for key, value in _fields(x, seed, cfg_hash, _codewords_text(x.array)).items():
        parts += [", " if parts else "{", json.dumps(key), ": ",
                  value if key == "codewords" else json.dumps(value)]
    with open(path, "w") as fh:
        fh.writelines(parts + ["}\n"])


def constellation_from_dict(data, path=None):
    """Rebuild the Constellation from a JSON payload.

    A payload with a `zopt` block must be a `z-opt` file with an integer B,
    and gives the ZOptConstellation that `zopt_structure(B)` and the block's
    theta realize. The block's Z_l must be that structure's, every other field
    what the two determine, and the codeword rows the realized ones, in count
    and within 1e-12 in every entry.
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
    zd, B = data["zopt"], data["B"]
    try:
        if data["method"] != "z-opt" or type(B) is not int:
            raise ValueError(f"a zopt block needs method 'z-opt' and an integer B, "
                             f"not {data['method']!r} and B={B!r}")
        s = zopt_structure(B)
        if zd["Z_l"] != list(s.Z_l):
            # e.g. a B = 7 file from before B = 7 moved to ten layers
            raise ValueError(f"layer sizes {zd['Z_l']} ({len(zd['Z_l'])} layers) do not "
                             f"match the B={B} structure {list(s.Z_l)} ({s.l} layers); "
                             "rebuild the constellation")
        z = ZOptConstellation(s, zd["theta"])
        # as JSON text, so a bool or a float does not pass for an int
        if json.dumps(_zopt_block(z), sort_keys=True) != json.dumps(zd, sort_keys=True):
            raise ValueError("its fields do not all follow from its Z_l and theta")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad layered-structure block: {exc}", path=path) from exc
    if len(z) != len(rows):
        raise FormatError(f"{len(rows)} codewords, but the zopt block realizes {len(z)}", path=path)
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


def constellation_from_bytes(data: bytes, path=None):
    """The Constellation a constellation file's bytes hold; `path` names the
    file in errors. Validation reads nothing but the bytes."""
    try:
        payload = json.loads(_decode_text(data, path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}", path=path) from exc
    return constellation_from_dict(payload, path=path)


def load_constellation(path):
    return constellation_from_bytes(read_bytes(path), path)


# ---------------------------------------------------------------------------
# CSV with a reproducibility preamble


def write_csv(path_or_fh, header, rows, seed=None, cfg_hash=None, footnotes=()) -> None:
    """Rows to CSV after '#' preamble lines: the provenance record, then notes.

    A missing seed or hash reads `null`, as in the JSON files."""

    def _emit(fh):
        for key, value in provenance(seed, cfg_hash).items():
            fh.write(f"# {key}={'null' if value is None else value}\n")
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


def ser_curve_to_csv(path_or_fh, curve: SerCurve, cfg_hash=None) -> None:
    header, rows = ser_curve_rows(curve)
    write_csv(path_or_fh, header, rows, seed=curve.seed, cfg_hash=cfg_hash)


def ser_curve_to_json(curve: SerCurve, cfg_hash=None) -> dict:
    return {**provenance(curve.seed, cfg_hash), **asdict(curve)}


def bench_rows(reports: list[BenchReport]):
    header = ["detector", "trials", "errors", "mean_distance_evals",
              "max_distance_evals", "mean_comparisons", "mismatches_vs_first"]
    rows = [
        [r.detector, r.trials, r.errors, f"{r.mean_distance_evals:.10g}",
         r.max_distance_evals, f"{r.mean_comparisons:.10g}", r.mismatches_vs_first]
        for r in reports
    ]
    return header, rows


# ---------------------------------------------------------------------------
# numeric text: received blocks and packing tables


def _read_rows(path):
    """(line numbers, value counts, values end to end) of a text file's rows
    up to the first row holding a non-number, and (line number, tokens) of
    that row, or None. Values are separated by commas or whitespace and '#'
    starts a comment."""
    lines, counts, tokens = [], [], []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        body = line.split("#", 1)[0]
        row = body.replace(",", " ").split()
        if row or body.strip():  # a line of commas is a row of no values
            lines.append(lineno)
            counts.append(len(row))
            tokens += row
    bad = None
    try:
        vals = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        k = next(k for k, tok in enumerate(tokens) if not _is_float(tok))
        n = int(np.searchsorted(np.cumsum(counts), k, side="right"))
        end = sum(counts[:n])
        bad = lines[n], tokens[end:end + counts[n]]
        lines, counts = lines[:n], counts[:n]
        vals = np.fromiter(map(float, tokens[:end]), dtype=np.float64, count=end)
    return lines, np.array(counts, dtype=np.int64), vals, bad


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_blocks(path) -> np.ndarray:
    """(n, 2, N) received blocks, one per row of 4*N re/im interleaved values,
    the same N on every row. The first bad line is reported; within a line, a
    non-numeric value comes first, then a count that is not 4*N, then a
    non-finite value, then an N unlike the first row's."""
    lines, counts, vals, bad = _read_rows(path)
    width = (counts % 4 != 0) | (counts == 0)
    finite = np.ones(len(counts), dtype=bool)
    finite[np.repeat(np.arange(len(counts)), counts)[~np.isfinite(vals)]] = False
    same_n = counts == (counts[0] if len(counts) else 0)
    wrong = (width | ~finite | ~same_n).nonzero()[0]
    if len(wrong):
        r = wrong[0]
        if width[r]:
            message = "each row needs 4*N values (re/im interleaved)"
        elif not finite[r]:
            message = "non-finite value"
        else:
            message = (f"row holds N={counts[r] // 4} antennas but the first row "
                       f"holds N={counts[0] // 4}; every row needs the same N")
        raise FormatError(message, path=path, line=lines[r])
    if bad:
        raise FormatError("non-numeric value", path=path, line=bad[0])
    N = counts[0] // 4 if len(counts) else 1
    flat = vals.reshape(len(counts), N, 2, 2)
    return (flat[..., 0] + 1j * flat[..., 1]).transpose(0, 2, 1)


def load_packing(path) -> PackingSet:
    """A packing table: an x y z row per point within 1e-6 of unit norm, which
    is renormalized, after an optional row holding the point count as one
    whole number. The first bad line is reported; within a line, a non-number
    comes first, then a count other than 3, then the norm. A wrong point count
    and what `PackingSet` rejects are format errors without a line."""
    lines, counts, vals, bad = _read_rows(path)
    header = None
    if len(counts) and counts[0] == 1:
        if not float(vals[0]).is_integer():
            raise FormatError("expected integer header or x y z triple",
                              path=path, line=lines[0])
        header = int(vals[0])
        lines, counts, vals = lines[1:], counts[1:], vals[1:]
    wrong = np.flatnonzero(counts != 3)
    n = int(wrong[0]) if len(wrong) else len(counts)
    pts = vals[:3 * n].reshape(n, 3)
    x, y, z = pts.T
    norm = np.sqrt(x * x + y * y + z * z)
    far = np.flatnonzero(~(np.abs(norm - 1.0) <= 1e-6))  # also NaN
    if len(far):
        raise FormatError(f"point norm {float(norm[far[0]])!r} deviates from 1 by more "
                          "than 1e-6", path=path, line=lines[far[0]])
    if n < len(counts):
        raise FormatError(f"expected 3 values, got {counts[n]}", path=path, line=lines[n])
    if bad:
        raise FormatError(f"non-numeric value in {bad[1]!r}", path=path, line=bad[0])
    if header is not None and header != n:
        raise FormatError(f"header says {header} points but file holds {n}", path=path)
    from .packing import PackingSet

    try:
        return PackingSet(pts / norm[:, None])
    except InvalidInputError as exc:
        raise FormatError(str(exc), path=path) from exc
