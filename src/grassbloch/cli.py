"""Command-line surface: construct, evaluate, bound, simulate, bench, detect.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 degenerate
input or out of memory. `simulate` and `bench` run one worker thread per CPU
in the process's affinity mask; the GRASSBLOCH_THREADS environment variable
asks for fewer, and a value that is not an integer >= 1 exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .builders import (
    build_cube_split,
    build_grass_lattice,
    build_man_opt,
    build_s_opt,
    exp_map_constellation,
)
from .channel import DETECTOR_TAGS, bench_detectors, make_detector, run_ser
from .errors import DegenerateInputError, FormatError, InvalidInputError
from .formats import (
    bench_rows,
    config_hash,
    load_constellation,
    save_constellation,
    ser_curve_to_csv,
    ser_curve_to_json,
    write_csv,
)
from .geometry import METHOD_TAGS, fejes_toth_bound
from .packing import (
    EXACT_COUNTS,
    PackingConfig,
    exact_packing,
    load_packing,
    optimize_packing,
)
from .zopt import build_z_opt

#: every tag but "external", which only files from elsewhere carry
METHODS = tuple(m for m in METHOD_TAGS if m != "external")
#: most SNR points a 'start:stop:step' range may expand to
MAX_SNR_POINTS = 10_000
#: largest `construct -B`: 2^30 codewords already take 16 GiB
MAX_BITS = 30


def _parse_snr(spec: str):
    """Comma list '0,10,20' or inclusive range 'start:stop:step'."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise InvalidInputError("range spec must be start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if not all(map(math.isfinite, (start, stop, step))):
                raise InvalidInputError("range start, stop and step must be finite")
            if step <= 0:
                raise InvalidInputError("step must be positive")
            span = (stop - start) / step + 1e-9
            if span >= MAX_SNR_POINTS:
                raise InvalidInputError(f"range holds more than {MAX_SNR_POINTS} points")
            n = int(math.floor(span)) + 1
            return [start + k * step for k in range(max(n, 0))]
        return [float(p) for p in spec.split(",") if p != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad SNR spec {spec!r}: {exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="grassbloch",
        description="Construct, evaluate and simulate G(2,1) constellations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a constellation and write it as JSON")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--bits", "-B", type=int, required=True,
                   help=f"bits per symbol, 1..{MAX_BITS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--packing-file", help="sphere packing table for s-opt")
    p.add_argument("--alpha", type=float, default=1e-2,
                   help="grid margin for grass-lattice, in (0, 0.5)")
    p.add_argument("--symbols", choices=("auto", "psk", "qam"), default="auto",
                   help="symbol family for exp-map")
    p.add_argument("--starts", type=int, help="packing optimizer restarts")
    p.add_argument("--phase1-iters", type=int, help="smoothed-phase iterations")
    p.add_argument("--phase2-sweeps", type=int, help="maximin-polish sweeps")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--report", help="sidecar report path (default: OUTPUT.report.json)")

    p = sub.add_parser("evaluate", help="minimum-distance table for constellation files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--output", "-o", help="CSV path (default: stdout)")

    p = sub.add_parser("bound", help="distance upper bound for a range of sizes")
    p.add_argument("--c-min", type=int, required=True)
    p.add_argument("--c-max", type=int, required=True)
    p.add_argument("--output", "-o", help="CSV path (default: stdout)")

    p = sub.add_parser("simulate", help="Monte Carlo symbol error rate sweep")
    p.add_argument("--constellation", required=True)
    p.add_argument("--detector", choices=DETECTOR_TAGS, default="glrt")
    p.add_argument("--snr", required=True, help="'0,10,20' or '0:20:4' (dB)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--antennas", "-N", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", help="CSV path (default: stdout)")
    p.add_argument("--json", dest="json_output", help="also write full JSON metadata here")

    p = sub.add_parser("bench", help="operation counters over a shared trial stream")
    p.add_argument("--constellation", required=True)
    p.add_argument("--detectors", default="glrt,sopt",
                   help=f"comma list from {','.join(DETECTOR_TAGS)}; first is the reference")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--antennas", "-N", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snr", type=float, default=10.0)
    p.add_argument("--output", "-o", help="CSV path (default: stdout)")

    p = sub.add_parser("detect", help="detect received blocks from a CSV file")
    p.add_argument("--constellation", required=True)
    p.add_argument("--detector", choices=DETECTOR_TAGS, default="glrt")
    p.add_argument("--input", required=True,
                   help="CSV; row t = re/im interleaved entries of Y column-major "
                        "(4N values per row, the same N on every row)")
    p.add_argument("--output", "-o", help="CSV path (default: stdout)")
    return parser


def _packing_config(args):
    overrides = {k: getattr(args, k) for k in
                 ("starts", "phase1_iters", "phase2_sweeps")
                 if getattr(args, k) is not None}
    return PackingConfig(**overrides) if overrides else None


def _construct(args) -> int:
    B = args.bits
    if not 1 <= B <= MAX_BITS:
        raise InvalidInputError(
            f"bits must lie in 1..{MAX_BITS} (2^{MAX_BITS} codewords take 16 GiB)"
        )
    C = 2**B
    seed = args.seed
    structure = None
    if args.method == "z-opt":
        constellation = build_z_opt(B)
        structure = constellation.structure
    elif args.method == "s-opt":
        if args.packing_file:
            packing = load_packing(args.packing_file)
            if packing.C != C:
                raise InvalidInputError(
                    f"packing holds {packing.C} points but 2^{B} = {C} are needed"
                )
        elif C in EXACT_COUNTS:
            packing = exact_packing(C)
        else:
            packing = optimize_packing(C, seed=seed, config=_packing_config(args))
        constellation = build_s_opt(packing)
    elif args.method == "man-opt":
        constellation = build_man_opt(C, seed=seed, config=_packing_config(args))
    elif args.method == "exp-map":
        constellation = exp_map_constellation(B, symbols=args.symbols)
    elif args.method == "cube-split":
        constellation = build_cube_split(B)
    elif args.method == "grass-lattice":
        if B % 2 != 0:
            raise InvalidInputError(
                "grass-lattice realizes 2^(2*Br) codewords; bits must be even"
            )
        constellation = build_grass_lattice(B // 2, alpha=args.alpha)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInputError(f"unknown method {args.method}")

    cfg_hash = config_hash({"command": "construct", "params": {
        "method": args.method, "B": B, "seed": seed,
        "packing_file": args.packing_file, "alpha": args.alpha,
        "symbols": args.symbols, "output": args.output,
        "starts": args.starts, "phase1_iters": args.phase1_iters,
        "phase2_sweeps": args.phase2_sweeps,
    }})
    save_constellation(args.output, constellation, seed=seed, extra_config=cfg_hash)

    d_min = constellation.min_chordal_distance
    bound = fejes_toth_bound(len(constellation)) if len(constellation) >= 3 else 1.0
    report = {
        "tool_version": __version__,
        "config_hash": cfg_hash,
        "seed": seed,
        "method": args.method,
        "B": B,
        "C": len(constellation),
        "d_min": d_min,
        "fejes_toth_bound": bound,
        "ratio": d_min / bound,
        "n_v": structure.n_v if structure is not None else None,
        "candidate_set_size": structure.candidate_count if structure is not None else None,
    }
    report_path = args.report or (args.output + ".report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.output} (C={len(constellation)}, d_min={d_min:.7f}, "
          f"bound={bound:.7f})")
    return 0


def _evaluate(args) -> int:
    rows = []
    notes = ["bound column is blank for C=2, where the exact value is 1"]
    for path in args.inputs:
        constellation = load_constellation(path)
        d_min = constellation.min_chordal_distance
        C = len(constellation)
        if C >= 3:
            bound = fejes_toth_bound(C)
            rows.append([constellation.method, constellation.B, C,
                         f"{d_min:.10g}", f"{bound:.10g}", f"{d_min / bound:.10g}"])
        else:
            rows.append([constellation.method, constellation.B, C,
                         f"{d_min:.10g}", "", f"{d_min / 1.0:.10g}"])
    header = ["method", "B", "C", "d_min", "fejes_toth_bound", "ratio"]
    cfg_hash = config_hash({"command": "evaluate", "params": {
        "inputs": list(args.inputs), "output": args.output}})
    write_csv(args.output or sys.stdout, header, rows, seed=None, cfg=cfg_hash,
              footnotes=notes)
    return 0


def _bound(args) -> int:
    if args.c_min <= 2:
        raise InvalidInputError("the bound needs C >= 3 (C = 2 is exactly 1)")
    if args.c_max < args.c_min:
        raise InvalidInputError("c-max must be >= c-min")
    rows = [[C, f"{fejes_toth_bound(C):.10g}"] for C in range(args.c_min, args.c_max + 1)]
    cfg_hash = config_hash({"command": "bound", "params": {
        "c_min": args.c_min, "c_max": args.c_max, "output": args.output}})
    write_csv(args.output or sys.stdout, ["C", "fejes_toth_bound"], rows,
              seed=None, cfg=cfg_hash)
    return 0


def _simulate(args) -> int:
    snr = _parse_snr(args.snr)
    if not snr:
        raise InvalidInputError("empty SNR list")
    curve = run_ser(load_constellation(args.constellation), args.detector, snr,
                    trials=args.trials, N=args.antennas, seed=args.seed)
    ser_curve_to_csv(args.output or sys.stdout, curve)
    if args.json_output:
        with open(args.json_output, "w") as fh:
            json.dump(ser_curve_to_json(curve), fh, indent=1)
            fh.write("\n")
    return 0


def _bench(args) -> int:
    tags = [t.strip() for t in args.detectors.split(",") if t.strip()]
    if not tags:
        raise InvalidInputError("need at least one detector")
    reports = bench_detectors(load_constellation(args.constellation), tags,
                              trials=args.trials, N=args.antennas,
                              seed=args.seed, snr_db=args.snr)
    header, rows = bench_rows(reports)
    cfg_hash = config_hash({"command": "bench", "params": {
        "constellation": args.constellation, "detectors": tags,
        "trials": args.trials, "N": args.antennas, "seed": args.seed,
        "snr_db": args.snr, "output": args.output}})
    write_csv(args.output or sys.stdout, header, rows, seed=args.seed, cfg=cfg_hash)
    return 0


def _read_blocks(path) -> np.ndarray:
    """(n, 2, N) received blocks, one per CSV row of re/im interleaved entries.

    Values are separated by commas or whitespace and '#' starts a comment.
    Every row must hold the same 4*N finite values.
    """
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


def _detect(args) -> int:
    constellation = load_constellation(args.constellation)
    det = make_detector(args.detector, constellation)
    idx, evals, comps = det.detect_batch(_read_blocks(args.input))
    rows = [[t, i, e, c] for t, (i, e, c) in
            enumerate(zip(idx.tolist(), evals.tolist(), comps.tolist()))]
    cfg_hash = config_hash({"command": "detect", "params": {
        "constellation": args.constellation, "detector": args.detector,
        "input": args.input, "output": args.output}})
    write_csv(args.output or sys.stdout,
              ["trial", "index", "distance_evals", "comparisons"], rows,
              seed=None, cfg=cfg_hash)
    return 0


_DISPATCH = {
    "construct": _construct,
    "evaluate": _evaluate,
    "bound": _bound,
    "simulate": _simulate,
    "bench": _bench,
    "detect": _detect,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except MemoryError:
        print("error: out of memory; try a smaller problem", file=sys.stderr)
        return 4
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
