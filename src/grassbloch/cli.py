"""Command-line surface: construct, evaluate, bound, simulate, bench, detect.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 degenerate
input or out of memory. Every file a command writes records one config hash,
of the command name and every argument but the output destinations
(`OUTPUTS`), so the same run written to two places gives the same bytes; two
outputs of one command that name the same file, or an output that names one
of its input files, exit 2 before anything is written. `simulate` and
`bench` run one worker thread per CPU in the process's affinity mask; the
GRASSBLOCH_THREADS environment variable asks for fewer, and a value that is
not an integer >= 1 exits 2. Every file is read and written through
`formats`; this module parses only its arguments. Each command imports
the modules it runs when it runs, so importing this module loads no
builder, packing, channel or detector code.

`main` called again in one process reuses what it built: the parser, and
the last `--constellation` file's constellation while that file's bytes are
unchanged (keyed by their SHA-256, so a rewrite of the same size and mtime
is read again), and with it the detectors `make_detector` built for it. The
file is read once per call, and the bytes hashed are the bytes parsed. A
load that fails keeps nothing. `evaluate` and `construct` keep nothing.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys

from . import __version__
from .errors import DegenerateInputError, FormatError, InvalidInputError
from .formats import (
    bench_rows,
    config_hash,
    constellation_from_bytes,
    load_constellation,
    load_packing,
    provenance,
    read_blocks,
    read_bytes,
    save_constellation,
    ser_curve_to_csv,
    ser_curve_to_json,
    write_csv,
    write_json,
)
from .geometry import DETECTOR_TAGS, METHOD_TAGS, fejes_toth_bound
from .zopt import build_z_opt, candidate_distances

#: every tag but "external", which only files from elsewhere carry
METHODS = tuple(m for m in METHOD_TAGS if m != "external")
#: most SNR points a 'start:stop:step' range may expand to
MAX_SNR_POINTS = 10_000
#: largest `construct -B`: 2^30 codewords already take 16 GiB
MAX_BITS = 30
#: arguments that name where a command writes; the config hash leaves them out
OUTPUTS = ("output", "report", "json_output")
#: arguments that name one file a command reads (evaluate's `inputs` name several)
INPUTS = ("constellation", "input", "packing_file")


#: (SHA-256 digest of its bytes, constellation) of the last --constellation
#: file that loaded, or None
_last_constellation = None


def _constellation_arg(path):
    """The constellation in the --constellation file `path`. The file is read
    once; while its bytes match the last file that loaded, that file's
    constellation, and so its detectors (`make_detector`), serve again. A
    load that raises keeps nothing."""
    global _last_constellation
    data = read_bytes(path)
    digest = hashlib.sha256(data).digest()
    last = _last_constellation
    if last is None or last[0] != digest:
        last = (digest, constellation_from_bytes(data, path))
        _last_constellation = last
    return last[1]


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
    from .packing import PackingConfig

    overrides = {k: getattr(args, k) for k in
                 ("starts", "phase1_iters", "phase2_sweeps")
                 if getattr(args, k) is not None}
    return PackingConfig(**overrides) if overrides else None


def _config_hash(args) -> str:
    """The hash every file of this command records: its name and every
    argument except the output destinations, input paths as given."""
    return config_hash({k: v for k, v in vars(args).items() if k not in OUTPUTS})


def _check_outputs(args) -> None:
    """Exit 2 before anything is written if two outputs name one file or an
    output names one of the command's inputs."""
    given = [getattr(args, k) for k in OUTPUTS if getattr(args, k, None)]
    if len({os.path.realpath(p) for p in given}) < len(given):
        raise InvalidInputError("two outputs name the same file: " + ", ".join(given))
    inputs = [getattr(args, k) for k in INPUTS if getattr(args, k, None)]
    inputs += getattr(args, "inputs", None) or []
    read = {os.path.realpath(p) for p in inputs}
    for p in given:
        if os.path.realpath(p) in read:
            raise InvalidInputError(f"output {p} names an input file")


def _construct(args, cfg_hash) -> int:
    B = args.bits
    if not 1 <= B <= MAX_BITS:
        raise InvalidInputError(
            f"bits must lie in 1..{MAX_BITS} (2^{MAX_BITS} codewords take 16 GiB)"
        )
    C = 2**B
    seed = args.seed
    n_v = candidates = None
    if args.method == "z-opt":
        constellation = build_z_opt(B)
        s = constellation.structure
        n_v = s.n_v
        candidates = candidate_distances(constellation.theta[:n_v], s).count
    elif args.method == "s-opt":
        from .builders import build_s_opt
        from .packing import EXACT_COUNTS, exact_packing, optimize_packing

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
        from .builders import build_man_opt

        constellation = build_man_opt(C, seed=seed, config=_packing_config(args))
    elif args.method == "exp-map":
        from .builders import exp_map_constellation

        constellation = exp_map_constellation(B, symbols=args.symbols)
    elif args.method == "cube-split":
        from .builders import build_cube_split

        constellation = build_cube_split(B)
    elif args.method == "grass-lattice":
        if B % 2 != 0:
            raise InvalidInputError(
                "grass-lattice realizes 2^(2*Br) codewords; bits must be even"
            )
        from .builders import build_grass_lattice

        constellation = build_grass_lattice(B // 2, alpha=args.alpha)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInputError(f"unknown method {args.method}")

    save_constellation(args.output, constellation, seed=seed, cfg_hash=cfg_hash)

    d_min = constellation.min_chordal_distance
    bound = fejes_toth_bound(len(constellation)) if len(constellation) >= 3 else 1.0
    report = {
        **provenance(seed, cfg_hash),
        "method": args.method,
        "B": B,
        "C": len(constellation),
        "d_min": d_min,
        "fejes_toth_bound": bound,
        "ratio": d_min / bound,
        "n_v": n_v,
        "candidate_set_size": candidates,
    }
    write_json(args.report, report)
    print(f"wrote {args.output} (C={len(constellation)}, d_min={d_min:.7f}, "
          f"bound={bound:.7f})")
    return 0


def _evaluate(args, cfg_hash) -> int:
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
    write_csv(args.output or sys.stdout, header, rows, seed=None, cfg_hash=cfg_hash,
              footnotes=notes)
    return 0


def _bound(args, cfg_hash) -> int:
    if args.c_min <= 2:
        raise InvalidInputError("the bound needs C >= 3 (C = 2 is exactly 1)")
    if args.c_max < args.c_min:
        raise InvalidInputError("c-max must be >= c-min")
    rows = [[C, f"{fejes_toth_bound(C):.10g}"] for C in range(args.c_min, args.c_max + 1)]
    write_csv(args.output or sys.stdout, ["C", "fejes_toth_bound"], rows,
              seed=None, cfg_hash=cfg_hash)
    return 0


def _simulate(args, cfg_hash) -> int:
    from .channel import run_ser

    curve = run_ser(_constellation_arg(args.constellation), args.detector,
                    _parse_snr(args.snr), trials=args.trials, N=args.antennas, seed=args.seed)
    ser_curve_to_csv(args.output or sys.stdout, curve, cfg_hash=cfg_hash)
    if args.json_output:
        write_json(args.json_output, ser_curve_to_json(curve, cfg_hash=cfg_hash))
    return 0


def _bench(args, cfg_hash) -> int:
    from .channel import bench_detectors

    tags = [t.strip() for t in args.detectors.split(",") if t.strip()]
    reports = bench_detectors(_constellation_arg(args.constellation), tags,
                              trials=args.trials, N=args.antennas,
                              seed=args.seed, snr_db=args.snr)
    header, rows = bench_rows(reports)
    write_csv(args.output or sys.stdout, header, rows, seed=args.seed, cfg_hash=cfg_hash)
    return 0


def _detect(args, cfg_hash) -> int:
    from .channel import make_detector

    det = make_detector(args.detector, _constellation_arg(args.constellation))
    idx, evals, comps = det.detect_batch(read_blocks(args.input))
    rows = [[t, i, e, c] for t, (i, e, c) in
            enumerate(zip(idx.tolist(), evals.tolist(), comps.tolist()))]
    write_csv(args.output or sys.stdout,
              ["trial", "index", "distance_evals", "comparisons"], rows,
              seed=None, cfg_hash=cfg_hash)
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
    if args.command == "construct" and not args.report:
        args.report = args.output + ".report.json"  # so _check_outputs sees it
    try:
        _check_outputs(args)
        return _DISPATCH[args.command](args, _config_hash(args))
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
