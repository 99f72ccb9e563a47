"""Benchmark of the grassbloch CLI: one workload per process.

    python3 benchmark/run.py --workload sweep-b12 --seed 1 --seconds 20 --trace 0

Runs the workload's script of `grassbloch` commands through in-process calls
to `grassbloch.cli.main(argv)` for about --seconds seconds, checks every
output, and prints a readable report followed by one JSON line with the
metrics BENCHMARK.json declares: the end-to-end ones with --trace 0, the
per-layer ones (from a traced pass, see tracing.py) with --trace 1. The
program is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_VAR = "GRASSBLOCH_THREADS"
#: set-ups per run: at least SETUP_MIN, more while under SETUP_SECONDS
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 15, 6.0


def _limit_threads() -> dict:
    """Run on one CPU with one BLAS thread; leave grassbloch's default in force.

    The speed probe (speed.py) can only track the CPU the work runs on, so
    the process and its set-up children stay on the first CPU they may use.
    Runs before numpy is imported; returns the settings as found and as set.
    """
    cpus = sorted(os.sched_getaffinity(0))
    seen = {v: os.environ.get(v) for v in (*BLAS_VARS, THREADS_VAR)}
    for v in BLAS_VARS:
        os.environ[v] = "1"
    os.environ.pop(THREADS_VAR, None)
    os.sched_setaffinity(0, cpus[:1])
    return {"nproc": len(cpus), "cpu_used": cpus[0], "env_found": seen,
            "env_used": {v: os.environ.get(v) for v in (*BLAS_VARS, THREADS_VAR)}}


THREAD_FACTS = _limit_threads()
sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (after the thread caps, before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.WORKLOADS), default="full",
                    help="input sizes; 'smoke' is for the benchmark's own tests")
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_cli():
    sys.path.insert(0, str(SRC))
    from grassbloch import cli

    return cli


def _call(main, argv):
    """One CLI call with its stdout discarded; returns (exit code, seconds)."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        code = main(argv)
        return code, time.perf_counter() - t0


def probe_setup(args) -> int:
    """Child process: import the program, build the inputs, report ready."""
    cli = _import_cli()
    w = workloads.WORKLOADS[args.scale][args.workload]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        workloads.setup(w, args.setup_probe, args.seed, cli.main)
    print("ready", flush=True)
    return 0


def measure_setup(args, workdir, probe) -> list:
    """Wall times from process start to inputs built, in fresh processes.

    Set-ups run until SETUP_MIN of them and SETUP_SECONDS have passed. The
    speed probe runs three times around each, so the set-up window gets its
    own speed scale. The inputs are left in `workdir`.
    """
    times = []
    limit = 1 if args.scale != "full" else SETUP_MAX
    while len(times) < limit and (len(times) < SETUP_MIN or sum(times) < SETUP_SECONDS):
        d = workdir / f"setup-{len(times)}"
        d.mkdir()
        for _ in range(3):
            probe()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale,
               "--setup-probe", str(d)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} without finishing")
        times.append(t1 - t0)
        if len(times) > 1:
            shutil.rmtree(d)
    for _ in range(3):
        probe()
    shutil.copytree(workdir / "setup-0", workdir, dirs_exist_ok=True)
    return times


def run_pass(w, steps, workdir, main, gate, samples, probe) -> tuple:
    """One pass of the script; returns (wall seconds of the calls, counters)."""
    wall = 0.0
    for name, argv in steps:
        probe()
        code, dt = _call(main, argv)
        probe()
        gate.add(1, int(code != 0), f"{name} exited {code}")
        samples.setdefault(name, []).append(dt)
        wall += dt
    return wall, workloads.check(w, workdir, gate)


def high_percentile(values):
    """(percentile, value) of the highest sample with ten samples above it.

    None when that point would not lie above the median (under 21 samples).
    """
    n = len(values)
    k = n - 11
    if 2 * k < n - 1:
        return None, None
    return round(100.0 * k / (n - 1), 1), sorted(values)[k]


def summarize(values, unit, k, work=None):
    """Median and high percentile of wall-time samples in reference seconds.

    `k` scales wall seconds to reference seconds; with `work` the figures
    are work per reference second, so the slow tail is the low end.
    """
    conv = (lambda t: work / (k * t)) if work else (lambda t: k * t)
    out = {"value": conv(statistics.median(values)), "unit": unit,
           "samples": len(values), "wall_median": statistics.median(values)}
    pct, hi = high_percentile(values)
    if pct is not None:
        out[f"p{pct}"] = conv(hi)
    return out


def command_metrics(w, samples, k, rss_mb, gate) -> dict:
    """The per-command figures of the workload, named as in README.md."""
    m = {}
    if isinstance(w, workloads.Sweep):
        n_snr = len(w.snr.split(","))
        for d in workloads.DETECTORS:
            m[f"simulate_trials_per_s.{d}"] = summarize(
                samples[f"simulate:{d}"], "trials/s", k, w.trials * n_snr)
        m["bench_trials_per_s"] = summarize(samples["bench"], "trials/s", k, w.trials)
        det = [sum(t) for t in zip(*(samples[f"detect:{d}"] for d in workloads.DETECTORS))]
        m["detect_rows_per_s"] = summarize(det, "rows/s", k, 3 * w.rows)
    else:
        for meth, _ in w.methods:
            m[f"construct_s.{meth}"] = summarize(samples[f"construct:{meth}"], "s", k)
        m["evaluate_s"] = summarize(samples["evaluate"], "s", k)
    m["peak_rss_mb"] = {"value": rss_mb, "unit": "MB", "samples": 1}
    m["fail_share"] = {"value": gate.failed / max(gate.attempted, 1), "unit": "ratio",
                       "samples": 1}
    return m


def run_facts(args, passes) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    digest = hashlib.sha256()
    for f in sorted((SRC / "grassbloch").glob("*.py")):
        digest.update(f.name.encode() + f.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "scale": args.scale, "trace": args.trace, "passes": passes,
            **THREAD_FACTS, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16]}


def declared(kind) -> dict:
    """name -> unit for one metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def result_line(gate, values, kind) -> str:
    units = declared(kind)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           f"BENCHMARK.json {kind}")
    return json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })


def untraced_run(args, w, workdir, gate):
    """Set-up probes, then untraced passes for about --seconds.

    Returns the end-to-end metrics and the run's details.
    """
    setup_probe, probe = speed.SpeedProbe(), speed.SpeedProbe()
    setup_times = measure_setup(args, workdir, setup_probe)
    main = _import_cli().main
    steps = workloads.script(w, workdir, args.seed)
    samples, walls, first = {}, [], None
    t_start = time.perf_counter()
    while True:
        wall, counters = run_pass(w, steps, workdir, main, gate, samples, probe)
        walls.append(wall)
        first = first or counters
        gate.add(0, int(counters != first), "counters changed between passes")
        if time.perf_counter() - t_start + statistics.median(walls) > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    k = probe.scale
    commands = command_metrics(w, samples, k, rss_mb, gate)
    commands["setup_s"] = summarize(setup_times, "s", setup_probe.scale)
    per_call = [statistics.median(v) for v in samples.values()]
    metrics = {"setup_s": commands["setup_s"]["value"],
               "script_s": k * sum(per_call),
               "geomean_call_s": k * math.exp(statistics.fmean(map(math.log, per_call))),
               "peak_rss_mb": rss_mb}
    details = {"facts": {**run_facts(args, len(walls)), "speed_scale": k,
                         "setup_speed_scale": setup_probe.scale},
               "commands": commands, "counters": first, "failures": gate.notes,
               "samples": {"setup": setup_times, "setup_probe": setup_probe.times,
                           "probe": probe.times, **samples}}
    return metrics, details


def traced_run(args, w, workdir, gate):
    """Traced set-up, then alternating untraced and traced passes.

    Returns the per-layer metrics and the run's details.
    """
    cli = _import_cli()
    tracer = tracing.Tracer(args.workload)
    tracer.install()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            workloads.setup(w, workdir, args.seed, cli.main)
    finally:
        tracer.uninstall()
    steps = workloads.script(w, workdir, args.seed)
    probe = speed.SpeedProbe()
    plain, traced, samples = [], [], {}
    t_start = time.perf_counter()
    while True:
        wall, counters = run_pass(w, steps, workdir, cli.main, gate, samples, probe)
        plain.append(wall)
        tracer.run = len(traced) + 1
        tracer.install()
        try:
            wall, counters = run_pass(w, steps, workdir, cli.main, gate, {}, probe)
        finally:
            tracer.uninstall()
        traced.append(wall)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(plain) + statistics.median(traced) > args.seconds:
            break
    m = tracing.layer_metrics(tracer, len(traced))
    for d in workloads.DETECTORS:
        m[f"detectors.distance_evals.{d}"] = counters.get(f"bench.{d}.mean_distance_evals", 0.0)
        m[f"detectors.comparisons.{d}"] = counters.get(f"bench.{d}.mean_comparisons", 0.0)
    m["detectors.max_distance_evals.zopt"] = counters.get("bench.zopt.max_distance_evals", 0)
    shares = {label: tracing.command_breakdown(tracer, label)
              for label in ("simulate:sopt", "simulate:glrt")}
    m["kdtree.share_of_simulate_sopt"] = shares["simulate:sopt"].get("kdtree", 0.0)
    m["rng.share_of_simulate_glrt"] = shares["simulate:glrt"].get("rng", 0.0)
    m["trace.overhead_share"] = tracing.overhead_share(plain, traced)
    tracer.dump(RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {"facts": {**run_facts(args, len(plain)), "speed_scale": probe.scale},
               "commands": command_metrics(w, samples, probe.scale, rss_mb, gate),
               "counters": counters, "failures": gate.notes, "layer_shares": shares,
               "pass_walls": {"untraced": plain, "traced": traced}}
    return m, details


def print_report(args, details, metrics, gate):
    print(f"grassbloch benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for name, s in details["commands"].items():
        extra = "".join(f", {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name:<34} {s['value']:>14.6g} {s['unit']:<9} (median of "
              f"{s['samples']}{extra})")
    units = declared("per_layer" if args.trace else "end_to_end")
    for name, v in metrics.items():
        print(f"  {name:<34} {v:>14.6g} {units[name]}")
    print(f"  operations attempted {gate.attempted}, failed {gate.failed}")
    for note, n in gate.notes.items():
        print(f"  FAILED {n}x: {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grassbloch" / "cli.py").is_file():
        print(f"error: no grassbloch sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_setup(args)
    w = workloads.WORKLOADS[args.scale][args.workload]
    gate = workloads.Gate()
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            metrics, details = traced_run(args, w, workdir, gate)
        else:
            metrics, details = untraced_run(args, w, workdir, gate)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(args, details, metrics, gate)
    (RUNS / f"result-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    print("details " + json.dumps(details))
    print(result_line(gate, metrics, "per_layer" if args.trace else "end_to_end"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
