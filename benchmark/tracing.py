"""Outside-in tracing of grassbloch from the benchmark's side.

The tracer replaces the program's public functions with timing wrappers at
every module attribute and class attribute the program looks them up
through, so no source file changes. Each call becomes a span (name, layer,
start, end, parent, pass id); hot helpers only bump a counter. Spans stay in
memory until the run ends, and `layer_metrics` turns them into the per-layer
numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass

LAYERS = ("rng", "channel", "detectors", "kdtree", "geometry", "zopt",
          "packing", "builders", "formats", "cli")
_DET_CLASS = {"glrt": "GlrtDetector", "sopt": "SoptDetector", "zopt": "ZoptDetector"}


def _rows(args, kwargs, result):
    return len(args[0])


def _method_rows(args, kwargs, result):
    return len(args[1])


def _result_size(args, kwargs, result):
    return int(result.size)


def _query_rows(args, kwargs, result):
    return len(result[0])


def _pairs(args, kwargs, result):
    n = len(args[0])
    return n * (n - 1) // 2


def _file_bytes(args, kwargs, result):
    path = args[0]
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _packing_min_distance(args, kwargs, result):
    return result.min_distance


def _cli_label(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if not argv:
        return ""
    label = argv[0]
    for flag in ("--detector", "--method"):
        if flag in argv:
            label += ":" + argv[argv.index(flag) + 1]
    return label


# (layer, module, attribute, measure); the measure gives the span's size
# (rows, draws, pairs, bytes or a quality figure) from the call.
SPANS = (
    ("cli", "cli", "main", None),
    ("rng", "rng", "complex_normal", _result_size),
    ("rng", "rng", "uniform_index", _result_size),
    ("rng", "rng", "stream_key_vec", None),
    ("channel", "channel", "run_ser", None),
    ("channel", "channel", "bench_detectors", None),
    ("channel", "channel", "make_detector", None),
    ("detectors", "detectors", "rough_estimate_batch", _rows),
    ("detectors", "detectors", "GlrtDetector.detect_batch", _method_rows),
    ("detectors", "detectors", "SoptDetector.detect_batch", _method_rows),
    ("detectors", "detectors", "ZoptDetector.detect_batch", _method_rows),
    ("detectors", "detectors", "GlrtDetector.detect", None),
    ("detectors", "detectors", "SoptDetector.detect", None),
    ("detectors", "detectors", "ZoptDetector.detect", None),
    ("kdtree", "kdtree", "KDTree.__init__", None),
    ("kdtree", "kdtree", "KDTree.query", _query_rows),
    ("geometry", "geometry", "Constellation.__init__", None),
    ("geometry", "geometry", "min_chordal_distance_array", None),
    ("geometry", "geometry", "min_euclidean_distance_array", None),
    ("geometry", "geometry", "pairwise_min_bloch_dot", _pairs),
    ("zopt", "zopt", "build_z_opt", None),
    ("zopt", "zopt", "optimize_zopt", None),
    ("zopt", "zopt", "realize_codewords", None),
    ("packing", "packing", "optimize_packing", _packing_min_distance),
    ("builders", "builders", "build_s_opt", None),
    ("builders", "builders", "exp_map_constellation", None),
    ("builders", "builders", "build_cube_split", None),
    ("builders", "builders", "build_grass_lattice", None),
    ("formats", "formats", "load_constellation", None),
    ("formats", "formats", "save_constellation", _file_bytes),
    ("formats", "formats", "write_csv", _file_bytes),
    ("formats", "formats", "ser_curve_to_csv", None),
)

# Helpers called hundreds of thousands of times get a counter, not a span.
# Counters are kept per lookup site: (module the call goes through, name).
COUNTS = (
    ("zopt", "diagonal_chord"),
    ("zopt", "vertical_chord"),
    ("zopt", "candidate_distances"),
    ("geometry", "canonicalize_array"),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    run: int
    n: float = 0
    label: str = ""

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs wrappers, collects spans and counts, and removes the wrappers."""

    def __init__(self, workload: str):
        self.workload = workload
        self.run = 0
        self.spans: list[Span] = []
        self.counts: dict[tuple, int] = {}
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, name, layer, measure):
        tracer = self
        describe = _cli_label if name == "cli.main" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.run)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.n = measure(args, kwargs, result)
            if describe is not None:
                span.label = describe(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key + (tracer.run,)
            counts[k] = counts.get(k, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at each place the package exposes it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "grassbloch" or n.startswith("grassbloch.")]
        for layer, mod, attr, measure in SPANS:
            module = importlib.import_module("grassbloch." + mod)
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._span_wrapper(cls.__dict__[meth], name,
                                                        layer, measure))
                continue
            original = getattr(module, attr)
            wrapper = self._span_wrapper(original, name, layer, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        for mod, attr in COUNTS:
            original = getattr(importlib.import_module("grassbloch." + mod), attr)
            for m in modules:
                if vars(m).get(attr) is original:
                    site = m.__name__.rpartition(".")[2]
                    self._set(m, attr, self._count_wrapper(original, (site, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        """Write the spans and counts as JSON lines."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "workload": self.workload, **asdict(s)}
                fh.write(json.dumps(rec) + "\n")
            for (site, name, run), c in sorted(self.counts.items()):
                fh.write(json.dumps({"count": f"{site}.{name}", "run": run,
                                     "workload": self.workload, "n": c}) + "\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics for one set-up plus one pass of the workload script.

    Spans from set-up (run 0) count once; spans from the traced passes
    (runs 1..passes) are averaged over the passes, so counts stay exact
    integers when every pass does the same work. Per-row figures use the
    batch path only: spans below a `channel` span.
    """
    spans = tracer.spans
    weight = [1.0 if s.run == 0 else 1.0 / passes for s in spans]
    child_time = [0.0] * len(spans)
    batch = [False] * len(spans)
    for i, s in enumerate(spans):  # parents precede their children
        if s.parent >= 0:
            child_time[s.parent] += s.dur
            batch[i] = batch[s.parent] or spans[s.parent].layer == "channel"

    def named(name, pred=lambda i: True):
        return [i for i, s in enumerate(spans) if s.name == name and pred(i)]

    def wsum(idx, value):
        return sum(weight[i] * value(i) for i in idx)

    def dur(i):
        return spans[i].dur

    def size(i):
        return spans[i].n

    def one(i):
        return 1.0

    def count(site, name):
        return sum((1.0 if run == 0 else 1.0 / passes) * c
                   for (st, nm, run), c in tracer.counts.items()
                   if st == site and nm == name)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def exact(x):
        return int(round(x))

    def total_dur(name):
        return wsum(named(name), dur)

    m = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s.layer == layer]
        m[f"{layer}.self_s"] = wsum(idx, lambda i: spans[i].dur - child_time[i])

    draws = wsum(named("rng.complex_normal") + named("rng.uniform_index"), size)
    m["rng.draws"] = exact(draws)
    m["rng.ns_per_draw"] = per(m["rng.self_s"], draws, 1e9)

    direct = lambda i: spans[spans[i].parent].layer == "channel"  # noqa: E731
    det_batch = {det: named(f"detectors.{cls}.detect_batch", direct)
                 for det, cls in _DET_CLASS.items()}
    all_batch = sum(det_batch.values(), [])
    m["channel.detect_batch_calls"] = exact(wsum(all_batch, one))
    m["channel.rows_per_detect_call"] = per(exact(wsum(all_batch, size)),
                                            m["channel.detect_batch_calls"])

    rough = named("detectors.rough_estimate_batch", lambda i: batch[i])
    m["detectors.rough_estimate.us_per_row"] = per(wsum(rough, dur), wsum(rough, size), 1e6)
    queries = named("kdtree.KDTree.query")
    for det, idx in det_batch.items():
        busy = wsum(idx, dur)
        if det == "sopt":
            mine = set(idx)
            busy -= wsum([i for i in queries if spans[i].parent in mine], dur)
        m[f"detectors.{det}.us_per_row"] = per(busy, wsum(idx, size), 1e6)
    for det, cls in _DET_CLASS.items():
        idx = named(f"detectors.{cls}.detect")
        m[f"detectors.detect.us_per_call.{det}"] = per(wsum(idx, dur), wsum(idx, one), 1e6)

    batch_queries = [i for i in queries if batch[i]]
    m["kdtree.query.us_per_row"] = per(wsum(batch_queries, dur),
                                       wsum(batch_queries, size), 1e6)
    m["kdtree.query_calls"] = exact(wsum(queries, one))
    m["kdtree.build_s"] = total_dur("kdtree.KDTree.__init__")

    m["geometry.min_distance_s"] = (total_dur("geometry.min_chordal_distance_array")
                                    + total_dur("geometry.min_euclidean_distance_array"))
    m["geometry.pairs_scanned"] = exact(wsum(named("geometry.pairwise_min_bloch_dot"), size))
    m["geometry.constellation_init_s"] = total_dur("geometry.Constellation.__init__")

    m["zopt.optimize_s"] = total_dur("zopt.optimize_zopt")
    m["zopt.chord_evals"] = exact(sum(count("zopt", f) for f in
                                      ("diagonal_chord", "vertical_chord",
                                       "candidate_distances")))
    m["zopt.realize_s"] = total_dur("zopt.realize_codewords")

    m["packing.optimize_s"] = total_dur("packing.optimize_packing")
    quality = [spans[i].n for i in named("packing.optimize_packing")]
    m["packing.min_distance"] = min(quality) if quality else 0.0

    m["builders.s_opt_s"] = total_dur("builders.build_s_opt")
    m["builders.exp_map_s"] = total_dur("builders.exp_map_constellation")
    m["builders.cube_split_s"] = total_dur("builders.build_cube_split")
    m["builders.grass_lattice_s"] = total_dur("builders.build_grass_lattice")
    m["builders.scale_probes"] = exact(count("builders", "canonicalize_array"))

    m["formats.load_s"] = total_dur("formats.load_constellation")
    m["formats.save_s"] = total_dur("formats.save_constellation")
    m["formats.write_csv_s"] = total_dur("formats.write_csv")
    m["formats.bytes_written"] = exact(wsum(named("formats.save_constellation")
                                            + named("formats.write_csv"), size))
    return m


def command_breakdown(tracer: Tracer, label: str) -> dict:
    """Self time per layer inside the traced `cli.main` spans with this label.

    Shares are of the spans' total duration; they show which layer a CLI
    command spends its time in.
    """
    spans = tracer.spans
    roots = {i for i, s in enumerate(spans)
             if s.name == "cli.main" and s.label == label and s.run > 0}
    if not roots:
        return {}
    inside = set(roots)
    for i, s in enumerate(spans):
        if s.parent in inside:
            inside.add(i)
    child_time = dict.fromkeys(inside, 0.0)
    for i in inside:
        if spans[i].parent in inside:
            child_time[spans[i].parent] += spans[i].dur
    wall = sum(spans[i].dur for i in roots)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for i in inside:
        by_layer[spans[i].layer] += spans[i].dur - child_time[i]
    return {layer: t / wall for layer, t in by_layer.items()}


def overhead_share(untraced: list, traced: list) -> float:
    """Median traced pass over median untraced pass, minus one."""
    return statistics.median(traced) / statistics.median(untraced) - 1.0
