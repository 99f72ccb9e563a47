"""Tests of the benchmark itself, on small inputs (about a minute in all).

    PYTHONPATH=src python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COMMAND_UNITS = {
    "sweep": {"simulate_trials_per_s.glrt": "trials/s", "simulate_trials_per_s.sopt": "trials/s",
              "simulate_trials_per_s.zopt": "trials/s", "bench_trials_per_s": "trials/s",
              "detect_rows_per_s": "rows/s"},
    "construct": {**{f"construct_s.{m}": "s" for m in
                     ("z-opt", "s-opt", "exp-map", "cube-split", "grass-lattice")},
                  "evaluate_s": "s"},
}
COMMON_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "fail_share": "ratio"}


def bench(workload, seed, trace=0):
    """Smoke-size run; returns (result, details) from its last two lines."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("details "))


def check_metrics(result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for v in result["metrics"].values():
        assert math.isfinite(v["value"])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, seed):
    result, details = bench(workload, seed)
    check_metrics(result, "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    kind = "construct" if workload == "construct" else "sweep"
    units = {k: v["unit"] for k, v in details["commands"].items()}
    assert units == {**COMMAND_UNITS[kind], **COMMON_UNITS}
    assert details["commands"]["fail_share"]["value"] == 0
    facts = details["facts"]
    for key in ("nproc", "cpu_model", "python", "numpy", "env_found", "env_used",
                "git_sha", "src_sha256", "seed", "passes"):
        assert key in facts
    assert facts["seed"] == seed


@pytest.mark.parametrize("workload", NAMES)
def test_counters_repeat_across_runs_of_one_seed(workload):
    first = bench(workload, 4)[1]["counters"]
    assert first
    assert bench(workload, 4)[1]["counters"] == first


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer_metric_and_repeats_its_counts(workload):
    runs = [bench(workload, 3, trace=1)[0] for _ in range(2)]
    for result in runs:
        check_metrics(result, "per_layer")
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]


def _tiny_case(tmp_path):
    s = 1.0 / math.sqrt(2.0)
    codewords = [[1, 0, 0, 0], [0, 0, 1, 0], [s, 0, s, 0], [s, 0, 0, s]]
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"codewords": codewords}))
    rx = tmp_path / "rx.csv"
    workloads.write_received(rx, workloads.read_codewords(cfile), 12, 2, 20.0, seed=5)
    Y = workloads.read_received(rx, 2)
    X = workloads.read_codewords(cfile)
    scores = (np.abs(np.einsum("rkn,ck->rcn", Y.conj(), X)) ** 2).sum(axis=2)
    return cfile, rx, scores.argmax(axis=1)


def _write_decisions(path, indices):
    lines = ["# format_version=1", "trial,index,distance_evals,comparisons"]
    lines += [f"{t},{i},4,4" for t, i in enumerate(indices)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_gate_passes_brute_force_decisions(tmp_path):
    cfile, rx, best = _tiny_case(tmp_path)
    files = [_write_decisions(tmp_path / f"d{k}.csv", best) for k in range(3)]
    gate = workloads.Gate()
    workloads.check_detect(cfile, rx, files, 2, gate)
    assert gate.failed == 0 and gate.attempted == 3 * len(best)


def test_gate_fails_on_a_mismatched_decision_file(tmp_path):
    cfile, rx, best = _tiny_case(tmp_path)
    wrong = best.copy()
    wrong[3] = (wrong[3] + 1) % 4
    files = [_write_decisions(tmp_path / "d0.csv", best),
             _write_decisions(tmp_path / "d1.csv", wrong),
             _write_decisions(tmp_path / "d2.csv", best)]
    gate = workloads.Gate()
    workloads.check_detect(cfile, rx, files, 2, gate)
    assert gate.failed == 2
    assert set(gate.notes) == {"d1.csv not a maximizer",
                               "detect indices differ between detectors"}


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
