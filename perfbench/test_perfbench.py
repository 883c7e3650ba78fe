"""Smoke tests for the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q

Each workload runs at its smoke size in a subprocess, as the benchmark
command does: every named metric is printed, the output check passes
with no failures, the simulated metrics repeat exactly, and the traced
run reproduces the untraced fingerprint.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import RAW_PREFIX, load_metrics
from spec import LAYERS, per_layer_names
from tracer import read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIM = ("sim_kiops", "sim_p99_us", "write_amp")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END, PER_LAYER = load_metrics()
WALL = ("wall_kops", "setup_s", "call_p50_us", "call_p99_us")


def run(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--smoke"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return done


def result_of(done):
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def fingerprint(lines, label):
    for line in lines:
        if label in line:
            return line.split(label)[1].split()[0].rstrip(",")
    raise AssertionError(f"no {label!r} line")


def test_every_per_layer_metric_has_its_moves_entry():
    assert list(PER_LAYER) == per_layer_names()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end_is_correct_and_exact(workload):
    first, lines = result_of(run(workload, 0))
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] > 0
    assert set(first["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in first["metrics"].values())
    raw = json.loads(lines[-2].removeprefix(RAW_PREFIX))
    assert set(raw) == set(WALL)
    second, lines2 = result_of(run(workload, 0))
    for name in SIM:
        assert first["metrics"][name] == second["metrics"][name]
    assert fingerprint(lines, "fingerprint ") == fingerprint(lines2, "fingerprint ")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_matches_untraced(workload):
    traced, lines = result_of(run(workload, 1))
    untraced, plain_lines = result_of(run(workload, 0))
    assert traced["correct"] and traced["failed"] == 0
    assert fingerprint(lines, "untraced fingerprint ") == fingerprint(
        plain_lines, "fingerprint ")
    assert fingerprint(lines, "traced   fingerprint ") == fingerprint(
        plain_lines, "fingerprint ")
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    assert metrics["kvstore.calls_per_op"] > 0
    assert metrics["mem.calls_per_op"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    only_here = {
        "repl-cluster": [
            name for name in metrics
            if name.split(".")[0] in ("replication", "cluster", "obs")
        ] + ["persist.cursor_records_per_op"],
        "engines": [
            name for name in metrics
            if name.split(".")[0] in ("baselines", "sstable", "btree")
        ],
    }
    for home, names in only_here.items():
        for name in names:
            if workload == home:
                continue
            assert metrics[name] == 0, (workload, name)
    for layer in ("replication", "cluster", "obs"):
        assert (metrics[f"{layer}.calls_per_op"] > 0) == (workload == "repl-cluster")
    for layer in ("baselines", "sstable", "btree"):
        assert (metrics[f"{layer}.calls_per_op"] > 0) == (workload == "engines")
    assert (metrics["core.calls_per_op"] > 0) == (workload != "engines")
    if workload == "ycsb-a":  # writes under reads reach a lazy copy
        assert metrics["core.lazy_copy_count"] > 0
    assert set(LAYERS) <= {name.split(".")[0] for name in metrics}

    header, spans = read_spans(HERE / "out" / f"{workload}-seed3.spans")
    assert header["spans"] == len(spans["name"]) > 0
    for sid, (parent, trace, start, end) in enumerate(zip(
            spans["parent"], spans["trace"], spans["start"], spans["end"])):
        assert start <= end
        if parent == -1:
            assert trace == sid
        else:
            assert spans["start"][parent] <= start <= end <= spans["end"][parent]
            assert trace == spans["trace"][parent]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("ycsb-a", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
