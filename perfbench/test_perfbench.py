"""The benchmark's own checks, on short traces.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import pytest

import repro.runtime.runtime as runtime_module
from repro.analytics import execute_subquery

import bench
import run
from tracing import Tracer, instrument

REPLAY_S = 9.0
TRAIN_S = 6.0


@pytest.fixture(scope="module")
def plans():
    train = bench.training_trace(5, TRAIN_S)
    return {
        name: bench.set_up(workload, train).plan
        for name, workload in bench.WORKLOADS.items()
        if name != "chaos8"
    }


@pytest.fixture(scope="module")
def replay():
    return bench.replay_trace(6, REPLAY_S)


def _plan_for(plans, name):
    return plans["filterdp8" if name == "chaos8" else name]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_per_window_driving_equals_full_run(plans, replay, name):
    workload = bench.WORKLOADS[name]
    plan = _plan_for(plans, name)
    full = bench.make_runtime(plan, workload).run(replay, window=bench.WINDOW_S)
    per_window = bench.replay_pass(
        bench.make_runtime(plan, workload).run, bench.split_windows(replay)
    )
    assert [bench.window_digest(w) for w in full.windows] == [
        w.digest for w in per_window
    ]
    faults = {}
    for w in per_window:
        for channel, count in w.faults_injected.items():
            faults[channel] = faults.get(channel, 0) + count
    assert faults == full.total_faults()
    if workload.faults:
        assert sum(faults.values()) > 0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_runtime_matches_untraced(plans, replay, name):
    workload = bench.WORKLOADS[name]
    plan = _plan_for(plans, name)
    windows = bench.split_windows(replay)
    untraced = bench.replay_pass(bench.make_runtime(plan, workload).run, windows)
    tracer = Tracer()
    with instrument(bench.make_runtime(plan, workload), tracer) as traced_run:
        traced = bench.replay_pass(traced_run, windows, tracer)
    assert [w.digest for w in traced] == [w.digest for w in untraced]
    assert tracer.self_s["switch.window"] > 0
    assert tracer.self_s["runtime.window"] > 0
    # The module-level patch is undone when the block ends.
    assert runtime_module.execute_subquery is execute_subquery


def test_live_oracle_matches_batched(plans, replay):
    workload = bench.WORKLOADS["chaos8"]
    plan = _plan_for(plans, "chaos8")
    oracle = bench.live_oracle(plan, workload, replay)
    batched = bench.replay_pass(
        bench.make_runtime(plan, workload).run, bench.split_windows(replay)
    )
    assert oracle == [w.digest for w in batched]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_metric_names_match_benchmark_json(name, trace, tmp_path):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    result = run.run_workload(
        bench.WORKLOADS[name],
        seed=2,
        train_seed=3,
        seconds=0.0,
        trace=trace,
        replay_s=REPLAY_S,
        train_s=TRAIN_S,
        setup_reps=1,
        min_windows=1,
        spans_out=tmp_path / "spans.json",
    )
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        assert spans and {"id", "name", "start", "end", "parent", "window"} <= set(
            spans[0]
        )


def test_workloads_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench")
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sonata8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
