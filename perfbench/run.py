"""Closed-loop single-switch benchmark of the Sonata runtime.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sonata8 --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --write-oracle          # refresh oracle.json

Each run plans the workload ``SETUP_REPS`` times from a training trace;
after each set-up it replays the timed trace window by window for a third
of ``--seconds`` (whole passes, one fresh runtime per pass). It checks
every window against the rowwise oracle and prints, as its last line, one
JSON object with ``correct``, ``attempted`` (windows checked), ``failed``
(windows whose outputs differ from the oracle) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.
See README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Untraced windows a run times at least, so p90 and p10 each have ten
#: samples beyond them.
MIN_WINDOWS = 100

#: End-to-end metrics. The median window latency and the mean throughput
#: are printed but are not among them: the host's speed flips between a
#: fast and a slow state for tens of seconds at a time, so a median jumps
#: between the two and a mean follows the mix, and over ten runs both
#: spread close to or past the largest bound. The tail (p90 latency, p10
#: throughput) sits in the slow state and repeats.
E2E_METRICS = {
    "setup_s": "s",
    "pkts_per_s_p10": "pkts/s",
    "window_ms_p90": "ms",
    "sp_tuples_per_window": "tuples",
    "peak_rss_mb": "MB",
}

#: Faults channels reported per pass (the ones chaos8 arms).
FAULT_CHANNELS = ("mirror_drop", "mirror_duplicate", "mirror_reorder", "late_drop")

#: Layers whose self time is reported as a share of window time.
SHARE_LAYERS = ("switch", "emitter", "streaming", "analytics", "faults", "runtime")

PER_LAYER_METRICS = {
    "planner.costs_s": "s",
    "planner.solve_s": "s",
    "planner.est_over_observed": "ratio",
    "switch.window_s": "s",
    "switch.ns_per_pkt": "ns",
    "switch.end_window_s": "s",
    "switch.rows_out": "tuples",
    "switch.register_updates": "count",
    "switch.overflow_rate": "ratio",
    "switch.fallback_share": "ratio",
    "switch.filter_updates": "count",
    "switch.filter_update_s": "s",
    "emitter.ingest_s": "s",
    "emitter.end_window_s": "s",
    "emitter.row_assembly_share": "ratio",
    "streaming.process_state_s": "s",
    "streaming.process_rows_s": "s",
    "streaming.join_s": "s",
    "streaming.tuples_in": "tuples",
    "streaming.selectivity": "ratio",
    "analytics.raw_mirror_s": "s",
    "faults.mirror_s": "s",
    **{f"faults.injected.{c}": "count" for c in FAULT_CHANNELS},
    "faults.degraded_windows": "count",
    "runtime.glue_s": "s",
    **{f"share.{layer}": "ratio" for layer in SHARE_LAYERS},
    "trace.untraced_pkts_per_s": "pkts/s",
    "trace.traced_pkts_per_s": "pkts/s",
    "trace.overhead_pct": "%",
}


def run_workload(
    workload: bench.Workload,
    seed: int,
    train_seed: int,
    seconds: float,
    trace: bool,
    replay_s: float = bench.REPLAY_DURATION_S,
    train_s: float = bench.TRAIN_DURATION_S,
    setup_reps: int = SETUP_REPS,
    min_windows: int = MIN_WINDOWS,
    spans_out: Path | None = None,
) -> dict:
    """One benchmark run; returns the result object plus a ``detail`` key."""
    train = bench.training_trace(train_seed, train_s)
    replay = bench.replay_trace(seed, replay_s)
    windows = bench.split_windows(replay)

    setups: list[bench.Setup] = []
    checked: list[list[bench.WindowResult]] = []  # passes compared with the oracle
    untraced: list[bench.WindowResult] = []
    traced: list[bench.WindowResult] = []
    tracer = Tracer()
    sp_in = sp_out = 0
    # The timed passes come in one chunk after each set-up, so they spread
    # over the whole run and slow drift of the host averages out. The
    # latency percentiles use untraced windows only, so a traced run needs
    # no minimum sample.
    wanted = 1 if trace else math.ceil(min_windows / setup_reps)
    for _ in range(setup_reps):
        setups.append(bench.set_up(workload, train))
        plan = setups[-1].plan
        # Untimed warm-up pass; its reports also give the per-pass counts.
        checked.append(bench.replay_pass(bench.make_runtime(plan, workload).run, windows))
        chunk: list[bench.WindowResult] = []
        deadline = time.perf_counter() + seconds / setup_reps
        while len(chunk) < wanted or time.perf_counter() < deadline:
            chunk += bench.replay_pass(bench.make_runtime(plan, workload).run, windows)
            checked.append(chunk[-len(windows):])
            if trace:
                # Traced passes alternate with untraced ones, so both see
                # the same drift; their throughput ratio is the overhead.
                runtime = bench.make_runtime(plan, workload)
                with instrument(runtime, tracer) as traced_run:
                    traced += bench.replay_pass(traced_run, windows, tracer)
                checked.append(traced[-len(windows):])
                for load in runtime.stream_processor.load_report().values():
                    sp_in += load["tuples_in"]
                    sp_out += load["tuples_out"]
        untraced += chunk
    rss = bench.peak_rss_mb()
    warm = checked[0]
    plans_agree = len({s.plan.describe() for s in setups}) == 1

    key = bench.oracle_key(workload, seed, train_seed, replay_s, train_s)
    oracle = bench.stored_oracle(key)
    oracle_source = "stored"
    if oracle is None:
        oracle = bench.live_oracle(plan, workload, replay)
        oracle_source = "live"
    attempted = failed = 0
    for one_pass in checked:
        for w in one_pass:
            attempted += 1
            if w.index >= len(oracle) or w.digest != oracle[w.index]:
                failed += 1
    correct = failed == 0 and plans_agree and len(oracle) == len(windows)
    latencies = [w.latency_s for w in untraced]

    sp_tuples = statistics.fmean(w.tuples_to_sp for w in warm)
    if trace:
        metrics = _layer_metrics(
            tracer, traced, untraced, warm, setups, sp_tuples, sp_in, sp_out
        )
    else:
        metrics = {
            "setup_s": statistics.median(s.total_s for s in setups),
            "pkts_per_s_p10": bench.percentile(
                [w.packets / w.latency_s for w in untraced], 10
            ),
            "window_ms_p90": bench.percentile(latencies, 90) * 1e3,
            "sp_tuples_per_window": sp_tuples,
            "peak_rss_mb": rss,
        }
    units = PER_LAYER_METRICS if trace else E2E_METRICS
    detail = {
        "workload": workload.name,
        "seed": seed,
        "train_seed": train_seed,
        "host": bench.host_info(),
        "windows_per_pass": len(windows),
        "packets_per_pass": len(replay),
        "window_samples": len(untraced),
        "window_ms_p50": statistics.median(latencies) * 1e3,
        "pkts_per_s": sum(w.packets for w in untraced) / sum(latencies),
        "traced_window_samples": len(traced),
        "setup_s": [round(s.total_s, 4) for s in setups],
        "plans_agree": plans_agree,
        "oracle": oracle_source,
        "error_rate": failed / attempted,
    }
    if spans_out is not None and trace:
        tracer.dump(spans_out, detail)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
        "detail": detail,
    }


def _layer_metrics(tracer, traced, untraced, warm, setups, sp_tuples, sp_in, sp_out):
    n = len(traced)
    packets = sum(w.packets for w in traced)
    self_s = tracer.self_s
    counts = tracer.counts
    per_window = {name: seconds / n for name, seconds in self_s.items()}
    updates = sum(w.register_updates for w in traced)
    overflows = sum(w.register_overflows for w in traced)
    batch_rows = counts["switch.rows_batch"]
    fallback_rows = counts["switch.rows_fallback"]
    window_s = sum(w.latency_s for w in traced)
    layers = tracer.layer_self_s()
    untraced_pps = sum(w.packets for w in untraced) / sum(w.latency_s for w in untraced)
    traced_pps = packets / window_s
    faults = {c: 0 for c in FAULT_CHANNELS}
    for w in warm:
        for channel, count in w.faults_injected.items():
            if channel in faults:
                faults[channel] += count
    metrics = {
        "planner.costs_s": statistics.median(s.costs_s for s in setups),
        "planner.solve_s": statistics.median(s.solve_s for s in setups),
        "planner.est_over_observed": setups[-1].plan.est_total_tuples / sp_tuples,
        "switch.window_s": per_window.get("switch.window", 0.0),
        "switch.ns_per_pkt": self_s.get("switch.window", 0.0) / packets * 1e9,
        "switch.end_window_s": per_window.get("switch.end_window", 0.0),
        "switch.rows_out": (
            batch_rows + fallback_rows + counts["switch.rows_reports"]
        ) / n,
        "switch.register_updates": updates / n,
        "switch.overflow_rate": overflows / updates if updates else 0.0,
        "switch.fallback_share": (
            fallback_rows / (batch_rows + fallback_rows)
            if batch_rows + fallback_rows
            else 0.0
        ),
        "switch.filter_updates": counts["switch.filter_updates"] / n,
        "switch.filter_update_s": per_window.get("switch.filter_update", 0.0),
        "emitter.ingest_s": per_window.get("emitter.ingest", 0.0),
        "emitter.end_window_s": per_window.get("emitter.end_window", 0.0),
        "emitter.row_assembly_share": (
            counts["emitter.row_batches"] / counts["emitter.batches"]
            if counts["emitter.batches"]
            else 0.0
        ),
        "streaming.process_state_s": per_window.get("streaming.process_state", 0.0),
        "streaming.process_rows_s": per_window.get("streaming.process_rows", 0.0),
        "streaming.join_s": per_window.get("streaming.join", 0.0),
        "streaming.tuples_in": sp_in / n,
        "streaming.selectivity": sp_out / sp_in if sp_in else 0.0,
        "analytics.raw_mirror_s": per_window.get("analytics.raw_mirror", 0.0),
        "faults.mirror_s": per_window.get("faults.mirror", 0.0),
        **{f"faults.injected.{c}": v for c, v in faults.items()},
        "faults.degraded_windows": sum(w.degraded for w in warm),
        "runtime.glue_s": per_window.get("runtime.window", 0.0),
        **{
            f"share.{layer}": layers.get(layer, 0.0) / window_s
            for layer in SHARE_LAYERS
        },
        "trace.untraced_pkts_per_s": untraced_pps,
        "trace.traced_pkts_per_s": traced_pps,
        "trace.overhead_pct": (untraced_pps / traced_pps - 1.0) * 100.0,
    }
    return metrics


def _print_human(result: dict) -> None:
    detail = result["detail"]
    print("host " + json.dumps(detail["host"], sort_keys=True))
    print(
        f"{detail['workload']}: seed={detail['seed']} "
        f"train_seed={detail['train_seed']} "
        f"windows/pass={detail['windows_per_pass']} "
        f"packets/pass={detail['packets_per_pass']} "
        f"window samples={detail['window_samples']} "
        f"traced={detail['traced_window_samples']} oracle={detail['oracle']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:16.6g} {m['unit']}")
    for name, unit in (("window_ms_p50", "ms"), ("pkts_per_s", "pkts/s")):
        print(
            f"  {name:32s} {detail[name]:16.6g} {unit} "
            "(printed, not gated: see README.md)"
        )
    print(
        f"  {'error_rate':32s} {detail['error_rate']:16.6g} "
        f"({result['failed']}/{result['attempted']} windows differ from the oracle)"
    )


def write_oracle(train_seed: int) -> None:
    """Recompute the stored rowwise digests for ``bench.ORACLE_SEEDS``."""
    train = bench.training_trace(train_seed)
    stored = {}
    for workload in bench.WORKLOADS.values():
        plan = bench.set_up(workload, train).plan
        for seed in bench.ORACLE_SEEDS:
            key = bench.oracle_key(
                workload, seed, train_seed,
                bench.REPLAY_DURATION_S, bench.TRAIN_DURATION_S,
            )
            stored[key] = bench.live_oracle(plan, workload, bench.replay_trace(seed))
        print(f"{workload.name}: {len(bench.ORACLE_SEEDS)} seeds", flush=True)
    bench.ORACLE_FILE.write_text(json.dumps(stored, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in bench.WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--train-seed", str(args.train_seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*bench.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--train-seed", type=int, default=bench.DEFAULT_TRAIN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-oracle", action="store_true",
        help="recompute oracle.json for --train-seed and exit",
    )
    args = parser.parse_args(argv)
    if args.write_oracle:
        write_oracle(args.train_seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    spans_out = bench.HERE / "out" / f"spans_{args.workload}_seed{args.seed}.json"
    result = run_workload(
        bench.WORKLOADS[args.workload],
        args.seed,
        args.train_seed,
        args.seconds,
        bool(args.trace),
        spans_out=spans_out,
    )
    _print_human(result)
    del result["detail"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
