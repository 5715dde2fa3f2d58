"""Workloads, set-up, closed-loop replay and correctness digests.

A workload is a list of queries, a planning mode and an optional fault
spec. Its replay trace and its training trace both come from
:func:`repro.evaluation.workloads.build_workload`, from different seeds,
so the planner never sees the packets the replay is timed on.

The replay is a closed loop with one client: each window's packets go to
``SonataRuntime.run(window_trace, window=3.0, origin=start)`` and the
next window is handed over only after that window's report came back.
Every pass over the trace uses a fresh runtime, so every pass reproduces
the same per-window reports, which are checked against the rowwise
oracle through :func:`window_digest`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.evaluation.workloads import build_workload
from repro.faults import parse_fault_spec
from repro.obs import NULL_OBS
from repro.planner import QueryPlanner
from repro.queries.library import TOP8, build_queries
from repro.runtime import SonataRuntime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE_FILE = HERE / "oracle.json"

WINDOW_S = 3.0
#: Replay trace length: six full windows.
REPLAY_DURATION_S = 18.0
TRAIN_DURATION_S = 9.0
PPS = 1_000.0
DEFAULT_SEED = 1
DEFAULT_TRAIN_SEED = 1
#: Replay seeds whose oracle digests ``oracle.json`` stores (with the
#: default training seed); any other seed runs the oracle live, which
#: costs about 9 s on sonata8.
ORACLE_SEEDS = range(21)
CHAOS_FAULTS = (
    "mirror_drop=0.01,mirror_duplicate=0.01,mirror_reorder=0.02,"
    "late_drop=0.2,seed=42"
)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    faults: str | None
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sonata8",
            "sonata",
            None,
            "Sonata plan (ILP, refinement) for the 8 L3/L4 queries: switch "
            "register work dominates, few tuples reach the stream processor",
        ),
        Workload(
            "filterdp8",
            "filter_dp",
            None,
            "same queries under the filter_dp plan: ~5 tuples per packet "
            "cross the batch channel, stream processor and raw-mirror "
            "analytics dominate, register path bypassed",
        ),
        Workload(
            "chaos8",
            "filter_dp",
            CHAOS_FAULTS,
            "filterdp8 plus fixed mirror faults: forces the row channel and "
            "the per-tuple fault injector (what counter-based fault RNG or "
            "row-channel removal would move)",
        ),
    )
}


# -- inputs ---------------------------------------------------------------
def replay_trace(seed: int, duration: float = REPLAY_DURATION_S):
    """The timed traffic; even build seeds, so it never equals training.

    Packets some attack recipes place past ``duration`` are cut, so every
    seed replays the same number of full windows.
    """
    trace = build_workload(TOP8, duration=duration, pps=PPS, seed=2 * seed).trace
    return trace.time_range(0.0, duration)


def training_trace(train_seed: int, duration: float = TRAIN_DURATION_S):
    """The planner's past traffic; odd build seeds."""
    return build_workload(
        TOP8, duration=duration, pps=PPS, seed=2 * train_seed + 1
    ).trace


def split_windows(trace) -> list[tuple[float, object]]:
    return list(trace.windows(WINDOW_S))


# -- set-up ---------------------------------------------------------------
@dataclass
class Setup:
    plan: object
    costs_s: float
    solve_s: float
    install_s: float

    @property
    def total_s(self) -> float:
        return self.costs_s + self.solve_s + self.install_s


def set_up(workload: Workload, train) -> Setup:
    """Queries plus training trace to an installed runtime, timed per step."""
    t0 = time.perf_counter()
    planner = QueryPlanner(build_queries(TOP8), train, window=WINDOW_S, obs=NULL_OBS)
    planner.costs()
    t1 = time.perf_counter()
    plan = planner.plan(workload.mode)
    t2 = time.perf_counter()
    make_runtime(plan, workload)
    t3 = time.perf_counter()
    return Setup(plan, t1 - t0, t2 - t1, t3 - t2)


def make_runtime(plan, workload: Workload, engine: str = "batched") -> SonataRuntime:
    faults = parse_fault_spec(workload.faults) if workload.faults else None
    return SonataRuntime(plan, obs=NULL_OBS, faults=faults, engine=engine)


# -- correctness ----------------------------------------------------------
def _norm(value):
    if isinstance(value, np.generic):
        return value.item()
    return value


def _rows(rows) -> list:
    return sorted(
        repr(sorted((k, _norm(v)) for k, v in row.items())) for row in rows
    )


def window_digest(report) -> str:
    """Hash of one window's outputs, independent of row order and index.

    Covers detections, per-level outputs, tuples sent to the stream
    processor, faults injected and the degraded flag.
    """
    canonical = {
        "tuples_to_sp": sorted(report.tuples_to_sp.items()),
        "detections": sorted(
            (qid, _rows(rows)) for qid, rows in report.detections.items()
        ),
        "levels": sorted(
            (list(key), _rows(rows)) for key, rows in report.level_outputs.items()
        ),
        "faults": sorted(report.faults_injected.items()),
        "degraded": report.degraded,
    }
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:20]


def oracle_key(
    workload: Workload, seed: int, train_seed: int, replay_s: float, train_s: float
) -> str:
    """Names the inputs a stored digest list was computed from."""
    return (
        f"{workload.name}|seed={seed}|train_seed={train_seed}|pps={PPS}"
        f"|replay={replay_s}|train={train_s}"
    )


def live_oracle(plan, workload: Workload, trace) -> list[str]:
    """Per-window digests of one full rowwise run (same plan and faults)."""
    report = make_runtime(plan, workload, engine="rowwise").run(trace, window=WINDOW_S)
    return [window_digest(w) for w in report.windows]


def stored_oracle(key: str) -> list[str] | None:
    if not ORACLE_FILE.exists():
        return None
    return json.loads(ORACLE_FILE.read_text()).get(key)


# -- replay ---------------------------------------------------------------
@dataclass
class WindowResult:
    """What a run keeps of one window: its timing and a summary of its
    report (keeping whole reports would make memory grow with the number
    of passes, and so with speed)."""

    index: int
    packets: int
    latency_s: float
    digest: str
    tuples_to_sp: int
    register_updates: int
    register_overflows: int
    faults_injected: dict
    degraded: bool


def replay_pass(runtime_run, windows, tracer=None) -> list[WindowResult]:
    """Hand the windows over one at a time, each after the last returned."""
    out = []
    for index, (start, sub) in enumerate(windows):
        if tracer is not None:
            tracer.window = index
        t0 = time.perf_counter()
        report = runtime_run(sub, window=WINDOW_S, origin=start)
        latency = time.perf_counter() - t0
        if len(report.windows) != 1:
            raise RuntimeError(
                f"window {index}: run returned {len(report.windows)} windows"
            )
        w = report.windows[0]
        out.append(
            WindowResult(
                index=index,
                packets=len(sub),
                latency_s=latency,
                digest=window_digest(w),
                tuples_to_sp=w.total_tuples,
                register_updates=sum(u for u, _ in w.overflow_stats.values()),
                register_overflows=sum(o for _, o in w.overflow_stats.values()),
                faults_injected=dict(w.faults_injected),
                degraded=w.degraded,
            )
        )
    return out


def percentile(values: list[float], q: int) -> float:
    """``q``-th percentile (statistics' exclusive method, n=100)."""
    return statistics.quantiles(values, n=100)[q - 1]


# -- host -----------------------------------------------------------------
def host_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, read as files; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform != "darwin" else kib / 2**20
