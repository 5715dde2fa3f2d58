"""Flow-level view of a trace: 5-tuple aggregation.

Operators inspect traffic at flow granularity at least as often as at
packet granularity; this module aggregates a columnar trace into per-flow
records (packets, bytes, duration, observed TCP flags) with one vectorized
pass, for analysis, workload validation, and the CLI. It is *analysis*
tooling — the telemetry queries themselves stay packet-granularity, as in
the paper (§2.1 "Sonata supports queries operating at packet-level
granularity").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exec.kernels import group_rows
from repro.packets.trace import Trace
from repro.utils.iputil import format_ip


@dataclass(frozen=True)
class FlowRecord:
    """One unidirectional 5-tuple flow."""

    sip: int
    dip: int
    proto: int
    sport: int
    dport: int
    packets: int
    bytes: int
    first_ts: float
    last_ts: float
    flags_seen: int  # OR of all TCP flag bytes

    @property
    def duration(self) -> float:
        return self.last_ts - self.first_ts

    def describe(self) -> str:
        return (
            f"{format_ip(self.sip)}:{self.sport} -> "
            f"{format_ip(self.dip)}:{self.dport} proto {self.proto}: "
            f"{self.packets} pkts, {self.bytes} B, {self.duration:.3f}s"
        )


def aggregate_flows(trace: Trace) -> list[FlowRecord]:
    """Aggregate a trace into unidirectional flows (vectorized)."""
    if len(trace) == 0:
        return []
    array = trace.array
    keys = [
        array[name].astype(np.int64)
        for name in ("sip", "dip", "proto", "sport", "dport")
    ]
    first_rows, inverse = group_rows(keys)
    unique = np.stack([column[first_rows] for column in keys], axis=1)
    n = len(unique)

    packets = np.bincount(inverse, minlength=n)
    byte_totals = np.bincount(
        inverse, weights=array["pktlen"].astype(np.float64), minlength=n
    ).astype(np.int64)
    first = np.full(n, np.inf)
    np.minimum.at(first, inverse, array["ts"])
    last = np.full(n, -np.inf)
    np.maximum.at(last, inverse, array["ts"])
    flags = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(flags, inverse, array["tcpflags"].astype(np.int64))

    return [
        FlowRecord(
            sip=int(unique[i, 0]),
            dip=int(unique[i, 1]),
            proto=int(unique[i, 2]),
            sport=int(unique[i, 3]),
            dport=int(unique[i, 4]),
            packets=int(packets[i]),
            bytes=int(byte_totals[i]),
            first_ts=float(first[i]),
            last_ts=float(last[i]),
            flags_seen=int(flags[i]),
        )
        for i in range(n)
    ]


def top_flows(trace: Trace, count: int = 10, by: str = "bytes") -> list[FlowRecord]:
    """The heaviest flows by ``bytes`` or ``packets``."""
    if by not in ("bytes", "packets"):
        raise ValueError(f"sort key must be 'bytes' or 'packets', not {by!r}")
    flows = aggregate_flows(trace)
    flows.sort(key=lambda f: getattr(f, by), reverse=True)
    return flows[:count]
