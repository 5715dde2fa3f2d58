"""Layer spans recorded from outside the program.

:func:`instrument` wraps public methods on one :class:`SonataRuntime`'s
``switch``, ``emitter``, ``stream_processor`` and ``faults`` objects (as
instance attributes, so the class and every other runtime stay
untouched) and, for the duration of a ``with`` block, the
``execute_subquery`` reference the runtime module calls for raw-mirrored
instances. Each wrapped call becomes a span — name, start, end, parent,
window id — kept in memory; :meth:`Tracer.dump` writes them as one JSON
file. A layer's self time is its span duration minus the part its child
spans cover, so the self times of one window add up to its latency.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.runtime.runtime as runtime_module
from repro.switch.mirror import MirroredBatch, MirroredRows

#: Span name -> layer it is charged to.
LAYER_OF = {
    "runtime.window": "runtime",
    "switch.window": "switch",
    "switch.end_window": "switch",
    "switch.filter_update": "switch",
    "emitter.ingest": "emitter",
    "emitter.end_window": "emitter",
    "streaming.process_state": "streaming",
    "streaming.process_rows": "streaming",
    "streaming.join": "streaming",
    "analytics.raw_mirror": "analytics",
    "faults.mirror": "faults",
}


class Tracer:
    """In-memory span recorder with per-name self time and work counts."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id or None, window id)
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.window: int | None = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` timed as span ``name``; ``on_result`` sees its result."""

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                self.spans.append(
                    (span_id, name, start, end,
                     parent[0] if parent else None, self.window)
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds summed per layer."""
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[LAYER_OF[name]] += seconds
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        """Write every span, plus ``meta``, as one JSON file."""
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "window": w}
            for i, n, s, e, p, w in sorted(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": spans}))


def _count_items(tracer: Tracer):
    def on_result(items) -> None:
        for item in items:
            if isinstance(item, MirroredRows):
                tracer.counts["switch.rows_fallback"] += len(item.tagged)
            elif isinstance(item, MirroredBatch):
                tracer.counts["switch.rows_batch"] += item.n_rows

    return on_result


def _count_reports(tracer: Tracer):
    def on_result(reports) -> None:
        for item in reports.values():
            n = item.n_rows if isinstance(item, MirroredBatch) else len(item)
            tracer.counts["switch.rows_reports"] += n

    return on_result


def _count_assembly(tracer: Tracer):
    # Only batches that carry tuples: an instance with nothing to send is
    # assembled as an empty columnar batch on either channel.
    def on_result(batches) -> None:
        for batch in batches.values():
            if not batch.tuples_sent:
                continue
            tracer.counts["emitter.batches"] += 1
            if batch.state is None:
                tracer.counts["emitter.row_batches"] += 1

    return on_result


def _count_calls(tracer: Tracer, name: str):
    def on_result(_) -> None:
        tracer.counts[name] += 1

    return on_result


@contextmanager
def instrument(runtime, tracer: Tracer):
    """Wrap ``runtime``'s layer entry points; yields the traced ``run``.

    ``process_window`` (row channel) calls ``process_window_items``
    through ``self``, so the inner call is a child span of the same layer
    and mirrored rows are counted once, on the columnar items.
    """
    sw, em, sp = runtime.switch, runtime.emitter, runtime.stream_processor
    sw.process_window_items = tracer.wrap(
        "switch.window", sw.process_window_items, _count_items(tracer)
    )
    sw.process_window = tracer.wrap("switch.window", sw.process_window)
    sw.end_window_items = tracer.wrap(
        "switch.end_window", sw.end_window_items, _count_reports(tracer)
    )
    sw.end_window = tracer.wrap("switch.end_window", sw.end_window)
    sw.update_filter_table = tracer.wrap(
        "switch.filter_update",
        sw.update_filter_table,
        _count_calls(tracer, "switch.filter_updates"),
    )
    em.ingest_items = tracer.wrap("emitter.ingest", em.ingest_items)
    em.ingest = tracer.wrap("emitter.ingest", em.ingest)
    em.end_window = tracer.wrap(
        "emitter.end_window", em.end_window, _count_assembly(tracer)
    )
    sp.process_state = tracer.wrap("streaming.process_state", sp.process_state)
    sp.process = tracer.wrap("streaming.process_rows", sp.process)
    sp.execute_join_tree = tracer.wrap("streaming.join", sp.execute_join_tree)
    if runtime.faults is not None:
        runtime.faults.mirror = tracer.wrap("faults.mirror", runtime.faults.mirror)
    original = runtime_module.execute_subquery
    runtime_module.execute_subquery = tracer.wrap("analytics.raw_mirror", original)
    try:
        yield tracer.wrap("runtime.window", runtime.run)
    finally:
        runtime_module.execute_subquery = original
