"""Per-layer figures for traced runs: spans around layer entry points.

The benchmark does not change the program to trace it. On a traced run it
wraps public entry points of each layer from the outside (``Parser.parse``,
``Binder.bind_query``, ``Executor.run`` ...) for the duration of each
traced *part* of the run, records one span per call, and takes
before/after deltas of the program's own :func:`flock.observability.metrics`
counters over the same parts. Spans stay in memory and are written to a
JSON file when the run ends.

A span is ``[id, name, start_ns, end_ns, parent_id, request_id, part]``.
A layer's time is the sum of its spans' *self* time: each span's duration
minus the part of it that its child spans cover, so nested and recursive
calls are never counted twice.

Only the calling process is visible: spans and counters of shard worker
processes are not, so on the sharded workload storage and WAL work shows
only as RPC time and bytes.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


def _targets():
    """(owner, attribute, span name) for every wrapped entry point."""
    from flock.client import Client
    from flock.db.binder import Binder
    from flock.db.exec.executor import Executor
    from flock.db.optimizer.rules import Optimizer
    from flock.db.sql.parser import Parser
    from flock.db.storage import Table
    from flock.inference.predict import DefaultScorer
    from flock.mlgraph.runtime import GraphRuntime
    from flock.proc import framing
    from flock.proc.supervisor import Channel
    from flock.shard import merge, router

    return [
        (Client, "executemany", "engine.executemany"),
        (Parser, "parse", "sql.parse"),
        (Binder, "bind_query", "binder.bind"),
        (Optimizer, "optimize", "optimizer.optimize"),
        (Executor, "run", "exec.run"),
        (Table, "build_insert", "storage.build"),
        (Table, "build_append", "storage.build"),
        (Table, "build_delete", "storage.build"),
        (Table, "build_update", "storage.build"),
        (Table, "build_truncate", "storage.build"),
        (Table, "publish", "storage.publish"),
        (DefaultScorer, "score", "predict.score"),
        (GraphRuntime, "run", "mlgraph.run"),
        (merge, "gather_versions", "shard.gather"),
        (router, "run_scatter", "shard.scatter"),
        (Channel, "request", "proc.rpc"),
        (framing, "send_frame", "proc.send"),
        (framing, "recv_frame", "proc.recv"),
    ]


#: Program counters read as before/after deltas over traced parts.
COUNTERS = (
    "xopt.applications", "index.lookups", "index.fallbacks",
    "index.rebuilds", "index.zones_pruned", "wal.appends", "wal.fsyncs",
    "wal.bytes_written", "wal.replay_records", "checkpoint.count",
    "mlgraph.runs", "serving.batches", "serving.plan_cache.hits",
    "serving.plan_cache.misses", "serving.rejected_overload",
    "serving.timeouts",
)
#: Histograms read through their lifetime ``count``/``sum`` totals only
#: (never their windowed percentile snapshot).
HISTOGRAMS = (
    "wal.fsync_ms", "checkpoint.ms", "predict.batch_rows",
    "serving.batch_size",
)
#: Frame header bytes (magic, length, crc) added to each payload.
FRAME_HEADER = 12


class LayerTracer:
    """Records spans and counter deltas over the traced parts of a run."""

    def __init__(self):
        self.spans: list[list] = []
        self.bytes_sent = 0
        self.bytes_recv = 0
        self.gather_rows = 0
        self.deltas: dict[str, float] = defaultdict(float)
        self.explain: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._request = contextvars.ContextVar("perfbench_req", default=None)
        self._part = "none"
        self._patched: list[tuple] = []

    # -- parts ---------------------------------------------------------
    @contextlib.contextmanager
    def part(self, name: str):
        """Trace every wrapped entry point until the block exits."""
        from flock import observability

        before = _read(observability.metrics())
        self._part = name
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            after = _read(observability.metrics())
            for key, value in after.items():
                self.deltas[key] += value - before[key]

    @contextlib.contextmanager
    def request(self, request_id):
        """Tag spans opened by this thread with *request_id*."""
        token = self._request.set(request_id)
        try:
            yield
        finally:
            self._request.reset(token)

    def _install(self) -> None:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._patched.append((owner, attr, original))

    def _uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name):
        tracer = self
        if name == "proc.send":
            def send(sock, payload):
                with tracer._lock:
                    tracer.bytes_sent += len(payload) + FRAME_HEADER
                return original(sock, payload)
            return send
        if name == "proc.recv":
            def recv(*args, **kwargs):
                payload = original(*args, **kwargs)
                if payload is not None:
                    with tracer._lock:
                        tracer.bytes_recv += len(payload) + FRAME_HEADER
                return payload
            return recv

        def traced(*args, **kwargs):
            parent = tracer._current.get()
            span = [next(tracer._ids), name, 0, 0,
                    parent[0] if parent else None,
                    tracer._request.get(), tracer._part]
            token = tracer._current.set(span)
            span[2] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                if name == "shard.gather":
                    rows = sum(v.row_count for v in result.values())
                    with tracer._lock:
                        tracer.gather_rows += rows
                return result
            finally:
                span[3] = time.perf_counter_ns()
                tracer._current.reset(token)
                with tracer._lock:
                    tracer.spans.append(span)

        traced.__wrapped__ = original
        return traced

    # -- figures -------------------------------------------------------
    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (self time in ms, number of spans)."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            covered = _union(children.get(span[0], ()))
            total[span[1]] += (span[3] - span[2] - covered) / 1e6
            calls[span[1]] += 1
        return total, calls

    def add_explain(self, lines: list[str]) -> None:
        """Fold one EXPLAIN ANALYZE plan into operator-class self times."""
        for name, ms, rows in operator_self_times(lines):
            self.explain[name] += ms
            self.explain["rows_out"] += rows

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start_ns", "end_ns", "parent", "request",
                "part")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


def _read(registry) -> dict[str, float]:
    values = {name: registry.counter(name).value for name in COUNTERS}
    for name in HISTOGRAMS:
        histogram = registry.histogram(name)
        values[name + ".count"] = histogram.count
        values[name + ".sum"] = histogram.sum
    return values


def _union(intervals) -> int:
    """Total length covered by possibly overlapping [start, end) pairs."""
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


#: EXPLAIN operator class -> the exec.* bucket its self time goes to.
OPERATOR_BUCKETS = {
    "Scan": "scan", "IndexLookup": "scan", "Filter": "filter",
    "Project": "project", "Join": "join", "Aggregate": "aggregate",
    "Distinct": "aggregate", "Sort": "sort", "Limit": "sort",
    "Window": "window", "Predict": "predict", "SetOp": "other",
}


def operator_self_times(lines: list[str]):
    """Yield ``(bucket, self_ms, rows)`` per node of an analyzed plan.

    Lines are ``"  " * depth + "Op(...)  [... rows=N time=X.XXXms ...]"``;
    a node's self time is its time minus its direct children's times.
    """
    nodes = []  # (depth, bucket, ms, rows)
    for line in lines:
        if "time=" not in line or line.startswith("Execution:"):
            continue
        depth = (len(line) - len(line.lstrip(" "))) // 2
        op = line.strip().split("(", 1)[0]
        stats = line.rsplit("[", 1)[1]
        fields = dict(
            part.split("=", 1) for part in stats.rstrip("]").split()
            if "=" in part
        )
        nodes.append((depth, OPERATOR_BUCKETS.get(op, "other"),
                      float(fields["time"].rstrip("ms")), int(fields["rows"])))
    for index, (depth, bucket, ms, rows) in enumerate(nodes):
        child_ms = 0.0
        for later in nodes[index + 1:]:
            if later[0] <= depth:
                break
            if later[0] == depth + 1:
                child_ms += later[2]
        yield bucket, max(0.0, ms - child_ms), rows


def per_layer(tracer: LayerTracer, overhead_pct: float,
              gen_late_ms: float = 0.0) -> tuple[dict, dict]:
    """(metrics for the result line, workload-specific layer figures).

    The first dict holds the figures listed in ``BENCHMARK.json``: layer
    times that every listed workload makes non-zero, plus counts and
    ratios. Layer times that only some of them exercise, and the shard
    and worker-process figures of ``tpch_sharded``, go in the second dict,
    which is printed with the run's details.
    """
    times, calls = tracer.self_times()
    d = tracer.deltas
    ex = tracer.explain

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    lookups, fallbacks = d["index.lookups"], d["index.fallbacks"]
    hits, misses = d["serving.plan_cache.hits"], d["serving.plan_cache.misses"]
    metrics = {
        "engine.executemany_ms": (times["engine.executemany"], "ms"),
        "engine.executemany_calls": (calls["engine.executemany"], "count"),
        "sql.parse_ms": (times["sql.parse"], "ms"),
        "binder.bind_ms": (times["binder.bind"], "ms"),
        "optimizer.optimize_ms": (times["optimizer.optimize"], "ms"),
        "xopt.applications": (d["xopt.applications"], "count"),
        "exec.run_ms": (times["exec.run"], "ms"),
        "exec.scan_ms": (ex["scan"], "ms"),
        "exec.filter_ms": (ex["filter"], "ms"),
        "exec.project_ms": (ex["project"], "ms"),
        "exec.rows_out": (ex["rows_out"], "count"),
        "storage.build_ms": (times["storage.build"], "ms"),
        "storage.publish_ms": (times["storage.publish"], "ms"),
        "storage.versions_built": (calls["storage.build"], "count"),
        "index.lookups": (lookups, "count"),
        "index.fallbacks": (fallbacks, "count"),
        "index.rebuilds": (d["index.rebuilds"], "count"),
        "index.zones_pruned": (d["index.zones_pruned"], "count"),
        "index.hit_ratio": (ratio(lookups, lookups + fallbacks), "ratio"),
        "wal.appends": (d["wal.appends"], "count"),
        "wal.fsyncs": (d["wal.fsyncs"], "count"),
        "wal.fsync_ms": (d["wal.fsync_ms.sum"], "ms"),
        "wal.bytes_written": (d["wal.bytes_written"], "bytes"),
        "wal.bytes_per_op": (
            ratio(d["wal.bytes_written"], d["wal.appends"]), "bytes"
        ),
        "checkpoint.count": (d["checkpoint.count"], "count"),
        "wal.replay_records": (d["wal.replay_records"], "count"),
        "predict.calls": (calls["predict.score"], "count"),
        "predict.rows_per_call": (
            ratio(d["predict.batch_rows.sum"], d["predict.batch_rows.count"]),
            "rows",
        ),
        "mlgraph.runs": (d["mlgraph.runs"], "count"),
        "serving.plan_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "serving.batches": (d["serving.batches"], "count"),
        "serving.mean_batch_size": (
            ratio(d["serving.batch_size.sum"], d["serving.batch_size.count"]),
            "count",
        ),
        "serving.rejected": (d["serving.rejected_overload"], "count"),
        "serving.timeouts": (d["serving.timeouts"], "count"),
        "trace_overhead_pct": (overhead_pct, "%"),
    }
    specific = {
        "exec.aggregate_ms": ex["aggregate"],
        "exec.join_ms": ex["join"],
        "exec.sort_ms": ex["sort"],
        "exec.window_ms": ex["window"],
        "exec.predict_ms": ex["predict"],
        "checkpoint.ms": d["checkpoint.ms.sum"],
        "predict.score_ms": times["predict.score"],
        "mlgraph.run_ms": times["mlgraph.run"],
        "shard.gather_ms": times["shard.gather"],
        "shard.scatter_ms": times["shard.scatter"],
        "proc.rpc_ms": times["proc.rpc"],
        "serving.gen_late_ms": gen_late_ms,
        "shard.gather_calls": calls["shard.gather"],
        "shard.gather_rows": tracer.gather_rows,
        "proc.rpc_calls": calls["proc.rpc"],
        "proc.bytes_sent": tracer.bytes_sent,
        "proc.bytes_recv": tracer.bytes_recv,
    }
    return metrics, specific
