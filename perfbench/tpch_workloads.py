"""TPC-H power workloads: ``tpch_power`` and ``tpch_sharded``.

``tpch_power`` loads faithful TPC-H at scale 0.01 into a durable serial
engine (``flock.connect(path)``, fsync per commit) and runs repeated
streams of the 22 ``TPCH_FAITHFUL`` queries, then closes and reopens it.
Almost all work is SQL parse/bind/optimize/execute and bulk ingest; it
barely touches serving, point index lookups or per-statement fsync.

``tpch_sharded`` runs the same phases at scale 0.005 on
``flock.connect(path, shards=2, process=True)``: the only workload that
exercises the shard gather/merge path and the worker-process RPC.

Every query result in every stream must be ``repr``-equal to a serial
in-memory engine's answer on the same rows and parameters; after reopen,
row counts and two full-table aggregates are checked the same way.
"""

from __future__ import annotations

import time

import numpy as np

import flock
from flock.workloads import (
    TPCH_FAITHFUL,
    TPCH_TABLES,
    create_tpch_schema,
    generate_tpch_data,
    tpch_params,
)

from harness import Recorder, Run, median, peak_rss_mb, replay, settle

#: Queries re-checked on the reopened database (full lineitem aggregates).
REOPEN_CHECKS = (1, 6)
#: Rounds of set-up, reopen and streams (see ``Run.rounds``).
ROUNDS = 4
#: Seconds of --seconds per stream: a run makes a fixed number of streams,
#: sized to last about --seconds at SF 0.01 on a 2-core host.
NOMINAL_STREAM_S = 1.25


class _Shape:
    def __init__(self, scale: float, shards: int):
        self.scale = scale
        self.shards = shards

    def connect(self, path):
        if not self.shards:
            return flock.connect(path)
        return flock.connect(path, shards=self.shards, process=True)


SHAPES = {
    "tpch_power": _Shape(scale=0.01, shards=0),
    "tpch_sharded": _Shape(scale=0.005, shards=2),
}


def _queries(seed: int) -> list[tuple[int, str]]:
    params = tpch_params(np.random.default_rng(seed))
    return [
        (qid, TPCH_FAITHFUL[qid].format(**params).strip())
        for qid in sorted(TPCH_FAITHFUL)
    ]


def _counts_sql() -> list[str]:
    return [f"SELECT COUNT(*) FROM {table}" for table in TPCH_TABLES]


def _reference(batches, queries) -> tuple[dict, list]:
    """Answers of a serial in-memory engine on the same rows and queries."""
    with flock.connect() as engine:
        create_tpch_schema(engine)
        replay(engine, batches)
        answers = {qid: repr(engine.execute(sql).rows()) for qid, sql in queries}
        counts = [engine.execute(sql).scalar() for sql in _counts_sql()]
    return answers, counts


def run(run: Run) -> None:
    shape = SHAPES[run.workload]
    recorder = Recorder()
    generate_tpch_data(recorder, scale=shape.scale, seed=run.seed)
    queries = _queries(run.seed)
    expected, expected_counts = _reference(recorder.batches, queries)
    run.detail["rows"] = recorder.rows
    settle()
    latencies: list[float] = []
    by_query: dict[int, list[float]] = {}
    streams: list[float] = []
    per_round = max(1, round(run.seconds / NOMINAL_STREAM_S / ROUNDS))

    def build(path):
        client = run.track(shape.connect(path))
        _check_backend(run, client, shape)
        create_tpch_schema(client)
        return client, replay(client, recorder.batches), recorder.rows

    def stream(client) -> float:
        started = time.perf_counter()
        for qid, sql in queries:
            with run.request(f"s{len(streams)}q{qid}"):
                t0 = time.perf_counter()
                try:
                    rows = client.execute(sql).rows()
                except flock.FlockError as exc:
                    rows = exc
                latencies.append((time.perf_counter() - t0) * 1e3)
            by_query.setdefault(qid, []).append(latencies[-1])
            run.check(repr(rows) == expected[qid],
                      f"Q{qid} differs from a single engine")
        streams.append(time.perf_counter() - started)
        return streams[-1]

    def block(client, index: int) -> None:
        _check_backend(run, client, shape)
        if run.traced:
            run.traced_segments(lambda: stream(client), "streams")
        else:
            for _ in range(per_round):
                stream(client)

    client = run.rounds(ROUNDS, build, shape.connect, block)
    try:
        _check_backend(run, client, shape)
        counts = [client.execute(sql).scalar() for sql in _counts_sql()]
        run.check(counts == expected_counts, "row counts after reopen")
        for qid, sql in queries:
            if qid in REOPEN_CHECKS:
                run.check(repr(client.execute(sql).rows()) == expected[qid],
                          f"Q{qid} after reopen")
            if run.traced:
                plan = client.execute(f"EXPLAIN ANALYZE {sql}").rows()
                run.layers.add_explain([line for (line,) in plan])
    finally:
        client.close()
    if not run.traced:
        stream_s = median(streams)
        run.latency_metrics(latencies, "query")
        run.metric("throughput_per_s", len(queries) / stream_s, "1/s")
        run.detail["stream_s"] = stream_s
        run.detail["streams"] = len(streams)
        run.detail["query_median_ms"] = {
            f"Q{qid}": median(times) for qid, times in by_query.items()
        }
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")


def _check_backend(run: Run, client, shape: _Shape) -> None:
    """The sharded workload must really run on two worker processes."""
    if not shape.shards:
        return
    cluster = client.cluster
    backend, shards = cluster.backend, len(cluster.shards)
    run.detail["backend"] = backend
    run.detail["shards"] = shards
    if not run.check(backend == "process" and shards == shape.shards,
                     f"backend {backend} with {shards} shards"):
        client.close()
        raise RuntimeError(
            f"sharded workload runs on {backend!r} with {shards} shards, "
            f"not {shape.shards} worker processes"
        )
