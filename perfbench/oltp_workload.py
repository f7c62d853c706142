"""``oltp_durable``: the TPC-C statement mix on a durable engine.

One client runs a closed loop (next statement only after the previous one
returns) over the TPC-C 45/43/4/4/4 transaction mix at 2 warehouses x 10
districts x 300 customers with 5,000 items, each statement autocommitted
with an fsync (``flock.connect(path)``, sync ``commit``). It uses the same
storage, index and WAL layers as ``tpch_power`` but as many small writes
between point reads, so an analytic or bulk-load gain that costs writes
shows here. The run ends with close, reopen and WAL recovery: every
table's row count and content checksum must match the values at close.
"""

from __future__ import annotations

import time
import zlib

import flock
from flock.workloads import (
    TPCC_TABLES,
    create_tpcc_schema,
    generate_tpcc_data,
    generate_tpcc_transactions,
)

from harness import Recorder, Run, median, peak_rss_mb, replay, settle

SHAPE = {"warehouses": 2, "districts_per_warehouse": 10,
         "customers_per_district": 300}
ITEMS = 5_000
#: Statements per second of --seconds: the measured phase runs a fixed
#: number of statements, so the log it leaves behind, and the reopen that
#: replays it, are the same size on every run.
NOMINAL_STMT_PER_S = 400
#: Rounds of set-up, reopen and statements (see ``Run.rounds``).
ROUNDS = 5
#: SELECTs among this many last statements are re-run under EXPLAIN
#: ANALYZE on traced runs, for operator self times.
EXPLAINED = 200


def run(run: Run) -> None:
    recorder = Recorder()
    generate_tpcc_data(recorder, items=ITEMS, seed=run.seed, **SHAPE)
    per_round = int(NOMINAL_STMT_PER_S * run.seconds / ROUNDS)
    statements = generate_tpcc_transactions(
        per_round * ROUNDS, seed=run.seed + 1, **SHAPE
    )
    settle()
    latencies: list[float] = []
    elapsed: list[float] = []

    def build(path):
        client = run.track(flock.connect(path))
        create_tpcc_schema(client.db)
        return client, replay(client, recorder.batches), recorder.rows

    def execute(client, chunk: list[str]) -> float:
        """Run *chunk* in order; return its median statement latency."""
        mark = len(latencies)
        started = time.perf_counter()
        for sql in chunk:
            t0 = time.perf_counter()
            try:
                client.execute(sql)
            except flock.FlockError as exc:
                run.fail(f"{sql[:50]}: {exc}")
            latencies.append((time.perf_counter() - t0) * 1e3)
            run.attempted += 1
        elapsed.append(time.perf_counter() - started)
        return median(latencies[mark:])

    def block(client, index: int) -> None:
        chunk = statements[index * per_round:(index + 1) * per_round]
        if run.traced:
            third = len(chunk) // 3
            parts = iter([chunk[:third], chunk[third:2 * third],
                          chunk[2 * third:]])
            run.traced_segments(lambda: execute(client, next(parts)),
                                "statements")
        else:
            execute(client, chunk)
        if index == ROUNDS - 1:
            before.update(_checksums(client))
            if run.traced:
                for sql in statements[-EXPLAINED:]:
                    if sql.startswith("SELECT"):
                        plan = client.execute(f"EXPLAIN ANALYZE {sql}").rows()
                        run.layers.add_explain([line for (line,) in plan])

    before: dict[str, tuple[int, int]] = {}
    client = run.rounds(ROUNDS, build, flock.connect, block)
    try:
        after = _checksums(client)
        for table in TPCC_TABLES:
            run.check(after[table] == before[table],
                      f"{table} count/checksum after reopen")
    finally:
        client.close()
    if not run.traced:
        run.latency_metrics(latencies, "statement")
        run.metric("throughput_per_s", len(latencies) / sum(elapsed), "1/s")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")


def _checksums(client) -> dict[str, tuple[int, int]]:
    """Per table: (row count, CRC-32 of the rows' repr)."""
    sums = {}
    for table in TPCC_TABLES:
        rows = client.execute(f"SELECT * FROM {table}").rows()
        sums[table] = (len(rows), zlib.crc32(repr(rows).encode()))
    return sums
