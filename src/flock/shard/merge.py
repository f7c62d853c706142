"""Scatter-gather reads over a sharded cluster, bit-identical to one engine.

The merge discipline: every sharded table carries a hidden ``_flock_seq``
column assigned by the router from one per-table monotonic counter, in the
order rows were presented by the client. Concatenating the per-shard
snapshots and sorting by that sequence therefore reconstructs *exactly* the
row order a single engine would hold — after which the coordinator's own
binder, optimizer and morsel executor (whose merge step is already exact
serial order, see :mod:`flock.db.exec`) produce bit-identical results.

The coordinator engine is an in-memory :class:`~flock.db.Database` whose
catalog mirrors the user-visible schema but whose tables stay empty; merged
snapshots are served to the executor through a custom execution context
instead of being loaded into coordinator tables, so concurrent scattered
reads never contend on coordinator storage.
"""

from __future__ import annotations

import time

import numpy as np

from flock.db.binder import Binder
from flock.db.engine import _collect_reads
from flock.db.exec.executor import Executor, render_analyzed_plan
from flock.db.result import QueryResult
from flock.db.sql import ast_nodes as ast
from flock.db.storage import TableVersion
from flock.db.types import DataType
from flock.db.vector import Batch, ColumnVector

#: Hidden global-sequence column appended to every sharded table. The
#: router assigns it; SELECT never sees it (see flock.db.binder).
SEQ_COLUMN = "_flock_seq"


def gather_versions(cluster, names) -> dict:
    """One merged :class:`TableVersion` per table in *names*.

    Per shard, all heads are read under a single acquisition of that
    shard's statement read lock, so each shard contributes one internally
    consistent snapshot; cross-shard consistency comes from the cluster's
    operation lock held by the caller (writes are excluded while any
    scattered read is gathering).
    """
    wanted = [n.lower() for n in names]
    snapshots: dict[str, list[TableVersion]] = {n: [] for n in wanted}
    for shard in cluster.shards:
        # The backend seam: a thread shard locks and reads its heads in
        # place; a process shard ships (version_id, schema, columns,
        # operation) snapshots over the wire, rebuilt as TableVersions on
        # this side. Either way, one consistent snapshot per shard.
        heads = shard.head_versions(wanted)
        for name in wanted:
            snapshots[name].append(heads[name])
    return {
        name: _merge(cluster, name, parts)
        for name, parts in snapshots.items()
    }


def _merge(cluster, name: str, parts: list[TableVersion]) -> TableVersion:
    coordinator_schema = cluster.coordinator.catalog.schema(name)
    if not coordinator_schema.primary_key_indexes:
        # Tables without a primary key have no shard key: their rows are
        # pinned to shard 0 and carry no sequence column, so shard 0's
        # snapshot *is* the single-engine state.
        return parts[0]
    n_visible = len(coordinator_schema.columns)
    sequences = np.concatenate([p.columns[n_visible].values for p in parts])
    order = np.argsort(sequences, kind="stable")
    merged = []
    for position in range(n_visible):
        vector = parts[0].columns[position]
        for part in parts[1:]:
            vector = vector.concat(part.columns[position])
        merged.append(vector.take(order))
    return TableVersion(-1, coordinator_schema, merged, "SHARD-MERGE")


class _MergedContext:
    """Optimizer and execution context over the merged snapshots.

    The coordinator's own tables hold no rows, so row counts and
    statistics come from the merged versions: planning against empty
    tables would never swap a join's build side and would compress models
    against no input statistics, unlike one engine holding the same rows.

    Deliberately has no ``index_lookup``: coordinator index metadata
    describes per-shard buckets, not the merged snapshot, so index access
    paths degrade to scans here (the lookup contract allows any superset;
    absence is the safe superset). ``table_version`` is provided, so
    zone-map pruning still works — zones are built lazily from the merged
    columns themselves.
    """

    def __init__(self, database, versions: dict):
        self.database = database
        self.versions = versions

    def table_row_count(self, table_name: str) -> int:
        return self.versions[table_name.lower()].row_count

    def table_stats(self, table_name: str):
        return self.versions[table_name.lower()].stats()

    def indexes_enabled(self) -> bool:
        return self.database.indexes_enabled()

    def index_for(self, table_name: str, column_position: int):
        return self.database.index_for(table_name, column_position)

    def model_artifact(self, model_name: str):
        return self.database.model_artifact(model_name)

    def table_batch(self, table_name: str) -> Batch:
        return self.versions[table_name.lower()].batch()

    def table_version(self, table_name: str) -> TableVersion:
        return self.versions[table_name.lower()]

    def score(self, node, inputs):
        return self.database.scorer.score(
            node, inputs, self.database.model_store
        )


def run_scatter(cluster, statement, sql, params, user) -> QueryResult:
    """Execute a read-only statement across every shard and merge.

    Mirrors ``Database._execute_select`` / ``_execute_explain`` — bind and
    privilege-check on the coordinator, optimize, run — except the executor
    reads merged snapshots. Wrapped in the coordinator's per-statement
    observability envelope so scattered reads appear in its query log,
    audit trail and metrics exactly like local ones.
    """
    coordinator = cluster.coordinator
    statement_type = type(statement).__name__.upper()

    def runner() -> QueryResult:
        return _run(cluster, coordinator, statement, params, user)

    with coordinator.statement_lock.read_locked():
        return coordinator._observed_statement(
            sql, user, statement_type, runner
        )


def _run(cluster, coordinator, statement, params, user) -> QueryResult:
    explain = isinstance(statement, ast.Explain)
    query = statement.query if explain else statement
    binder = Binder(coordinator, None if params is None else list(params))
    bound = binder.bind_query(query)
    coordinator._check_plan_privileges(bound, user)
    reads = _collect_reads(bound)
    context = _MergedContext(
        coordinator, gather_versions(cluster, reads[0])
    )
    plan = coordinator.optimizer.optimize(bound, context)
    if explain and not statement.analyze:
        lines = plan.explain().splitlines()
        return _plan_result(lines)
    executor = Executor(
        context,
        collect_stats=explain,
        pool=coordinator._acquire_pool(),
        parallel=coordinator.parallel,
    )
    start_ns = time.perf_counter_ns()
    batch = executor.run(plan)
    coordinator._audit_reads(reads, user)
    if explain:
        total_ms = (time.perf_counter_ns() - start_ns) / 1e6
        lines = render_analyzed_plan(plan, executor.node_stats).splitlines()
        lines.append(f"Execution: {total_ms:.3f} ms, {batch.num_rows} row(s)")
        return _plan_result(lines)
    return QueryResult("SELECT", batch=batch)


def _plan_result(lines: list[str]) -> QueryResult:
    batch = Batch(
        ["plan"], [ColumnVector.from_values(DataType.TEXT, lines)]
    )
    return QueryResult("EXPLAIN", batch=batch)
