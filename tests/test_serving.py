"""flock.serving: plan cache, micro-batching, admission control, engine
concurrency primitives and the executemany fast path."""

from __future__ import annotations

import datetime
import threading
import time

import pytest

from flock.db import Database
from flock.db.sql.parser import Parser
from flock.db.txn import ReadWriteLock
from flock.errors import (
    BindError,
    ServerClosedError,
    ServerOverloadedError,
    ServerTimeoutError,
)
from flock.serving import (
    BATCH_KEY_ALIAS,
    FlockServer,
    PlanCache,
    analyze_point_query,
    build_batch_statement,
)

POINT_QUERY = (
    "SELECT applicant_id, PREDICT(loan_model) AS p "
    "FROM loans WHERE applicant_id = ?"
)


# ----------------------------------------------------------------------
# ReadWriteLock
# ----------------------------------------------------------------------
class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        peak = {"readers": 0}
        active = []
        guard = threading.Lock()

        def reader():
            with lock.read_locked():
                with guard:
                    active.append(1)
                    peak["readers"] = max(peak["readers"], len(active))
                time.sleep(0.02)
                with guard:
                    active.pop()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak["readers"] > 1  # readers genuinely overlapped

    def test_writer_blocks_readers(self):
        lock = ReadWriteLock()
        observed = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                observed.append("read")

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.02)
        assert observed == []  # reader parked behind the writer
        lock.release_write()
        t.join()
        assert observed == ["read"]

    def test_write_reentrancy_and_read_under_write(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                with lock.read_locked():
                    pass

    def test_read_reentrancy(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_locked():
                pass
        # fully released: a writer can now proceed
        with lock.write_locked():
            pass

    def test_upgrade_raises(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError):
                lock.acquire_write()

    def test_unmatched_release_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


# ----------------------------------------------------------------------
# Point-query shape analysis
# ----------------------------------------------------------------------
def _analyze(sql: str):
    parser = Parser(sql)
    return analyze_point_query(parser.parse(), parser.parameter_count)


class TestPointQueryAnalysis:
    def test_recognizes_point_query(self):
        shape = _analyze("SELECT a, b FROM t WHERE id = ?")
        assert shape is not None
        assert shape.table == "t"
        assert shape.key_column == "id"

    def test_reversed_equality(self):
        shape = _analyze("SELECT a FROM t WHERE ? = id")
        assert shape is not None
        assert shape.key_column == "id"

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) FROM t WHERE id = ?",  # aggregate
            "SELECT a FROM t WHERE id = ? ORDER BY a",  # ordering
            "SELECT a FROM t WHERE id = ? LIMIT 1",  # limit
            "SELECT DISTINCT a FROM t WHERE id = ?",  # distinct
            "SELECT a FROM t WHERE id = ? AND b = ?",  # two params
            "SELECT a FROM t WHERE id > ?",  # not equality
            "SELECT a FROM t GROUP BY a HAVING COUNT(*) = ?",  # grouping
            "SELECT a + ? FROM t WHERE id = ?",  # param in select list
            "SELECT a FROM t JOIN s ON t.id = s.id WHERE t.id = ?",  # join
        ],
    )
    def test_rejects_non_batchable(self, sql):
        assert _analyze(sql) is None

    def test_batch_statement_rewrite(self):
        parser = Parser("SELECT a, b FROM t WHERE id = ?")
        statement = parser.parse()
        shape = analyze_point_query(statement, parser.parameter_count)
        batched = build_batch_statement(statement, shape, 3)
        assert len(batched.items) == 3  # a, b, scatter key
        assert batched.items[-1].alias == BATCH_KEY_ALIAS
        new_parser_count = sum(
            1 for _ in range(3)
        )  # 3 keys → 3 parameters in the IN list
        assert len(batched.where.items) == new_parser_count


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_hit_after_miss(self, loan_setup):
        database, *_ = loan_setup
        cache = PlanCache(database)
        first = cache.lookup(POINT_QUERY)
        second = cache.lookup(POINT_QUERY)
        assert first is second
        assert cache.misses == 1 and cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_parameterless_select_fully_prepared(self, loan_setup):
        database, *_ = loan_setup
        cache = PlanCache(database)
        entry = cache.lookup("SELECT COUNT(*) FROM loans")
        assert entry.plan is not None
        result = database.execute_plan(
            entry.plan,
            sql=entry.sql,
            reads=entry.reads,
            privileges=entry.privileges,
        )
        assert result.scalar() == 200

    def test_ddl_invalidates(self, loan_setup):
        database, *_ = loan_setup
        cache = PlanCache(database)
        stale = cache.lookup(POINT_QUERY)
        database.execute("CREATE TABLE side (x INT)")
        fresh = cache.lookup(POINT_QUERY)
        assert fresh is not stale
        assert cache.invalidations == 1
        assert fresh.epoch > stale.epoch

    def test_model_redeploy_invalidates(self, loan_setup):
        database, registry, dataset, pipeline = loan_setup
        from flock.mlgraph import to_graph

        cache = PlanCache(database)
        stale = cache.lookup(POINT_QUERY)
        registry.deploy(
            "loan_model",
            to_graph(pipeline, dataset.feature_names, name="loan_model"),
        )
        fresh = cache.lookup(POINT_QUERY)
        assert fresh is not stale
        assert cache.invalidations == 1

    def test_unparseable_sql_is_not_cached(self, loan_setup):
        database, *_ = loan_setup
        cache = PlanCache(database)
        assert cache.lookup("SELEC nope") is None
        assert len(cache) == 0

    def test_eviction_bound(self, loan_setup):
        database, *_ = loan_setup
        cache = PlanCache(database, max_entries=4)
        for i in range(10):
            cache.lookup(f"SELECT {i} FROM loans")
        assert len(cache) <= 4


# ----------------------------------------------------------------------
# FlockServer
# ----------------------------------------------------------------------
@pytest.fixture
def server(loan_setup):
    database, *_ = loan_setup
    with FlockServer(database, workers=4, batch_wait_ms=2.0) as srv:
        yield srv


class TestServer:
    def test_served_equals_direct(self, loan_setup, server):
        database, *_ = loan_setup
        for key in (1, 50, 199):
            direct = database.execute(POINT_QUERY, [key]).rows()
            assert server.execute(POINT_QUERY, [key]).rows() == direct

    def test_concurrent_burst_coalesces_and_matches(self, loan_setup, server):
        database, *_ = loan_setup
        results: dict[int, list] = {}

        def client(key):
            results[key] = server.execute(POINT_QUERY, [key]).rows()

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(1, 61)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for key, rows in results.items():
            assert database.execute(POINT_QUERY, [key]).rows() == rows
        stats = server.stats()
        assert stats["served"] == 60
        assert stats["batches"] < 60  # some coalescing happened
        assert stats["batched_requests"] > 0

    def test_missing_key_returns_empty(self, server):
        assert server.execute(POINT_QUERY, [10_000]).rows() == []

    def test_null_key_matches_engine_error(self, loan_setup, server):
        # The engine rejects `col = NULL` comparisons at bind time; the
        # batcher must surface the same error, not invent empty results.
        database, *_ = loan_setup
        with pytest.raises(BindError):
            database.execute(POINT_QUERY, [None])
        with pytest.raises(BindError):
            server.execute(POINT_QUERY, [None])

    def test_duplicate_keys_in_one_batch(self, loan_setup, server):
        database, *_ = loan_setup
        expected = database.execute(POINT_QUERY, [7]).rows()
        futures = [server.submit(POINT_QUERY, [7]) for _ in range(8)]
        for future in futures:
            assert future.result().rows() == expected

    def test_non_batchable_statements_still_serve(self, loan_setup, server):
        database, *_ = loan_setup
        direct = database.execute("SELECT COUNT(*) FROM loans").scalar()
        assert server.execute("SELECT COUNT(*) FROM loans").scalar() == direct
        aggregate = server.execute(
            "SELECT AVG(income) FROM loans WHERE applicant_id = ?", [1]
        )
        assert aggregate.rows() == database.execute(
            "SELECT AVG(income) FROM loans WHERE applicant_id = ?", [1]
        ).rows()

    def test_writes_through_server(self, loan_setup, server):
        database, *_ = loan_setup
        database.execute("CREATE TABLE audit_t (x INT)")
        result = server.execute("INSERT INTO audit_t VALUES (1), (2)")
        assert result.affected_rows == 2
        assert server.execute("SELECT COUNT(*) FROM audit_t").scalar() == 2

    def test_errors_propagate(self, server):
        from flock.errors import FlockError

        with pytest.raises(FlockError):
            server.execute("SELECT nope FROM missing_table WHERE id = ?", [1])

    def test_model_swap_while_serving(self, loan_setup, server):
        database, registry, dataset, pipeline = loan_setup
        from flock.mlgraph import to_graph

        before = server.execute(POINT_QUERY, [3]).rows()
        registry.deploy(
            "loan_model",
            to_graph(pipeline, dataset.feature_names, name="loan_model"),
        )
        after = server.execute(POINT_QUERY, [3]).rows()
        assert after == before  # same pipeline redeployed → same scores
        assert server.plan_cache.invalidations >= 1


class TestAdmissionControl:
    def test_overload_rejects(self, loan_setup):
        database, *_ = loan_setup
        server = FlockServer(
            database, workers=1, max_pending=2, auto_start=False
        )
        server.submit(POINT_QUERY, [1])
        server.submit(POINT_QUERY, [2])
        with pytest.raises(ServerOverloadedError):
            server.submit(POINT_QUERY, [3])
        server.shutdown(drain=False)

    def test_timeout(self, loan_setup):
        database, *_ = loan_setup
        server = FlockServer(database, workers=1, auto_start=False)
        future = server.submit(POINT_QUERY, [1], timeout=0.01)
        with pytest.raises(ServerTimeoutError):
            future.result()
        server.shutdown(drain=False)

    def test_closed_server_rejects(self, loan_setup):
        database, *_ = loan_setup
        server = FlockServer(database, workers=1)
        server.shutdown()
        with pytest.raises(ServerClosedError):
            server.submit(POINT_QUERY, [1])

    def test_graceful_drain(self, loan_setup):
        database, *_ = loan_setup
        server = FlockServer(database, workers=2, batch_wait_ms=5.0)
        futures = [server.submit(POINT_QUERY, [k]) for k in range(1, 21)]
        server.shutdown(drain=True)
        for future in futures:
            assert future.result().rows() is not None

    def test_client_handle(self, loan_setup):
        database, *_ = loan_setup
        with FlockServer(database, workers=2) as server:
            client = server.connect("admin")
            assert client.execute(
                "SELECT COUNT(*) FROM loans"
            ).scalar() == 200


# ----------------------------------------------------------------------
# executemany
# ----------------------------------------------------------------------
class TestExecutemany:
    def test_basic(self, db: Database):
        db.execute("CREATE TABLE kv (k INT, v TEXT)")
        result = db.executemany(
            "INSERT INTO kv VALUES (?, ?)",
            [(i, f"v{i}") for i in range(100)],
        )
        assert result.affected_rows == 100
        assert db.execute("SELECT COUNT(*) FROM kv").scalar() == 100
        assert db.execute(
            "SELECT v FROM kv WHERE k = ?", [42]
        ).scalar() == "v42"

    def test_single_audit_record(self, db: Database):
        db.execute("CREATE TABLE kv (k INT)")
        before = len(list(db.audit.log.records()))
        db.executemany("INSERT INTO kv VALUES (?)", [(i,) for i in range(50)])
        records = list(db.audit.log.records())[before:]
        inserts = [r for r in records if r.action == "INSERT"]
        assert len(inserts) == 1
        assert "50 rows" in inserts[0].detail

    def test_mixed_constants_and_params(self, db: Database):
        db.execute("CREATE TABLE ev (k INT, tag TEXT, score FLOAT)")
        db.executemany(
            "INSERT INTO ev VALUES (?, 'fixed', ?)",
            [(1, 0.5), (2, 1.5)],
        )
        assert db.execute("SELECT tag FROM ev WHERE k = 1").scalar() == "fixed"
        assert db.execute("SELECT score FROM ev WHERE k = 2").scalar() == 1.5

    def test_param_count_mismatch(self, db: Database):
        db.execute("CREATE TABLE kv (k INT, v TEXT)")
        with pytest.raises(BindError):
            db.executemany("INSERT INTO kv VALUES (?, ?)", [(1,)])

    def test_empty_sequence(self, db: Database):
        db.execute("CREATE TABLE kv (k INT)")
        result = db.executemany("INSERT INTO kv VALUES (?)", [])
        assert result.affected_rows == 0

    def test_column_subset_and_dates(self, db: Database):
        db.execute(
            "CREATE TABLE evts (k INT, d DATE, note TEXT)"
        )
        db.executemany(
            "INSERT INTO evts (k, d) VALUES (?, ?)",
            [(1, "2024-03-01"), (2, "2024-03-02")],
        )
        assert db.execute(
            "SELECT COUNT(*) FROM evts WHERE note IS NULL"
        ).scalar() == 2

    def test_fallback_for_non_insert(self, db: Database):
        db.execute("CREATE TABLE kv (k INT)")
        db.executemany("INSERT INTO kv VALUES (?)", [(1,), (2,), (3,)])
        result = db.executemany(
            "UPDATE kv SET k = k + 10 WHERE k = ?", [(1,), (2,)]
        )
        assert result.affected_rows == 2
        assert db.execute("SELECT SUM(k) FROM kv").scalar() == 26

    def test_param_count_mismatch_message(self, db: Database):
        # Arity is checked once over all rows; the message names the first
        # row whose length is wrong, and nothing is inserted.
        db.execute("CREATE TABLE kv (k INT, v TEXT)")
        with pytest.raises(BindError) as err:
            db.executemany(
                "INSERT INTO kv VALUES (?, ?)",
                [(1, "a"), (2,), (3, "c", 4)],
            )
        assert str(err.value) == (
            "statement has 2 '?' placeholder(s) but 1 parameter value(s) "
            "were supplied"
        )
        assert db.execute("SELECT COUNT(*) FROM kv").scalar() == 0

    ROWS = [
        (1, 1.5, "2024-03-01", True, "a"),
        (2, None, None, None, None),
        (3, 7, "2024-03-01", False, "b"),
        (4, float("-inf"), datetime.date(2020, 2, 29), True, "a"),
        (5, -0.0, 19_000, None, ""),
    ]

    def test_matches_per_row_inserts(self, db: Database):
        for table in ("bulk", "rows"):
            db.execute(
                f"CREATE TABLE {table} (k INT, x FLOAT, d DATE, "
                f"b BOOLEAN, t TEXT, c TEXT)"
            )
        sql = "INSERT INTO {} VALUES (?, ?, ?, ?, ?, 'const')"
        db.executemany(sql.format("bulk"), self.ROWS)
        for row in self.ROWS:
            db.execute(sql.format("rows"), list(row))
        assert repr(db.execute("SELECT * FROM bulk").rows()) == repr(
            db.execute("SELECT * FROM rows").rows()
        )

    @pytest.mark.parametrize("bad", [(6, "x", None, None, None),
                                     (6, None, "2024-13-01", None, None),
                                     (6, None, None, 1, None)])
    def test_rejects_like_per_row_inserts(self, db: Database, bad):
        db.execute("CREATE TABLE kv (k INT, x FLOAT, d DATE, b BOOLEAN, "
                   "t TEXT)")
        sql = "INSERT INTO kv VALUES (?, ?, ?, ?, ?)"
        with pytest.raises(Exception) as bulk:
            db.executemany(sql, [*self.ROWS, bad])
        with pytest.raises(Exception) as single:
            db.execute(sql, list(bad))
        assert type(bulk.value) is type(single.value)
        assert str(bulk.value) == str(single.value)
        assert db.execute("SELECT COUNT(*) FROM kv").scalar() == 0


# ----------------------------------------------------------------------
# Serving metrics
# ----------------------------------------------------------------------
def test_serving_metrics_populated(loan_setup):
    from flock.observability import metrics

    database, *_ = loan_setup
    with FlockServer(database, workers=2) as server:
        for key in range(1, 6):
            server.execute(POINT_QUERY, [key])
    snapshot = metrics().snapshot("serving.")
    names = set(snapshot)
    assert "serving.requests" in names
    assert "serving.plan_cache.hits" in names
    assert "serving.latency_ms" in names
