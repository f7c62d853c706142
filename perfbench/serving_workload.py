"""``serving_predict``: open-loop PREDICT traffic through a FlockServer.

A durable ``loans`` table (20k rows, primary key ``applicant_id``) with a
deployed scaler + logistic-regression pipeline sits behind
``flock.connect(path, serving=True, workers=2)``. One generator thread
sends requests on a fixed schedule, whether or not earlier ones finished:
point predictions ``... WHERE applicant_id = ?`` with keys uniform over
all rows, and every 50th request a batch-scoring read over the whole table.
This loads the plan cache, micro-batching, index lookups and PREDICT (which
the cross-optimizer inlines into expressions for this pipeline); parsing
is skipped by the plan cache, and grouping and joins are not touched.

At the reference rate of 500 requests/s, latency is timed from when each
request was due, so a stall also charges the requests queued behind it;
this gives ``op_p50_ms`` for point requests.
``throughput_per_s`` is the capacity: completions per second of a closed
loop that keeps 64 requests outstanding. A seeded sample of responses
must equal the engine's sequential answer.
"""

from __future__ import annotations

import time

import numpy as np

import flock
from flock.ml import LogisticRegression, Pipeline, StandardScaler
from flock.ml.datasets import make_loans
from flock.mlgraph import to_graph

from harness import Run, median, peak_rss_mb, percentile, settle

POINT = (
    "SELECT applicant_id, PREDICT(loan_model) AS p "
    "FROM loans WHERE applicant_id = ?"
)
SCAN = (
    "SELECT applicant_id, PREDICT(loan_model) AS p "
    "FROM loans WHERE PREDICT(loan_model) > 0.5 AND income > ?"
)
FEATURES = ["income", "credit_score", "loan_amount", "debt_ratio",
            "years_employed"]
ROWS = 20_000
TRAIN_ROWS = 2_000
SCAN_EVERY = 50
#: Every SAMPLE_EVERY-th response is compared with a sequential answer.
SAMPLE_EVERY = 37
#: Above the ~400 requests/s one sequential engine serves, so the server
#: must batch; at 1000 requests/s the point p50 of one seed swung between
#: 4.4 and 7.8 ms from run to run on a shared 2-core host.
REFERENCE_RPS = 500
#: Requests kept outstanding by the closed loop that measures capacity.
IN_FLIGHT = 64
#: Nominal capacity used to size the closed-loop phases from --seconds.
NOMINAL_RPS = 3500
#: Share of --seconds spent at the reference rate; the rest measures
#: capacity. Both are split over ROUNDS rounds of set-up, reopen and
#: traffic (see ``Run.rounds``).
REFERENCE_SHARE = 0.6
ROUNDS = 8
#: Requests sent after each (re)open before measuring, to fill the plan
#: cache.
WARMUP = 200
WORKERS = 2


def _inputs(seed: int):
    """Table rows from *seed*; the model is trained on a fixed sample.

    A model trained per seed would change how many rows the batch-scoring
    read returns, and with it every latency, from one seed to the next.
    """
    training = make_loans(TRAIN_ROWS, random_state=0)
    pipeline = Pipeline(
        [("s", StandardScaler()), ("m", LogisticRegression(max_iter=150))]
    ).fit(training.feature_matrix(), training.target_vector())
    graph = to_graph(pipeline, FEATURES, name="loan_model")
    data = make_loans(ROWS, random_state=seed)
    features = data.feature_matrix()
    regions = data.columns["region"][1]
    rows = [
        (i + 1, *(float(v) for v in features[i]), regions[i])
        for i in range(ROWS)
    ]
    return rows, graph, features[:, 0]


def _connect(path):
    # A queue deep enough that a stall of the host shows as latency rather
    # than as rejected requests.
    return flock.connect(path, serving=True, workers=WORKERS,
                         max_pending=100_000)


def run(run: Run) -> None:
    rows, graph, incomes = _inputs(run.seed)
    rng = np.random.default_rng(run.seed + 1)
    keys = [int(key) for key in rng.integers(1, ROWS + 1, size=50)]
    settle()
    generator = _Generator(run, rng, incomes)
    reference = int(REFERENCE_RPS * run.seconds * REFERENCE_SHARE / ROUNDS)
    capacity = int(NOMINAL_RPS * run.seconds * (1 - REFERENCE_SHARE)
                   / ROUNDS)
    points, scans, late, rates = [], [], [], []
    before: list[str] = []

    def build(path):
        client = run.track(_connect(path))
        client.execute(
            "CREATE TABLE loans (applicant_id INTEGER PRIMARY KEY, "
            "income FLOAT, credit_score FLOAT, loan_amount FLOAT, "
            "debt_ratio FLOAT, years_employed FLOAT, region TEXT)"
        )
        started = time.perf_counter()
        client.executemany(
            "INSERT INTO loans VALUES (?, ?, ?, ?, ?, ?, ?)", rows
        )
        load_s = time.perf_counter() - started
        client.registry.deploy("loan_model", graph)
        return client, load_s, len(rows)

    def open_loop() -> float:
        result = generator.phase(reference, rate=REFERENCE_RPS)
        points.extend(result.point_ms)
        scans.extend(result.scan_ms)
        late.append(result.late_ms)
        return median(result.point_ms)

    def block(client, index: int) -> None:
        generator.client = client
        generator.phase(WARMUP, rate=REFERENCE_RPS)  # plan cache after reopen
        if run.traced:
            run.traced_segments(open_loop, "requests")
        else:
            open_loop()
            saturated = generator.phase(capacity, in_flight=IN_FLIGHT)
            rates.append(saturated.count / saturated.elapsed)
        generator.check_sample(client)
        if index == ROUNDS - 1:
            before.extend(_answers(client, keys))
            if run.traced:
                _explain(run, client, incomes)

    client = run.rounds(ROUNDS, build, _connect, block)
    try:
        run.check(
            client.execute("SELECT COUNT(*) FROM loans").scalar() == ROWS,
            "loans row count after reopen",
        )
        run.check(_answers(client, keys) == before,
                  "predictions after reopen")
    finally:
        client.close()
    run.detail["gen_late_ms"] = max(late)
    if not run.traced:
        run.latency_metrics(points, f"point request at {REFERENCE_RPS} rps")
        run.metric("throughput_per_s", median(rates), "1/s")
        run.detail["capacity_rps_samples"] = rates
        run.detail["serve_scan_p50_ms"] = median(scans)
        run.detail["scan_samples"] = len(scans)
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")


def _explain(run: Run, client, incomes) -> None:
    """Operator self times for 49 point reads and one batch-scoring read."""
    for sql, params in [(POINT, [1 + i * 397]) for i in range(49)] + [
        (SCAN, [float(median(incomes))])
    ]:
        plan = client.execute(f"EXPLAIN ANALYZE {sql}", params).rows()
        run.layers.add_explain([line for (line,) in plan])


class _Phase:
    def __init__(self, count: int):
        self.count = count
        self.point_ms: list[float] = []
        self.scan_ms: list[float] = []
        self.late_ms = 0.0
        self.elapsed = 0.0


class _Generator:
    """One generator thread: submits requests, polls for completions."""

    def __init__(self, run: Run, rng, incomes):
        self.run = run
        self.client = None
        self.rng = rng
        self.income_range = (float(np.quantile(incomes, 0.2)),
                             float(np.quantile(incomes, 0.8)))
        self.sampled: list[tuple[str, list, str]] = []
        self.sent = 0
        self.completed = 0

    def phase(self, count: int, rate: float | None = None,
              in_flight: int | None = None) -> _Phase:
        """Send *count* requests and wait for all of them.

        With *rate*, requests go out on a fixed schedule (open loop) and
        latency counts from when each was due; with *in_flight*, a new
        request goes out whenever fewer than that many are outstanding
        (closed loop) and latency counts from submission.
        """
        result = _Phase(count)
        keys = self.rng.integers(1, ROWS + 1, size=count)
        floors = self.rng.uniform(*self.income_range, size=count)
        lateness = []
        pending: list[tuple[float, bool, str, list, object]] = []
        start = time.perf_counter() + 0.001
        index = 0
        while index < count or pending:
            now = time.perf_counter()
            while index < count and (
                start + index / rate <= now if rate
                else len(pending) < in_flight
            ):
                due = start + index / rate if rate else now
                self.sent += 1
                if self.sent % SCAN_EVERY == 0:
                    sql, params = SCAN, [float(floors[index])]
                else:
                    sql, params = POINT, [int(keys[index])]
                lateness.append(now - due)
                pending.append(
                    (due, sql is SCAN, sql, params,
                     self.client.submit(sql, params))
                )
                index += 1
            still = []
            for item in pending:
                if item[4].done():
                    self._complete(result, item)
                else:
                    still.append(item)
            pending = still
            if rate and index < count:
                wait = start + index / rate - time.perf_counter()
                time.sleep(min(max(wait, 0.0), 0.0005))
            else:
                time.sleep(0.0002)
        result.elapsed = time.perf_counter() - start
        result.late_ms = percentile(lateness, 0.99) * 1e3
        return result

    def _complete(self, result: _Phase, item) -> None:
        due, is_scan, sql, params, future = item
        elapsed_ms = (time.perf_counter() - due) * 1e3
        self.run.attempted += 1
        self.completed += 1
        try:
            rows = future.result()
        except flock.FlockError as exc:
            self.run.fail(f"{sql[:40]} failed: {exc}")
            return
        (result.scan_ms if is_scan else result.point_ms).append(elapsed_ms)
        if self.completed % SAMPLE_EVERY == 0:
            self.sampled.append((sql, params, repr(rows.rows())))

    def check_sample(self, client) -> None:
        """Sampled served responses equal the engine's sequential answers."""
        for sql, params, served in self.sampled:
            sequential = repr(client.db.execute(sql, params).rows())
            self.run.check(sequential == served, f"served {sql[:40]} {params}")
        self.run.detail["responses_checked"] = (
            self.run.detail.get("responses_checked", 0) + len(self.sampled)
        )
        self.sampled.clear()


def _answers(client, keys) -> list[str]:
    return [repr(client.execute(POINT, [key]).rows()) for key in keys]
