"""Shared pieces of the benchmark: input recording, statistics, run outcome.

Every workload module exposes ``run(run)`` taking a :class:`Run`; the
workload fills ``run.metrics`` (end-to-end figures, untraced runs), counts
operations into ``run.attempted`` / ``run.failed``, and puts supporting
figures (sample counts, per-template times, environment) into
``run.detail``. Per-layer figures come from :mod:`layers` on traced runs.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from contextlib import nullcontext
from pathlib import Path



class Recorder:
    """Stand-in database that records what a data generator would load.

    The generators in :mod:`flock.workloads` push rows through
    ``executemany``; recording them lets the benchmark generate every input
    before any timed region and then replay the exact batches into the
    engine, so load timings measure ingest rather than row generation.
    """

    def __init__(self):
        self.batches: list[tuple[str, list[tuple]]] = []

    def executemany(self, sql: str, rows) -> None:
        self.batches.append((sql, list(rows)))

    @property
    def rows(self) -> int:
        return sum(len(rows) for _, rows in self.batches)


def replay(client, batches) -> float:
    """Load recorded batches through ``executemany``; returns its seconds."""
    elapsed = 0.0
    for sql, rows in batches:
        started = time.perf_counter()
        client.executemany(sql, rows)
        elapsed += time.perf_counter() - started
    return elapsed


def settle() -> None:
    """Collect, then exempt the generated inputs from garbage collection.

    The recorded rows and statements stay alive for the whole run; frozen,
    they no longer lengthen the collector's passes over the program's own
    objects, so timings do not depend on how large the inputs are.
    """
    gc.collect()
    gc.freeze()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of raw samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 0.5)


def dir_mb(path: Path) -> float:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total / 1e6


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Run:
    """One benchmark invocation: arguments in, metrics and outcome out."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 workdir: Path, layers=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.layers = layers
        self.metrics: dict[str, tuple[float, str]] = {}
        self.detail: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._opened: list = []
        self._overhead: list[float] = []

    @property
    def traced(self) -> bool:
        return self.layers is not None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, what: str) -> None:
        """Count one failed or wrong operation; remember the first few."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def track(self, client):
        """Remember *client* so :meth:`close_all` can stop what it runs."""
        self._opened.append(client)
        return client

    def close_all(self) -> None:
        """Close every tracked client (idempotent), stopping its workers."""
        while self._opened:
            self._opened.pop().close()

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def rounds(self, count: int, build, connect, block):
        """Interleave set-ups, reopens and measured blocks over the run.

        ``build(path) -> (client, load_seconds, rows)`` sets a database up
        in a fresh directory; ``connect(path)`` reopens one;
        ``block(client, index)`` runs one share of the measured work. Round
        0 sets up the database the run measures and runs its first block.
        Every later round closes it, times one more set-up (closed and
        removed at once, so one database is open at a time), times the
        reopen of the measured database and runs the next block. A last
        close and timed reopen follow. Spreading each metric's samples over
        the whole run keeps a slow stretch of a shared host from landing on
        one metric alone.

        Records ``setup_s`` (the median), ``load_rows_per_s`` (all rows
        over all load time), ``reopen_s`` (the mean: logs that grow from
        round to round make the reopens unequal work) and ``disk_mb`` (the
        directory at the last close); returns the reopened client.
        """
        setups, loads, reopens, loaded = [], [], [], 0
        client = path = None
        for index in range(count + 1):
            if client is not None:
                client.close()
            if index < count:
                fresh = self.fresh_dir(f"db{index}")
                with self.part("setup"):
                    started = time.perf_counter()
                    built, load_s, rows = build(fresh)
                    setups.append(time.perf_counter() - started)
                loads.append(load_s)
                loaded += rows
                if path is None:
                    client, path = built, fresh
                    block(client, index)
                    continue
                built.close()
                shutil.rmtree(fresh)
            else:
                self.metric("disk_mb", dir_mb(path), "MB")
            with self.part("reopen"):
                started = time.perf_counter()
                client = self.track(connect(path))
                reopens.append(time.perf_counter() - started)
            if index < count:
                block(client, index)
        self.metric("setup_s", median(setups), "s")
        self.metric("load_rows_per_s", loaded / sum(loads), "1/s")
        self.metric("reopen_s", sum(reopens) / len(reopens), "s")
        self.detail["setup_s_samples"] = setups
        self.detail["reopen_s_samples"] = reopens
        return client

    def part(self, name: str):
        """A traced part of the run on traced runs; a no-op otherwise."""
        return self.layers.part(name) if self.traced else nullcontext()

    def request(self, request_id):
        """Tag spans of one operation on traced runs; a no-op otherwise."""
        return self.layers.request(request_id) if self.traced else nullcontext()

    def traced_segments(self, segment, name: str) -> None:
        """Run ``segment() -> a time`` untraced, traced, then untraced.

        Each call adds one ratio of the traced segment to the mean of its
        untraced neighbours, which cancels a steady drift of the workload
        (tables that grow as it runs); ``trace_overhead_pct`` is the median
        ratio over all calls.
        """
        before = segment()
        with self.layers.part(name):
            traced = segment()
        after = segment()
        self._overhead.append(traced / ((before + after) / 2))
        self.detail["trace_overhead_pct"] = (
            (median(self._overhead) - 1.0) * 100.0
        )

    def latency_metrics(self, samples_ms: list[float], what: str) -> None:
        """``op_p50_ms`` from the benchmark's own samples.

        Tail percentiles go in the details with their sample count: on a
        shared 2-core host they did not repeat between runs closely enough
        to gate on.
        """
        self.metric("op_p50_ms", median(samples_ms), "ms")
        self.detail["op"] = {
            "what": what,
            "samples": len(samples_ms),
            **{f"p{round(q * 100)}_ms": percentile(samples_ms, q)
               for q in (0.5, 0.9, 0.95, 0.99)},
        }
