"""Repository benchmark: four workloads against flock's public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch_power --seed 1 --seconds 8 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that wraps each layer's entry points and reports the
per-layer metrics (see ``layers.py``), writing its spans to
``.perfbench_out/``. The seed fixes every generated row, parameter and
request schedule; the program only ever receives those rows and
statements. Working databases live under ``.perfbench_run/`` and are
removed when the run ends.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it holds the run's details:
sample counts, environment and the workload-specific figures. The exit
status is 1 when any result was wrong or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tpch_power", "tpch_sharded", "serving_predict", "oltp_durable")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "flock"
    if not source.is_dir():
        print(f"error: no flock source tree at {source}", file=sys.stderr)
        return 2
    # Settings come from the benchmark alone, never from the environment.
    for name in [n for n in os.environ if n.startswith("FLOCK_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))

    import numpy

    import harness
    import layers

    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = layers.LayerTracer() if args.trace else None
    run = harness.Run(args.workload, args.seed, args.seconds, workdir,
                      tracer)
    try:
        _workload_module(args.workload).run(run)
    finally:
        run.close_all()
        shutil.rmtree(workdir, ignore_errors=True)

    run.detail.update(
        workload=args.workload,
        seed=args.seed,
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        problems=run.problems,
    )
    if tracer is not None:
        metrics, specific = layers.per_layer(
            tracer,
            run.detail["trace_overhead_pct"],
            run.detail.get("gen_late_ms", 0.0),
        )
        run.detail["layers"] = specific
        spans = (ROOT / ".perfbench_out"
                 / f"spans-{args.workload}-{args.seed}.json")
        tracer.write(spans)
        run.detail["span_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = run.metrics
    correct = run.failed == 0
    print(json.dumps(run.detail, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def _workload_module(name: str):
    if name.startswith("tpch"):
        import tpch_workloads

        return tpch_workloads
    if name == "serving_predict":
        import serving_workload

        return serving_workload
    import oltp_workload

    return oltp_workload


if __name__ == "__main__":
    sys.exit(main())
