"""MaskSearch benchmark: query latency, masks loaded and set-up time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive_raw --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``):

- ``interactive_raw``: ImageNet-lite, raw local I/O, ``MaskSearchEngine``;
  Table-1 Q1-Q5 then a seeded §4.3 random filter.
- ``explore_msii``: ImageNet-lite, ``IncrementalSession`` running §4.5
  workload 2 from an empty index, then ``persist()``.
- ``loads_ebs40`` (not in BENCHMARK.json): WILDS-lite, 40 ms per mask
  load (simulated EBS), the ``interactive_raw`` query mix.

A run builds the datasets it needs under ``.bench_build/perfbench/data``
(once per checkout), times ``setup_s`` as the median of three set-ups,
computes reference answers on the driver, then runs identical passes of
the workload's queries, one query at a time, for up to ``--seconds``
(at least one pass). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics and the tracing overhead. Per-query rows, the summary
and the spans go to ``.bench_build/perfbench/runs/``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``):

- ``setup_s``: existing store to an executor that answers queries
  (``build_index``, ``ChiIndex.load``, engine, one-mask warm-up; MS-II:
  session and warm-up), median of three set-ups.
- ``query_s.p50``: median query latency.
- ``queries_per_s``: queries per second spent in queries (1 / mean).
- ``masks_loaded_frac``: masks loaded / masks targeted (Table 2's counts).

The three are taken over the Table-1 queries where the pass has them,
else over all its queries.
- ``correct_rate``: share of queries whose answer equals the reference.
- ``index_bytes_per_mask``: CHI Parquet bytes per indexed mask (MS-II:
  the persisted index).
- ``driver_rss_mb``: peak driver RSS through set-up.

Printed but not in BENCHMARK.json, because too few queries fit in a run
to make them steady across seeds: ``query_s.tail`` (with its percentile
and sample count), ``topk_s.p50``, ``agg_s.p50``,
``masks_loaded_per_query``, ``error_rate`` and the run's peak RSS.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("interactive_raw", "loads_ebs40", "explore_msii")
#: Metrics printed beside the BENCHMARK.json ones, not gated.
EXTRA_UNITS = {
    "query_s.tail": "s",
    "topk_s.p50": "s",
    "agg_s.p50": "s",
    "masks_loaded_per_query": "count",
    "masks_loaded_per_query_all": "count",
    "error_rate": "ratio",
    "driver_rss_mb.run_peak": "MB",
}


def spark_cores() -> int:
    return min(os.cpu_count() or 1, 4)


def driver_memory() -> str:
    """Half the machine's memory in GiB, clamped to [2, 8] (the tier-1
    test formula)."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def pin_runtime(work: str) -> None:
    """Spark, Python-worker and scratch settings, fixed before the JVM
    starts. Everything the run writes stays under ``work``."""
    src = os.path.join(ROOT, "src")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join([src, ROOT])  # for Python workers
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["REPRO_DATA_DIR"] = os.path.join(work, "data")
    os.environ["REPRO_RESULTS_DIR"] = os.path.join(work, "results")
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(work, "spark-local")
    os.environ["TMPDIR"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{spark_cores()}] --driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} pyspark-shell"
    )
    sys.path[:0] = [src, ROOT]


def stop(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    spark.stop()
    spark.sparkContext._gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:  # a JVM that will not exit is killed
            proc.kill()
            proc.wait()


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(res: dict, spec: dict, trace: bool) -> dict:
    """The result object: every ``end_to_end`` metric (or, traced, every
    ``per_layer`` metric) with its unit, and nothing else."""
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = res["summary"]["metrics"]
    if set(metrics) != set(listed):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(listed))}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": listed[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure under {ROOT}/src/repro", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_build", "perfbench")
    pin_runtime(work)

    from repro import harness

    from perfbench.bench import execute
    from perfbench.workloads import WORKLOADS

    out_dir = os.path.join(work, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spark = harness.job_session("perfbench")
    try:
        res = execute(spark, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        stop(spark)
    summary = res["summary"]
    line = result_line(res, load_spec(), bool(args.trace))
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={summary['passes']} queries={summary['queries']} "
        f"runtime={json.dumps(summary['runtime'])}"
    )
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, unit in EXTRA_UNITS.items():
        if name in summary:
            print(f"{name} = {summary[name]:.6g} {unit}")
    print(f"query_s.tail is p{summary['query_s.tail_pct']:g} of {summary['queries']} queries")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
