"""Self-test of the benchmark on the TINY dataset.

Checks that a deliberately corrupted result is counted as failed, that
correct runs fail nothing, and that every metric named in
``BENCHMARK.json`` is emitted with its unit in both trace modes, for an
engine workload and an incremental one. Run from the repository root::

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.run import ROOT, WORKLOAD_NAMES, load_spec, pin_runtime, result_line, stop  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def main() -> int:
    work = os.path.join(ROOT, ".bench_build", "perfbench-selftest")
    pin_runtime(work)
    import pandas as pd

    from repro import harness

    from perfbench.bench import execute
    from perfbench.workloads import WORKLOADS, BenchQuery, Call, Workload, explore_pass, table1_pass

    def corrupt(queries):
        """First query's answer loses its first row (or gains a bogus id)."""
        q0 = queries[0]

        def run(ex):
            r = q0.run(ex)
            if not isinstance(r, Call):
                r.pdf = r.pdf.iloc[1:] if len(r.pdf) else pd.DataFrame({"mask_id": [-1]})
            return r

        return [BenchQuery(q0.name, run, q0.table1), *queries[1:]]

    spec = load_spec()
    expect(set(WORKLOAD_NAMES) == set(WORKLOADS) >= {w["name"] for w in spec["workloads"]},
           "every workload in BENCHMARK.json is defined and accepted by the CLI")
    spark = harness.job_session("perfbench-selftest")
    try:
        for wl in (
            Workload("tiny_table1", "tiny", 0.0, False, table1_pass),
            Workload("tiny_explore", "tiny", 0.0, True, explore_pass),
        ):
            for trace in (False, True):
                out = os.path.join(work, "runs", f"{wl.name}-trace{int(trace)}")
                res = execute(spark, wl, 1, 0.0, trace, out)
                line = result_line(res, spec, trace)
                expect(line["correct"] and res["attempted"] > 0,
                       f"{wl.name} trace={int(trace)}: {res['attempted']} queries, none failed")
                kind = "per_layer" if trace else "end_to_end"
                expect(all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in spec[kind]),
                       f"{wl.name} trace={int(trace)}: every {kind} metric emitted with its unit")
            res = execute(spark, wl, 1, 0.0, False, os.path.join(work, "runs", f"{wl.name}-corrupt"),
                          corrupt=corrupt)
            line = result_line(res, spec, False)
            expect(res["failed"] == 1 and not line["correct"]
                   and line["metrics"]["correct_rate"]["value"] < 1.0,
                   f"{wl.name}: a corrupted result is counted as failed")
    finally:
        stop(spark)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
