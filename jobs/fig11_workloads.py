"""spark-submit entrypoint reproducing Figure 11 as tables: multi-query
workload cumulative total time for MS, MS-II, and the NumPy full-scan
baseline, Workloads 1-4 (p_seen = 0.2/0.5/0.8/1.0).

Paper shape, per workload: MS overtakes NumPy at some query, and both MS
and MS-II end below NumPy.

Usage: spark-submit jobs/fig11_workloads.py [dataset] [n_queries]
  dataset defaults to wilds_lite; n_queries to 30 (paper: 200).
"""
import sys

import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(
    spark: SparkSession, dataset: str = "wilds_lite", n_queries: int = 30
) -> tuple[pd.DataFrame, dict[str, bool]]:
    per_query = harness.run_multiquery(spark, dataset, n_queries)
    harness.save_markdown(
        per_query,
        f"fig11_per_query_{dataset}.md",
        f"Figure 11 — cumulative times per query ({dataset})",
    )
    summary = harness.summarize_multiquery(per_query)
    harness.save_markdown(
        summary,
        f"fig11_multiquery_{dataset}.md",
        f"Figure 11 — multi-query workload summary ({dataset})",
    )
    claims = {}
    for row in summary.to_dict("records"):
        w, numpy = f"workload {row['workload']}", row["final_NumPy_s"]
        cross = row["ms_beats_numpy_at_query"]
        claims[f"{w}: MS overtakes NumPy (at query {cross})"] = pd.notna(cross)
        for m in ("MS", "MS-II"):
            final = row[f"final_{m}_s"]
            claims[f"{w}: final {m} {final} s < NumPy {numpy} s"] = final < numpy
    return summary, claims


if __name__ == "__main__":
    args = sys.argv[1:3]
    harness.run_job("fig11", run, *args[:1], *map(int, args[1:]))
