"""spark-submit entrypoint reproducing Figure 11 as tables: multi-query
workload cumulative total time for MS, MS-II, and the NumPy full-scan
baseline, Workloads 1-4 (p_seen = 0.2/0.5/0.8/1.0).

Usage: spark-submit jobs/fig11_workloads.py [dataset] [n_queries]
  dataset defaults to wilds_lite; n_queries to 30 (paper: 200).
"""
import sys

import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(
    spark: SparkSession, dataset: str = "wilds_lite", n_queries: int = 30
) -> pd.DataFrame:
    per_query = harness.run_multiquery(
        spark, dataset, workload_ids=(1, 2, 3, 4), n_queries=n_queries
    )
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
    return summary


if __name__ == "__main__":
    dataset = sys.argv[1] if len(sys.argv) > 1 else "wilds_lite"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    spark = harness.job_session("fig11")
    print(harness.to_markdown(run(spark, dataset, n)))
    spark.stop()
