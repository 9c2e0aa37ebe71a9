"""spark-submit entrypoint reproducing Figure 8 as a table: MaskSearch
query-time distribution over randomized Filter/Top-K/Aggregation queries
(§4.3). The paper runs 500 queries per type; pass a count as the first
argument to scale (default 30/10/8 per dataset).

Usage: spark-submit jobs/fig8_query_types.py [n_filter]
"""
import sys

import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(spark: SparkSession, n_filter: int = 30) -> pd.DataFrame:
    parts = []
    for ds in ("wilds_lite", "imagenet_lite"):
        parts.append(
            harness.run_query_types(
                spark, ds, n_filter=n_filter, n_topk=max(4, n_filter // 3),
                n_agg=max(4, n_filter // 4),
            )
        )
    allq = pd.concat(parts, ignore_index=True)
    summary = harness.summarize_query_types(allq)
    harness.save_markdown(
        summary,
        "fig8_query_type_distribution.md",
        "Figure 8 — MaskSearch query-time distribution by query type (s)",
    )
    # persist per-query rows for fig9
    harness.save_markdown(allq, "fig8_per_query.md", "Per-query times and FML (raw)")
    return summary


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    spark = harness.job_session("fig8")
    print(harness.to_markdown(run(spark, n)))
    spark.stop()
