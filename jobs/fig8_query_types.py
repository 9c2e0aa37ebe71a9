"""spark-submit entrypoint reproducing Figure 8 as a table: MaskSearch
query-time distribution over randomized Filter/Top-K/Aggregation queries
(§4.3). The paper runs 500 queries per type; pass a count as the first
argument to scale (default 30/10/7 per dataset).

Checks that every query type ran and that every FML lies in [0, 1].

Usage: spark-submit jobs/fig8_query_types.py [n_filter]
"""
import sys

import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(spark: SparkSession, n_filter: int = 30) -> tuple[pd.DataFrame, dict[str, bool]]:
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
    harness.save_markdown(allq, "fig8_per_query.md", "Per-query times and FML (raw)")
    types = sorted(set(allq["query_type"]))
    return summary, {
        f"query types are filter, topk and agg (got {types})": types == ["agg", "filter", "topk"],
        "every FML is in [0, 1]": bool(allq["fml"].between(0.0, 1.0).all()),
    }


if __name__ == "__main__":
    harness.run_job("fig8", run, *map(int, sys.argv[1:2]))
