"""spark-submit entrypoint reproducing Figure 9 as a table: Pearson
correlation between MaskSearch query time and the fraction of masks
loaded (FML) over randomized Filter queries.

Paper: r = 0.99 (WILDS), 0.96 (ImageNet); checked here as r >= 0.9 on
every dataset.

Usage: spark-submit jobs/fig9_fml_correlation.py [n_filter]
"""
import sys

import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(spark: SparkSession, n_filter: int = 40) -> tuple[pd.DataFrame, dict[str, bool]]:
    # Simulated-EBS regime: the paper's time ~ FML relationship requires
    # mask loading to dominate query time (DESIGN.md §4).
    parts = [
        harness.run_query_types(
            spark, ds, n_filter=n_filter, n_topk=0, n_agg=0, io_delay_ms=40.0
        )
        for ds in ("wilds_lite", "imagenet_lite")
    ]
    corr = harness.fml_time_correlation(pd.concat(parts, ignore_index=True))
    harness.save_markdown(
        corr,
        "fig9_fml_correlation.md",
        "Figure 9 — correlation between query time and fraction of masks loaded",
    )
    return corr, {
        f"{ds}: Pearson r(time, FML) >= 0.9 (got {r})": r >= 0.9
        for ds, r in zip(corr["dataset"], corr["pearson_r_time_vs_fml"])
    }


if __name__ == "__main__":
    harness.run_job("fig9", run, *map(int, sys.argv[1:2]))
