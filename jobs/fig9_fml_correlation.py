"""spark-submit entrypoint reproducing Figure 9 as a table: Pearson
correlation between MaskSearch query time and the fraction of masks
loaded (FML) over randomized Filter queries.

Paper: r = 0.99 (WILDS), 0.96 (ImageNet).

Usage: spark-submit jobs/fig9_fml_correlation.py [n_filter]
"""
import sys

import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(spark: SparkSession, n_filter: int = 40) -> pd.DataFrame:
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
    return corr


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    spark = harness.job_session("fig9")
    print(harness.to_markdown(run(spark, n)))
    spark.stop()
