"""spark-submit entrypoint reproducing Figure 10 as a table: bound
tightness (and the FML induced by count thresholds) for combinations of
(dataset, index granularity, pixel value range) over 1000 sampled masks
with object-bounding-box ROIs.

Usage: spark-submit jobs/fig10_bound_tightness.py
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(spark: SparkSession) -> pd.DataFrame:
    parts = [
        harness.run_bound_tightness(spark, ds, n_masks=1000)
        for ds in ("wilds_lite", "imagenet_lite")
    ]
    pdf = pd.concat(parts, ignore_index=True)
    harness.save_markdown(
        pdf,
        "fig10_bound_tightness.md",
        "Figure 10 — bound tightness vs index granularity and value range",
    )
    return pdf


if __name__ == "__main__":
    spark = harness.job_session("fig10")
    print(harness.to_markdown(run(spark)))
    spark.stop()
