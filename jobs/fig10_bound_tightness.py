"""spark-submit entrypoint reproducing Figure 10 as a table: bound
tightness (and the FML induced by count thresholds) for combinations of
(dataset, index granularity, pixel value range) over 1000 sampled masks
with object-bounding-box ROIs.

Paper shape: the finer index gives bounds no wider than the coarse one,
per (dataset, value range).

Usage: spark-submit jobs/fig10_bound_tightness.py
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(spark: SparkSession) -> tuple[pd.DataFrame, dict[str, bool]]:
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
    claims = {}
    for (ds, lv, uv), sub in pdf.groupby(["dataset", "lv", "uv"]):
        width = sub.set_index(sub["index"].str.split().str[0])["mean_rel_width"]
        claims[
            f"{ds} ({lv}, {uv}): fine width {width['fine']} <= coarse {width['coarse']}"
        ] = width["fine"] <= width["coarse"]
    return pdf, claims


if __name__ == "__main__":
    harness.run_job("fig10", run)
