"""spark-submit entrypoint reproducing Table 2: masks loaded during
query execution for Q1-Q5 (MaskSearch vs the PG ≡ TileDB ≡ NumPy
full-scan class) on both datasets.

Usage: spark-submit jobs/table2_masks_loaded.py
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(spark: SparkSession) -> pd.DataFrame:
    parts = [
        harness.run_individual_queries(spark, ds)
        for ds in ("wilds_lite", "imagenet_lite")
    ]
    pdf = pd.concat(parts, ignore_index=True)
    piv = pdf.pivot_table(
        index=["dataset", "query"], columns="method", values="masks_loaded"
    ).reset_index()
    piv = piv.rename(
        columns={"masksearch": "masksearch_loaded", "fullscan": "baseline_loaded (PG=TDB=NP)"}
    )
    harness.save_markdown(
        piv, "table2_masks_loaded.md", "Table 2 — masks loaded during query execution"
    )
    return piv


if __name__ == "__main__":
    spark = harness.job_session("table2")
    print(harness.to_markdown(run(spark)))
    spark.stop()
