"""spark-submit entrypoint reproducing Table 2: masks loaded during
query execution for Q1-Q5 (MaskSearch vs the PG ≡ TileDB ≡ NumPy
full-scan class) on both datasets.

Paper shape: MaskSearch loads strictly fewer masks than the full scan on
every query.

Usage: spark-submit jobs/table2_masks_loaded.py
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(spark: SparkSession) -> tuple[pd.DataFrame, dict[str, bool]]:
    parts = [
        harness.run_individual_queries(spark, ds)
        for ds in ("wilds_lite", "imagenet_lite")
    ]
    table = harness.summarize_masks_loaded(pd.concat(parts, ignore_index=True))
    harness.save_markdown(
        table, "table2_masks_loaded.md", "Table 2 — masks loaded during query execution"
    )
    rows = zip(
        table["dataset"], table["query"],
        table["masksearch_loaded"], table["baseline_loaded (PG=TDB=NP)"],
    )
    return table, {
        f"{ds} {q}: MaskSearch loads fewer masks than the full scan ({ms} vs {fs})": ms < fs
        for ds, q, ms, fs in rows
    }


if __name__ == "__main__":
    harness.run_job("table2", run)
