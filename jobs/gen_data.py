"""spark-submit entrypoint: materialise the benchmark datasets
(WILDS-lite, ImageNet-lite) and their CHI indexes under ``data/``.

Usage: spark-submit jobs/gen_data.py
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro import harness
from repro.core.chi import ChiIndex


def run(spark: SparkSession) -> pd.DataFrame:
    """Build both stores + indexes; return a summary table."""
    rows = []
    for name in ("wilds_lite", "imagenet_lite"):
        store = harness.get_store(spark, name)
        _, cfg = harness.DATASETS[name]
        path = harness.ensure_index(spark, store, cfg)
        idx = ChiIndex.load(spark, path, cfg)
        rows.append(
            (
                name,
                store.spec.n_images,
                store.n_masks(),
                f"{store.spec.width}x{store.spec.height}",
                cfg.tag(),
                store.raw_bytes(),
                idx.nbytes(),
                round(idx.nbytes() / store.raw_bytes(), 4),
            )
        )
    return pd.DataFrame(
        rows,
        columns=[
            "dataset", "n_images", "n_masks", "mask_size",
            "chi_config", "raw_bytes", "index_bytes", "index_ratio",
        ],
    )


if __name__ == "__main__":
    spark = harness.job_session("gen_data")
    pdf = run(spark)
    print(harness.to_markdown(pdf))
    harness.save_markdown(pdf, "datasets.md", "Benchmark datasets and index sizes")
    spark.stop()
