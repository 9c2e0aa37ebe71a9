"""spark-submit entrypoint: materialise the benchmark datasets
(WILDS-lite, ImageNet-lite) and their CHI indexes under ``data/``.

Usage: spark-submit jobs/gen_data.py
"""
import pandas as pd
from pyspark.sql import SparkSession

from repro import harness


def run(spark: SparkSession) -> tuple[pd.DataFrame, dict[str, bool]]:
    """Build both stores + indexes; write and return a summary table."""
    rows = []
    for name in ("wilds_lite", "imagenet_lite"):
        store = harness.get_store(spark, name)
        _, cfg = harness.DATASETS[name]
        harness.ensure_index(spark, store, cfg)
        spec = store.spec
        index_bytes = store.n_masks() * cfg.index_bytes_per_mask(spec.width, spec.height)
        rows.append(
            (
                name,
                spec.n_images,
                store.n_masks(),
                f"{spec.width}x{spec.height}",
                cfg.tag(),
                store.raw_bytes(),
                index_bytes,
                round(index_bytes / store.raw_bytes(), 4),
            )
        )
    pdf = pd.DataFrame(
        rows,
        columns=[
            "dataset", "n_images", "n_masks", "mask_size",
            "chi_config", "raw_bytes", "index_bytes", "index_ratio",
        ],
    )
    harness.save_markdown(pdf, "datasets.md", "Benchmark datasets and index sizes")
    return pdf, {}


if __name__ == "__main__":
    harness.run_job("gen_data", run)
