"""Exact-evaluation kernels shared by the verification stage and the
full-scan baselines.

Both load masks through the ``maskstore`` DataSourceV2 (so Catalyst
pushes the ``mask_id IN (...)`` predicate into the file scan) and
compute exact CP values with Arrow-vectorised ``mapInPandas`` /
``applyInPandas`` kernels. The *only* difference between MaskSearch and
the baselines is which ``mask_id`` set reaches these functions.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.chi import ChiConfig, build_chi_array, row_shape, rows_to_tensor
from repro.core.cp import CPTerm, cp, intersect_threshold
from repro.maskstore import datasource
from repro.maskstore.store import MaskStore


#: Above this candidate-set size, ids are shipped via the ``maskids``
#: datasource option instead of a Catalyst ``In`` literal list, whose
#: analysis cost grows with the literal count (seconds at ~10^4 ids).
IN_FILTER_MAX = 1024


def _target_scan(spark: SparkSession, store: MaskStore, meta: pd.DataFrame):
    """Store scan restricted to exactly ``meta``'s masks, choosing the
    cheapest correct pruning mechanism:

    - full dataset          -> plain scan (nothing to prune);
    - whole model groups    -> pushed ``model_id IN`` filter;
    - small arbitrary set   -> pushed ``mask_id IN`` filter (Catalyst
      DSv2 pushdown, the paper's verification path);
    - large arbitrary set   -> ``maskids`` option (same file pruning,
      no giant literal list for Catalyst to analyse).

    Every path opens exactly ``len(meta)`` mask files.
    """
    datasource.register(spark)  # idempotent; callers may not have yet
    delay = getattr(store, "io_delay_ms", 0.0)
    n = len(meta)
    if n == store.n_masks():
        return datasource.scan(spark, store.root, io_delay_ms=delay)
    models = sorted(int(v) for v in meta["model_id"].unique())
    n_per_model = store.spec.n_images
    if n == n_per_model * len(models) and (
        meta.groupby("model_id").size() == n_per_model
    ).all():
        df = datasource.scan(spark, store.root, io_delay_ms=delay)
        return df.where(F.col("model_id").isin(models))
    ids = [int(v) for v in meta["mask_id"]]
    if n <= IN_FILTER_MAX:
        df = datasource.scan(spark, store.root, io_delay_ms=delay)
        return df.where(F.col("mask_id").isin(ids))
    return datasource.scan(spark, store.root, io_delay_ms=delay, mask_ids=ids)


def _cp_chi_scan(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    terms: tuple[CPTerm, ...],
    cfg: ChiConfig | None,
    chi_ids: frozenset,
) -> pd.DataFrame:
    """The one per-mask CP kernel: load the masks in ``meta`` and compute
    exact CP per term, plus the flattened CHI (``h``) of every mask in
    ``chi_ids`` (``[]`` for the others). Returns
    ``mask_id, image_id, cp_0..cp_{n-1}, h`` (pandas; one row per mask).
    The store scan opens exactly ``len(meta)`` files thanks to the
    pushed-down ``In`` filter."""
    cols = [f"cp_{i}" for i in range(len(terms))]
    names = ["mask_id", "image_id", *cols, "h"]
    empty = pd.DataFrame({c: pd.Series(dtype=object if c == "h" else np.int64) for c in names})
    if len(meta) == 0:
        return empty
    w, h = store.spec.width, store.spec.height
    rois = np.stack([t.rois(meta, w, h) for t in terms], axis=1)  # (N, terms, 4)
    params = dict(zip(meta["mask_id"].tolist(), rois.tolist()))
    ranges = [(t.lv, t.uv) for t in terms]
    bc = spark.sparkContext.broadcast((params, ranges, chi_ids))
    df = _target_scan(spark, store, meta)
    schema = (
        "mask_id long, image_id long, "
        + ", ".join(f"{c} long" for c in cols)
        + ", h array<long>"
    )

    def _kernel(batches):
        prm, rng, chis = bc.value
        for pdf in batches:
            rows = []
            for mid, img, hh, ww, vals in zip(
                pdf["mask_id"], pdf["image_id"], pdf["height"], pdf["width"], pdf["values"]
            ):
                mask = np.asarray(vals, dtype=np.float32).reshape(hh, ww)
                cps = [cp(mask, r, lv, uv) for r, (lv, uv) in zip(prm[int(mid)], rng)]
                h_out = (
                    build_chi_array(mask, cfg).ravel().tolist()
                    if int(mid) in chis
                    else []
                )
                rows.append((int(mid), int(img), *cps, h_out))
            yield pd.DataFrame(rows, columns=names)

    out = df.mapInPandas(_kernel, schema=schema).toPandas()
    bc.unpersist()
    return out if len(out) else empty


def exact_cp_pdf(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    terms: tuple[CPTerm, ...],
) -> pd.DataFrame:
    """Load the masks in ``meta`` and compute exact CP per term.

    Returns ``mask_id, image_id, cp_0..cp_{n-1}`` (pandas; one row per
    mask).
    """
    return _cp_chi_scan(spark, store, meta, terms, None, frozenset()).drop(columns=["h"])


def exact_maskagg_pdf(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    t: float,
    term: CPTerm,
) -> pd.DataFrame:
    """Exact per-image ``CP(INTERSECT(masks >= t), roi, (lv, uv))`` via a
    grouped ``applyInPandas``: each image's masks are intersected where
    they land after the shuffle. Returns ``image_id, val``."""
    if len(meta) == 0:
        return pd.DataFrame(
            {"image_id": pd.Series(dtype=np.int64), "val": pd.Series(dtype=np.int64)}
        )
    rois = term.rois(meta, store.spec.width, store.spec.height)
    rois = dict(zip(meta["image_id"].tolist(), rois.tolist()))
    bc = spark.sparkContext.broadcast((rois, t, term.lv, term.uv))
    df = _target_scan(spark, store, meta)

    def _agg(pdf: pd.DataFrame) -> pd.DataFrame:
        rois_b, tt, lv, uv = bc.value
        img = int(pdf["image_id"].iat[0])
        masks = [
            np.asarray(v, dtype=np.float32).reshape(hh, ww)
            for v, hh, ww in zip(pdf["values"], pdf["height"], pdf["width"])
        ]
        m = intersect_threshold(masks, tt)
        return pd.DataFrame({"image_id": [img], "val": [cp(m, rois_b[img], lv, uv)]})

    out = (
        df.groupBy("image_id")
        .applyInPandas(_agg, schema="image_id long, val long")
        .toPandas()
    )
    bc.unpersist()
    return out


def exact_cp_and_chi(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    terms: tuple[CPTerm, ...],
    cfg: ChiConfig,
    chi_ids,
) -> tuple[pd.DataFrame, np.ndarray, np.ndarray]:
    """Verification with incremental indexing (§3.6): one pass that
    loads each mask and computes exact CPs, additionally building the
    CHI for the masks in ``chi_ids``. A single scan thus covers both
    first-touch masks (CP + CHI) and already-indexed masks that need
    verification (CP only). Returns
    ``(cp_pdf, chi_mask_ids, H_tensor)``; ``cp_pdf`` covers every mask in
    ``meta``, the CHI outputs only ``chi_ids``.
    """
    out = _cp_chi_scan(spark, store, meta, terms, cfg, frozenset(int(v) for v in chi_ids))
    with_chi = out[out["h"].map(len) > 0]
    shape = row_shape(cfg, store.spec.width, store.spec.height)
    H = rows_to_tensor(pa.array(with_chi["h"], pa.list_(pa.int64())), shape)
    return out.drop(columns=["h"]), with_chi["mask_id"].to_numpy(np.int64), H
