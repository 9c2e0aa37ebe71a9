"""Exact-evaluation entry points shared by the verification stage and
the full-scan baseline.

Each is one ``maskstore`` scan in verification mode
(:class:`~repro.maskstore.datasource.VerifySpec`, JSON in a reader
option) collected with ``toPandas``: the reader opens exactly the
targeted mask files and computes exact CP, the CHI of first-touch masks
and Q5's per-image intersection inside ``read()``. A verification task
therefore runs one Python stage, and a round is one Spark job with no
shuffle, Q5 included. The *only* difference between MaskSearch and the
baseline is which ``mask_id`` set reaches these functions.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import SparkSession

from repro.core.chi import ChiConfig, row_shape, rows_to_tensor
from repro.core.cp import CPTerm
from repro.maskstore import datasource
from repro.maskstore.store import MaskStore


#: Candidate-set size the benchmark's replay and its
#: ``verify.large_set_calls`` metric split on: above it, a plain scan
#: passes ids through the ``maskids`` option rather than a Catalyst
#: ``In`` literal list, whose analysis cost grows with the literal count
#: (seconds at ~10^4 ids). Verification scans always use ``maskids``.
IN_FILTER_MAX = 1024


def _target_scan(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    spec: datasource.VerifySpec | None = None,
):
    """Store scan restricted to exactly ``meta``'s masks, one read task
    per core, in verification mode when ``spec`` is given. The whole
    store is scanned without a target list; any other set travels as
    the ``maskids`` option, which the reader checks against the metadata
    and applies before opening a file. Opens exactly ``len(meta)`` mask
    files."""
    datasource.register(spark)  # idempotent; callers may not have yet
    ids = None if len(meta) == store.n_masks() else meta["mask_id"].tolist()
    delay = getattr(store, "io_delay_ms", 0.0)
    return datasource.scan(spark, store.root, io_delay_ms=delay, mask_ids=ids, spec=spec)


def _empty(names) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=object if c == "h" else np.int64) for c in names})


def _cp_chi_scan(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    terms: tuple[CPTerm, ...],
    cfg: ChiConfig | None,
    chi_ids: frozenset,
) -> pd.DataFrame:
    """The one per-mask CP scan: exact CP per term for every mask in
    ``meta``, plus the flattened CHI (``h``) of every mask in ``chi_ids``
    (``[]`` for the others). Returns ``mask_id, image_id, cp_0..cp_{n-1},
    h`` (pandas; one row per opened mask)."""
    spec = datasource.VerifySpec(tuple(terms), cfg, chi_ids)
    if len(meta) == 0:
        return _empty(spec.schema().fieldNames())
    return _target_scan(spark, store, meta, spec).toPandas()


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
    """Exact per-image ``CP(INTERSECT(masks >= t), roi, (lv, uv))``; each
    image's masks in ``meta`` are intersected inside the reader. Returns
    ``image_id, val, n``, ``n`` being the masks opened for the image."""
    spec = datasource.VerifySpec((term,), t=t)
    if len(meta) == 0:
        return _empty(spec.schema().fieldNames())
    return _target_scan(spark, store, meta, spec).toPandas()


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
