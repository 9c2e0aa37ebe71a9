"""Exact-evaluation entry points of the verification stage, for
MaskSearch and for the full-scan baseline (the engine without an index).

Each is one ``maskstore`` scan in verification mode
(:class:`~repro.maskstore.datasource.VerifySpec`, JSON in a reader
option) collected with ``toPandas``: the reader opens exactly the
targeted mask files and returns one row per opened mask with its exact
CP (for Q5, of its image's intersection) and, when a ``ChiConfig`` is
given, its CHI, computed inside ``read()``. A verification task
therefore runs one Python stage, and a round is one Spark job with no
shuffle, Q5 included.
The *only* difference between MaskSearch and the baseline is which
``mask_id`` set reaches these functions.
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
#: (seconds at ~10^4 ids). Read only by ``perfbench/``; verification
#: scans always use ``maskids``.
IN_FILTER_MAX = 1024


def _run(
    spark: SparkSession, store: MaskStore, meta: pd.DataFrame, spec: datasource.VerifySpec
) -> pd.DataFrame:
    """One verification round: the scan of exactly ``meta``'s masks in
    ``spec``'s mode, collected. An empty target set starts no job and
    returns an empty frame of the spec's columns."""
    if len(meta) == 0:
        names = spec.schema().fieldNames()
        return pd.DataFrame({c: pd.Series(dtype=object if c == "h" else np.int64) for c in names})
    return datasource.scan(spark, store, meta, spec).toPandas()


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
    return _run(spark, store, meta, datasource.VerifySpec(tuple(terms)))


def exact_maskagg_pdf(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    t: float,
    term: CPTerm,
) -> pd.DataFrame:
    """Exact per-image ``CP(INTERSECT(masks >= t), roi, (lv, uv))``; each
    image's masks in ``meta`` are intersected inside the reader. Returns
    ``mask_id, image_id, cp_0``, one row per mask, ``cp_0`` being its
    image's value."""
    return _run(spark, store, meta, datasource.VerifySpec((term,), t=t))


def exact_cp_and_chi(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    terms: tuple[CPTerm, ...],
    cfg: ChiConfig,
    t: float | None = None,
) -> tuple[pd.DataFrame, np.ndarray]:
    """Verification with incremental indexing (§3.6): one pass that
    loads each mask in ``meta``, computes its exact CPs (with ``t``, as
    :func:`exact_cp_pdf` and :func:`exact_maskagg_pdf` do) and builds its
    CHI under ``cfg``. Returns ``(cp_pdf, H_tensor)``, one row of each
    per mask in ``meta``: ``H_tensor[i]`` is the CHI of mask
    ``cp_pdf["mask_id"].iat[i]``.
    """
    out = _run(spark, store, meta, datasource.VerifySpec(tuple(terms), cfg, t))
    shape = row_shape(cfg, store.spec.width, store.spec.height)
    H = rows_to_tensor(pa.array(out["h"], pa.list_(pa.int64())), shape)
    return out.drop(columns=["h"]), H
