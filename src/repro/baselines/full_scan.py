"""Full-scan baseline — the paper's PostgreSQL ≡ TileDB ≡ NumPy class.

All three baselines in the paper load *every* mask that satisfies the
relational (metadata) predicates and compute exact CP on it; Table 2
shows identical load counts and Figure 7 shows the same I/O-bound
execution time for all three. We therefore implement the class once,
faithfully: a Spark scan over the same store that loads every targeted
mask and evaluates the query exactly, with no index. The engine and the
baseline share the exact-CP kernels (:mod:`repro.core.verify`), so the
only difference measured is the number of masks loaded — precisely the
paper's claim.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import verify
from repro.core.cp import CPTerm
from repro.core.executor import GT, FilterPredicate, QueryResult, QueryStats
from repro.maskstore import datasource
from repro.maskstore.store import MaskStore


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


class FullScanBaseline:
    """No-index executor: loads all targeted masks for every query."""

    def __init__(self, spark: SparkSession, store: MaskStore):
        self.spark = spark
        self.store = store
        datasource.register(spark)
        self.meta = store.metadata_pandas(spark)

    def _target(
        self, model_id=None, mask_ids=None, image_ids=None, model_ids=None
    ) -> pd.DataFrame:
        m = self.meta
        if model_id is not None:
            m = m[m["model_id"] == model_id]
        if model_ids is not None:
            m = m[m["model_id"].isin(model_ids)]
        if mask_ids is not None:
            m = m[m["mask_id"].isin(set(int(v) for v in mask_ids))]
        if image_ids is not None:
            m = m[m["image_id"].isin(set(int(v) for v in image_ids))]
        return m.reset_index(drop=True)

    def _stats(self, meta: pd.DataFrame, loaded: int) -> QueryStats:
        """Every targeted mask is verified; ``loaded`` is what the scan
        opened."""
        n = len(meta)
        return QueryStats(n_targeted=n, n_verified=n, masks_loaded=loaded)

    def filter(
        self, pred: FilterPredicate, model_id=None, mask_ids=None
    ) -> QueryResult:
        meta = self._target(model_id=model_id, mask_ids=mask_ids)
        exact = verify.exact_cp_pdf(self.spark, self.store, meta, pred.terms)
        val = np.zeros(len(exact))
        for c, i in zip(pred.coefficients, range(len(pred.terms))):
            val = val + c * exact[f"cp_{i}"].to_numpy()
        keep = (val > pred.threshold) if pred.op == GT else (val < pred.threshold)
        out = (
            exact.loc[keep, ["mask_id"]]
            .sort_values("mask_id")
            .reset_index(drop=True)
        )
        return QueryResult(out, self._stats(meta, len(exact)))

    def topk(
        self, term: CPTerm, k: int, descending=True, model_id=None, mask_ids=None
    ) -> QueryResult:
        _check_k(k)
        meta = self._target(model_id=model_id, mask_ids=mask_ids)
        exact = verify.exact_cp_pdf(self.spark, self.store, meta, (term,))
        loaded = len(exact)
        exact = exact.rename(columns={"cp_0": "val"}).sort_values(
            ["val", "mask_id"], ascending=[not descending, True]
        )
        return QueryResult(
            exact.head(k)[["mask_id", "val"]].reset_index(drop=True), self._stats(meta, loaded)
        )

    def topk_ratio(
        self, num: CPTerm, den: CPTerm, k: int, descending=False, model_id=None, mask_ids=None
    ) -> QueryResult:
        _check_k(k)
        meta = self._target(model_id=model_id, mask_ids=mask_ids)
        exact = verify.exact_cp_pdf(self.spark, self.store, meta, (num, den))
        loaded = len(exact)
        exact = exact[exact["cp_1"] > 0].copy()
        exact["val"] = exact["cp_0"] / exact["cp_1"]
        exact = exact.sort_values(["val", "mask_id"], ascending=[not descending, True])
        return QueryResult(
            exact.head(k)[["mask_id", "val"]].reset_index(drop=True), self._stats(meta, loaded)
        )

    def agg_topk(
        self, term: CPTerm, k: int, descending=True, model_ids=None, image_ids=None
    ) -> QueryResult:
        _check_k(k)
        meta = self._target(model_ids=model_ids, image_ids=image_ids)
        exact = verify.exact_cp_pdf(self.spark, self.store, meta, (term,))
        agg = (
            exact.groupby("image_id", sort=True)["cp_0"].mean().rename("val").reset_index()
        )
        agg = agg.sort_values(["val", "image_id"], ascending=[not descending, True])
        return QueryResult(agg.head(k).reset_index(drop=True), self._stats(meta, len(exact)))

    def maskagg_topk(
        self, t: float, roi, k: int, descending=True, model_ids=None, image_ids=None
    ) -> QueryResult:
        _check_k(k)
        term = CPTerm(lv=t, uv=1.0, roi=roi)
        meta = self._target(model_ids=model_ids, image_ids=image_ids)
        agg = verify.exact_maskagg_pdf(self.spark, self.store, meta, t, term)
        loaded = int(agg["n"].sum())
        agg = agg[["image_id", "val"]].sort_values(
            ["val", "image_id"], ascending=[not descending, True]
        )
        return QueryResult(agg.head(k).reset_index(drop=True), self._stats(meta, loaded))
