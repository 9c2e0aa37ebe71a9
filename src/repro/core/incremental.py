"""Incremental indexing (paper §3.6).

An :class:`IncrementalSession` is the :class:`MaskSearchEngine` over a CHI
that starts *empty*: masks a query loads that are not yet indexed get
their CHI built in the same verification scan and kept in memory for
subsequent queries; already-indexed masks go through the normal
filter-verification path. :meth:`persist` saves the session's index to
Parquet so a later session (or the non-incremental engine) can reuse it
— the paper's session-end persistence.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.chi import ChiConfig, ChiIndex
from repro.core.executor import MaskSearchEngine
from repro.maskstore.store import MaskStore


class IncrementalSession(MaskSearchEngine):
    """MaskSearch session with lazily-built CHI (MS-II in §4.5)."""

    def __init__(self, spark: SparkSession, store: MaskStore, cfg: ChiConfig):
        super().__init__(spark, store, ChiIndex(cfg))

    # In this class's own namespace, so MS-II filters can be traced apart
    # from MS ones (perfbench/tracing.py wraps it by class attribute).
    filter = MaskSearchEngine.filter

    @property
    def n_indexed(self) -> int:
        return len(self.index)

    def persist(self, path: str | None = None) -> str:
        """Persist the session's CHI to Parquet (paper: session end)."""
        return self.index.save(self.spark, path or self.store.index_path(self.index.cfg))
