"""Multi-query exploration workloads and their runners (paper §4.5).

A workload is a sequence of *Filter* queries (parameters randomized as
in §4.3), each targeting a subset of masks. The subset size ``n`` is
drawn from ``{0.1, 0.2, 0.3} * N`` and its composition follows the
paper's ``p_seen`` protocol: ``p_seen`` of the targeted masks are
sampled from previously-targeted ("seen") masks, the rest from unseen
ones; once fewer than ``n * (1 - p_seen)`` unseen masks remain, all of
them are included and subsequent draws come from seen masks only.

Workloads 1-4 use ``p_seen = 0.2, 0.5, 0.8, 1.0`` respectively.

Three runners reproduce Figure 11's systems:

- :func:`run_ms`   — MaskSearch with the full CHI built up-front (the
  build time is charged to the 0-th query, as in the paper);
- :func:`run_msii` — MaskSearch with incremental indexing (§3.6);
- :func:`run_numpy` — the full-scan baseline (NumPy ≡ PG ≡ TileDB): the
  engine without an index.

Each returns per-query wall-clock times; cumulative totals (index build
+ query execution) are what Figure 11 plots.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.chi import ChiConfig, ChiIndex, build_index
from repro.core.executor import MaskSearchEngine
from repro.core.incremental import IncrementalSession
from repro.masks.synth import DatasetSpec
from repro.maskstore.store import MaskStore
from repro.workloads.random_queries import RandomFilterQuery, random_filter_queries

P_SEEN = {1: 0.2, 2: 0.5, 3: 0.8, 4: 1.0}
TARGET_FRACTIONS = (0.1, 0.2, 0.3)


@dataclass(frozen=True)
class WorkloadQuery:
    query: RandomFilterQuery
    mask_ids: tuple[int, ...]


def generate_workload(
    spec: DatasetSpec, workload_id: int, n_queries: int, seed: int = 0
) -> list[WorkloadQuery]:
    """The paper's seen/unseen targeting protocol for one workload."""
    p_seen = P_SEEN[workload_id]
    g = np.random.default_rng([seed, 404, workload_id])
    all_ids = np.arange(spec.n_masks)
    seen: np.ndarray = np.zeros(0, dtype=np.int64)
    unseen = all_ids.copy()
    queries = random_filter_queries(spec, n_queries, seed=seed * 7 + workload_id)
    out = []
    for q in queries:
        n = int(len(all_ids) * g.choice(TARGET_FRACTIONS))
        # p_seen of the n targets come from seen masks, the rest from
        # unseen; whichever pool runs short is backfilled from the other
        # (the paper's "switch to only sampling seen masks" rule).
        n_seen_want = min(int(round(n * p_seen)), len(seen))
        n_unseen_want = min(n - n_seen_want, len(unseen))
        if n_seen_want + n_unseen_want < n:
            n_seen_want = min(n - n_unseen_want, len(seen))
        picked_unseen = g.choice(unseen, size=n_unseen_want, replace=False)
        picked_seen = (
            g.choice(seen, size=n_seen_want, replace=False)
            if n_seen_want
            else np.zeros(0, dtype=np.int64)
        )
        target = np.concatenate([picked_seen, picked_unseen]).astype(np.int64)
        seen = np.union1d(seen, picked_unseen)
        unseen = np.setdiff1d(unseen, picked_unseen, assume_unique=True)
        out.append(WorkloadQuery(q, tuple(int(v) for v in target)))
    return out


@dataclass
class WorkloadRun:
    """Per-query timing of one (method, workload) execution."""

    method: str
    setup_time: float  # charged before the first query (MS: index build)
    query_times: list[float]
    masks_loaded: list[int]
    results: list[list[int]]

    def cumulative(self) -> np.ndarray:
        """Cumulative total time after query i (i = 0 is setup only)."""
        return self.setup_time + np.concatenate([[0.0], np.cumsum(self.query_times)])


def _run(method: str, ex, setup_time: float, workload: list[WorkloadQuery]) -> WorkloadRun:
    """Time each query of ``workload`` on executor ``ex``."""
    times, loads, results = [], [], []
    for wq in workload:
        t0 = time.perf_counter()
        r = wq.query.run(ex, mask_ids=wq.mask_ids)
        times.append(time.perf_counter() - t0)
        loads.append(r.stats.masks_loaded)
        results.append(r.ids())
    return WorkloadRun(method, setup_time, times, loads, results)


def run_ms(
    spark: SparkSession,
    store: MaskStore,
    cfg: ChiConfig,
    workload: list[WorkloadQuery],
) -> WorkloadRun:
    """MaskSearch with up-front index build (MS in Fig. 11)."""
    t0 = time.perf_counter()
    path = build_index(spark, store, cfg, out_path=store.index_path(cfg) + "_ms_run")
    index = ChiIndex.load(spark, path, cfg)
    setup = time.perf_counter() - t0
    return _run("MS", MaskSearchEngine(spark, store, index), setup, workload)


def run_msii(
    spark: SparkSession,
    store: MaskStore,
    cfg: ChiConfig,
    workload: list[WorkloadQuery],
) -> WorkloadRun:
    """MaskSearch with incremental indexing (MS-II in Fig. 11)."""
    return _run("MS-II", IncrementalSession(spark, store, cfg), 0.0, workload)


def run_numpy(
    spark: SparkSession,
    store: MaskStore,
    workload: list[WorkloadQuery],
) -> WorkloadRun:
    """Full-scan baseline (NumPy in Fig. 11; same loads as PG/TileDB)."""
    return _run("NumPy", MaskSearchEngine(spark, store, None), 0.0, workload)
