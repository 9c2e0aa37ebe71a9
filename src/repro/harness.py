"""Benchmark harness: dataset/engine construction and the runners that
reproduce each evaluation artifact (Table 2, Figures 7-11 as tables).

Benchmark datasets live under ``<repo>/data/`` and are built once
(generation is deterministic and idempotent); CHI indexes are persisted
next to each store. Every runner returns a pandas DataFrame — the same
rows that ``jobs/*.py`` write, print and check against the paper's shape
(:func:`run_job`), and that EXPERIMENTS.md records against the paper's
numbers.
"""
from __future__ import annotations

import contextlib
import glob
import os
import sys
import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.full_scan import FullScanBaseline
from repro.core.bounds import cp_bounds_batch
from repro.core.chi import ChiConfig, ChiIndex, build_index
from repro.core.executor import MaskSearchEngine
from repro.core.cp import CPTerm
from repro.masks.synth import IMAGENET_LITE, TINY, WILDS_LITE, DatasetSpec
from repro.maskstore.store import MaskStore, build_store
from repro.workloads import multi_query, random_queries
from repro.workloads.queries import table1_queries

#: Dataset name -> (spec, CHI config). Grid geometry matches the paper:
#: WILDS 448/64 = 7x7 cells, ImageNet 224/28 = 8x8 cells, b = 16 both.
DATASETS: dict[str, tuple[DatasetSpec, ChiConfig]] = {
    "wilds_lite": (WILDS_LITE, ChiConfig(16, 16, 16)),
    "imagenet_lite": (IMAGENET_LITE, ChiConfig(8, 8, 16)),
    "tiny": (TINY, ChiConfig(8, 8, 8)),
}

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DATA_DIR = os.environ.get("REPRO_DATA_DIR", os.path.join(REPO_ROOT, "data"))
RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR", os.path.join(REPO_ROOT, "results"))


def job_session(name: str) -> SparkSession:
    """SparkSession for ``jobs/*.py`` entrypoints (Arrow on, UI off).
    ``src/`` runs no join and no shuffle, so neither is configured."""
    spark = (
        SparkSession.builder.appName(name)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def get_store(spark: SparkSession, name: str) -> MaskStore:
    spec, _ = DATASETS[name]
    return build_store(spark, spec, os.path.join(DATA_DIR, name))


def ensure_index(spark: SparkSession, store: MaskStore, cfg: ChiConfig) -> str:
    """Build the CHI Parquet once per (store, config). A directory is
    reused only when it holds the Parquet files as well as the
    ``_SUCCESS`` marker."""
    path = store.index_path(cfg)
    done = os.path.exists(os.path.join(path, "_SUCCESS"))
    if not (done and glob.glob(os.path.join(path, "*.parquet"))):
        build_index(spark, store, cfg)
    return path


_ENGINE_CACHE: dict[tuple[int, str], MaskSearchEngine] = {}
_BASELINE_CACHE: dict[tuple[int, str], FullScanBaseline] = {}


def get_engine(spark: SparkSession, name: str) -> MaskSearchEngine:
    """Engine with the CHI held in memory, cached per session (the
    paper's long-running MaskSearch session)."""
    key = (id(spark), name)
    if key not in _ENGINE_CACHE:
        store = get_store(spark, name)
        _, cfg = DATASETS[name]
        path = ensure_index(spark, store, cfg)
        _ENGINE_CACHE[key] = MaskSearchEngine(
            spark, store, ChiIndex.load(spark, path, cfg)
        )
    return _ENGINE_CACHE[key]


def get_baseline(spark: SparkSession, name: str) -> FullScanBaseline:
    key = (id(spark), name)
    if key not in _BASELINE_CACHE:
        _BASELINE_CACHE[key] = FullScanBaseline(spark, get_store(spark, name))
    return _BASELINE_CACHE[key]


def to_markdown(pdf: pd.DataFrame) -> str:
    """Minimal GitHub-table formatter (no ``tabulate`` dependency)."""
    cols = [str(c) for c in pdf.columns]
    lines = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for _, row in pdf.iterrows():
        lines.append("| " + " | ".join(str(v) for v in row.tolist()) + " |")
    return "\n".join(lines)


def save_markdown(pdf: pd.DataFrame, filename: str, title: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    with open(path, "w") as f:
        f.write(f"# {title}\n\n")
        f.write(to_markdown(pdf))
        f.write("\n")
    return path


def run_job(name: str, run, *args) -> None:
    """Entry point of a ``jobs/*.py`` script. ``run(spark, *args)`` writes
    the artifact's tables under ``results/`` and returns one table to
    print plus its paper-shape claims (claim -> holds); the process then
    exits non-zero naming every claim that fails."""
    spark = job_session(name)
    try:
        table, claims = run(spark, *args)
    finally:
        spark.stop()
    print(to_markdown(table))
    failed = [claim for claim, holds in claims.items() if not holds]
    if failed:
        sys.exit(f"{name}: paper shape not reproduced: " + "; ".join(failed))


@contextlib.contextmanager
def io_delay(store: MaskStore, ms: float):
    """Charge ``ms`` of simulated-EBS latency per mask load on ``store``
    inside the block; the previous value is restored even on error."""
    old = store.io_delay_ms
    store.io_delay_ms = ms
    try:
        yield store
    finally:
        store.io_delay_ms = old


def warmup(spark: SparkSession, store: MaskStore) -> None:
    """Warm the Python-worker / Arrow / DataSource pipeline with one
    single-mask load so timed queries do not pay Spark's cold-start
    (the paper's analogue: a running session with a cold page cache)."""
    from repro.core import verify

    meta = store.metadata_pandas(spark)
    verify.exact_cp_pdf(spark, store, meta.head(1), (CPTerm(0.0, 1.0, None),))


# ---------------------------------------------------------------------------
# Table 2 + Figure 7: individual queries Q1-Q5
# ---------------------------------------------------------------------------
def run_individual_queries(
    spark: SparkSession,
    dataset: str,
    io_delay_ms: float = 0.0,
    query_names: tuple[str, ...] | None = None,
    repeats: int = 1,
) -> pd.DataFrame:
    """Q1-Q5 on one dataset: per-query wall-clock and masks loaded of
    MaskSearch and the full scan, asserting that both return equal rows.

    ``fullscan`` is the paper's PG ≡ TileDB ≡ NumPy class.
    ``io_delay_ms`` > 0 enables the simulated-EBS mode (per-mask load
    latency), reproducing the paper's I/O-bound regime where query time
    is proportional to masks loaded.
    """
    executors = {
        "masksearch": get_engine(spark, dataset),
        "fullscan": get_baseline(spark, dataset),
    }
    spec, _ = DATASETS[dataset]
    rows = []
    with contextlib.ExitStack() as delays:
        for ex in executors.values():
            with io_delay(ex.store, 0.0):
                warmup(spark, ex.store)
            delays.enter_context(io_delay(ex.store, io_delay_ms))
        for q in table1_queries(spec):
            if query_names is not None and q.name not in query_names:
                continue
            answers = {}
            for method, ex in executors.items():
                # best-of-n like the paper's median-of-5: damps JVM/GC noise
                dt = float("inf")
                for _ in range(max(1, repeats)):
                    t0 = time.perf_counter()
                    r = q.run(ex)
                    dt = min(dt, time.perf_counter() - t0)
                answers[method] = r.pdf.reset_index(drop=True)
                rows.append(
                    {
                        "dataset": dataset,
                        "query": q.name,
                        "method": method,
                        "io_delay_ms": io_delay_ms,
                        "time_s": round(dt, 3),
                        "masks_loaded": r.stats.masks_loaded,
                        "n_targeted": r.stats.n_targeted,
                        "n_results": len(r.pdf),
                    }
                )
            assert answers["masksearch"].equals(answers["fullscan"]), (
                f"{q.name}: MaskSearch and full scan disagree"
            )
    return pd.DataFrame(rows)


def summarize_masks_loaded(per_query: pd.DataFrame) -> pd.DataFrame:
    """Table 2: masks loaded per query by MaskSearch and by the full-scan
    class, with the targeted count and the reduction factor."""
    by = ["dataset", "query"]
    ms = per_query[per_query["method"] == "masksearch"].set_index(by)
    fs = per_query[per_query["method"] == "fullscan"].set_index(by)
    out = pd.DataFrame(
        {
            "masksearch_loaded": ms["masks_loaded"],
            "baseline_loaded (PG=TDB=NP)": fs["masks_loaded"],
            "n_targeted": ms["n_targeted"],
        }
    )
    out["reduction_x"] = (fs["masks_loaded"] / ms["masks_loaded"].clip(lower=1)).round(1)
    return out.reset_index()


# ---------------------------------------------------------------------------
# Figures 8 + 9: randomized query types; time vs FML correlation
# ---------------------------------------------------------------------------
def run_query_types(
    spark: SparkSession,
    dataset: str,
    n_filter: int = 30,
    n_topk: int = 12,
    n_agg: int = 12,
    io_delay_ms: float = 0.0,
) -> pd.DataFrame:
    """MaskSearch execution times for randomized Filter/Top-K/Aggregation
    queries (§4.3). Returns one row per query with time and FML.
    ``io_delay_ms`` > 0 puts the runs in the simulated-EBS regime
    (used by Fig. 9, where the paper's time ∝ FML claim lives)."""
    engine = get_engine(spark, dataset)
    spec, _ = DATASETS[dataset]
    warmup(spark, engine.store)
    rows = []

    def _record(qtype, i, run):
        t0 = time.perf_counter()
        r = run()
        dt = time.perf_counter() - t0
        rows.append(
            {
                "dataset": dataset,
                "query_type": qtype,
                "i": i,
                "time_s": round(dt, 4),
                "fml": round(r.stats.fml, 5),
                "masks_loaded": r.stats.masks_loaded,
            }
        )

    with io_delay(engine.store, io_delay_ms):
        for i, q in enumerate(random_queries.random_filter_queries(spec, n_filter)):
            _record("filter", i, lambda q=q: q.run(engine, model_id=1))
        for i, q in enumerate(random_queries.random_topk_queries(spec, n_topk)):
            _record("topk", i, lambda q=q: q.run(engine, model_id=1))
        for i, q in enumerate(random_queries.random_agg_queries(spec, n_agg)):
            _record("agg", i, lambda q=q: q.run(engine))
    return pd.DataFrame(rows)


def summarize_query_types(per_query: pd.DataFrame) -> pd.DataFrame:
    """Figure 8's box-plot statistics as a table."""
    g = per_query.groupby(["dataset", "query_type"])["time_s"]
    out = g.agg(
        n="count",
        min="min",
        p25=lambda s: s.quantile(0.25),
        median="median",
        p75=lambda s: s.quantile(0.75),
        max="max",
    ).reset_index()
    return out.round(3)


def fml_time_correlation(per_query: pd.DataFrame) -> pd.DataFrame:
    """Figure 9: Pearson r between query time and FML, per dataset,
    over the Filter queries."""
    rows = []
    for ds, sub in per_query[per_query["query_type"] == "filter"].groupby("dataset"):
        r = float(np.corrcoef(sub["time_s"], sub["fml"])[0, 1])
        rows.append(
            {
                "dataset": ds,
                "n_queries": len(sub),
                "pearson_r_time_vs_fml": round(r, 3),
                "fml_p25": round(float(sub["fml"].quantile(0.25)), 4),
                "fml_median": round(float(sub["fml"].median()), 4),
                "fml_p75": round(float(sub["fml"].quantile(0.75)), 4),
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Figure 10: bound tightness vs index granularity and value range
# ---------------------------------------------------------------------------
def run_bound_tightness(
    spark: SparkSession,
    dataset: str,
    n_masks: int = 1000,
) -> pd.DataFrame:
    """Bound distributions for (index size, value range) combinations
    (Figure 10): mean relative interval width and the FML induced by
    percentile count thresholds. ROI is the object bounding box."""
    store = get_store(spark, dataset)
    spec, cfg_fine = DATASETS[dataset]

    def _next_divisor(side: int, above: int) -> int:
        for d in range(above + 1, side + 1):
            if side % d == 0:
                return d
        return side

    # Coarser index: next-larger cell size that still tiles the mask,
    # half the value bins (the paper's smaller-index configuration).
    cfg_coarse = ChiConfig(
        _next_divisor(spec.width, cfg_fine.wc),
        _next_divisor(spec.height, cfg_fine.hc),
        max(2, cfg_fine.b // 2),
    )
    meta = store.metadata_pandas(spark)
    g = np.random.default_rng(0)
    sample = meta.sample(min(n_masks, len(meta)), random_state=int(g.integers(1 << 30)))
    rows = []
    for cfg, size_name in ((cfg_fine, "fine"), (cfg_coarse, "coarse")):
        path = ensure_index(spark, store, cfg)
        idx = ChiIndex.load(spark, path, cfg)
        H = idx.gather(sample["mask_id"].to_numpy(np.int64))
        rois = CPTerm(0.0, 1.0, "object").rois(sample, spec.width, spec.height)
        areas = ((rois[:, 2] - rois[:, 0]) * (rois[:, 3] - rois[:, 1])).astype(float)
        for lv, uv in ((0.6, 1.0), (0.8, 1.0)):
            lb, ub = cp_bounds_batch(H, rois, lv, uv, cfg)
            width = (ub - lb) / np.maximum(areas, 1)
            row = {
                "dataset": dataset,
                "index": f"{size_name} ({cfg.tag()})",
                "index_bytes_per_mask": cfg.index_bytes_per_mask(spec.width, spec.height),
                "lv": lv,
                "uv": uv,
                "mean_rel_width": round(float(width.mean()), 4),
            }
            # FML for thresholds at percentiles of the true-count scale
            for pct in (25, 50, 75):
                T = float(np.percentile((lb + ub) / 2, pct))
                fml = float(((lb <= T) & (ub > T)).mean())
                row[f"fml_T_p{pct}"] = round(fml, 4)
            rows.append(row)
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Figure 11: multi-query workloads
# ---------------------------------------------------------------------------
def run_multiquery(
    spark: SparkSession,
    dataset: str,
    n_queries: int = 30,
) -> pd.DataFrame:
    """Cumulative total time (index build + queries) of MS, MS-II and
    NumPy on Workloads 1-4. Returns one row per (workload, method, query
    index).

    Runs in the simulated-EBS regime (40 ms/mask): the paper's
    Figure 11 dynamics — crossovers, amortisation — exist because mask
    loading dominates, which raw local I/O at our scale does not
    reproduce (DESIGN.md §4). The latency applies equally to all three
    methods, including MS's up-front index build.
    """
    store = get_store(spark, dataset)
    _, cfg = DATASETS[dataset]
    spec, _ = DATASETS[dataset]
    warmup(spark, store)
    rows = []
    with io_delay(store, 40.0):
        for wid in (1, 2, 3, 4):
            wl = multi_query.generate_workload(spec, wid, n_queries)
            runs = {
                "MS": multi_query.run_ms(spark, store, cfg, wl),
                "MS-II": multi_query.run_msii(spark, store, cfg, wl),
                "NumPy": multi_query.run_numpy(spark, store, wl),
            }
            for r in runs.values():
                assert r.results == runs["NumPy"].results, "methods disagree on query results"
            for method, r in runs.items():
                cum = r.cumulative()
                for qi in range(len(cum)):
                    rows.append(
                        {
                            "dataset": dataset,
                            "workload": wid,
                            "method": method,
                            "query_idx": qi,
                            "cumulative_s": round(float(cum[qi]), 3),
                            "masks_loaded": int(r.masks_loaded[qi - 1]) if qi else 0,
                        }
                    )
    return pd.DataFrame(rows)


def summarize_multiquery(per_query: pd.DataFrame) -> pd.DataFrame:
    """Figure 11's headline facts per workload: final cumulative times,
    the MS/NumPy crossover query, and the MS-II : MS ratio peak/final."""
    rows = []
    for (ds, wid), sub in per_query.groupby(["dataset", "workload"]):
        piv = sub.pivot_table(index="query_idx", columns="method", values="cumulative_s")
        final = piv.iloc[-1]
        below = piv.index[piv["MS"] < piv["NumPy"]]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (piv["MS-II"] / piv["MS"]).iloc[1:]
        rows.append(
            {
                "dataset": ds,
                "workload": wid,
                **{f"final_{m}_s": round(float(final[m]), 2) for m in piv.columns},
                "ms_beats_numpy_at_query": int(below.min()) if len(below) else None,
                "msii_over_ms_peak": round(float(ratio.max()), 3),
                "msii_over_ms_final": round(float(ratio.iloc[-1]), 3),
            }
        )
    return pd.DataFrame(rows)
