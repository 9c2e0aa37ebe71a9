"""Cumulative Histogram Index (CHI) construction (paper §3.1).

For a mask of shape ``(h, w)`` with CHI config ``(w_c, h_c, b)``, the CHI
is the 3-D integer array ``H`` of shape ``(ny + 1, nx + 1, b)`` where
``nx = w // w_c``, ``ny = h // h_c`` and

    H[i, j, k] = # pixels with row < i * h_c, col < j * w_c,
                 and value >= k * (1 / b)

i.e. a 2-D prefix sum over grid-cell corners of the *reverse-cumulative*
pixel-value histogram — exactly Eq. (1) of the paper with
``p_min = 0, p_max = 1`` (mask values live in ``[0, 1)``). Row/column 0
are all zeros (the paper's implicit ``(0, 0)`` corner) so Eq. (2) is four
array lookups with no boundary cases.

The distributed build (:func:`build_index`) is a Spark ``mapInPandas``
scan over the mask store: each task loads its masks, computes ``H`` with
vectorised NumPy, and emits one row per mask; the result is persisted as
Parquet next to the store. :class:`ChiIndex` then loads that Parquet into
the paper's "optimized array index structure": one contiguous int64
tensor with ``mask_id -> row`` offsets, held in memory for the session.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


@dataclass(frozen=True)
class ChiConfig:
    """CHI discretisation parameters: cell size ``w_c`` x ``h_c`` and
    ``b`` equi-width pixel-value buckets over ``[0, 1)``."""

    wc: int
    hc: int
    b: int

    def grid(self, w: int, h: int) -> tuple[int, int]:
        if w % self.wc or h % self.hc:
            raise ValueError(
                f"mask {w}x{h} not divisible by cell {self.wc}x{self.hc}"
            )
        return (w // self.wc, h // self.hc)

    def index_bytes_per_mask(self, w: int, h: int) -> int:
        """Uncompressed index size per mask at 4 B per count (the paper's
        accounting: ``4 * b * (w/w_c) * (h/h_c)`` bytes)."""
        nx, ny = self.grid(w, h)
        return 4 * self.b * nx * ny

    def tag(self) -> str:
        return f"chi_{self.wc}x{self.hc}_b{self.b}"


def build_chi_array(mask: np.ndarray, cfg: ChiConfig) -> np.ndarray:
    """CHI of one mask: int64 array of shape ``(ny + 1, nx + 1, b)``."""
    h, w = mask.shape
    nx, ny = cfg.grid(w, h)
    b = cfg.b
    # Bin id per pixel: floor(v * b), clipped so v in [0, 1) maps to
    # [0, b - 1] even for values rounding up to exactly 1.0 * b.
    bins = np.minimum((mask * b).astype(np.int64), b - 1)
    bins = np.maximum(bins, 0)
    # Per-cell plain histogram via one flat bincount.
    cy = np.repeat(np.arange(ny), cfg.hc)[:, None]
    cx = np.repeat(np.arange(nx), cfg.wc)[None, :]
    flat = (cy * nx + cx) * b + bins
    hist = np.bincount(flat.ravel(), minlength=ny * nx * b).reshape(ny, nx, b)
    # Reverse-cumulative over the bin axis: count of pixels with bin >= k.
    rev = np.flip(np.cumsum(np.flip(hist, axis=2), axis=2), axis=2)
    # 2-D prefix sums over cells, padded with a zero row/column.
    H = np.zeros((ny + 1, nx + 1, b), dtype=np.int64)
    H[1:, 1:] = rev.cumsum(axis=0).cumsum(axis=1)
    return H


_INDEX_SCHEMA = (
    "mask_id long, ny int, nx int, b int, wc int, hc int, h array<long>"
)


def build_index(
    spark: SparkSession, store, cfg: ChiConfig, out_path: str | None = None
) -> str:
    """Build CHI for every mask in ``store`` with a distributed Spark scan
    and persist it as Parquet. Returns the index path.

    ``store`` is a :class:`repro.maskstore.store.MaskStore`.
    """
    out = out_path or store.index_path(cfg)
    meta = store.metadata(spark).select("mask_id", "path", "width", "height")
    wc, hc, b = cfg.wc, cfg.hc, cfg.b
    # Index construction loads every mask once; in simulated-EBS mode it
    # pays the same per-mask latency as query-time loads (fair account
    # of the paper's up-front indexing cost, §4.5).
    delay_s = getattr(store, "io_delay_ms", 0.0) / 1000.0

    def _build(batches):
        import time as _time

        for pdf in batches:
            rows = []
            for mask_id, path, w, h in zip(
                pdf["mask_id"], pdf["path"], pdf["width"], pdf["height"]
            ):
                if delay_s:
                    _time.sleep(delay_s)
                mask = np.load(path)
                H = build_chi_array(mask, ChiConfig(wc, hc, b))
                rows.append(
                    (
                        int(mask_id),
                        H.shape[0] - 1,
                        H.shape[1] - 1,
                        b,
                        wc,
                        hc,
                        H.ravel().tolist(),
                    )
                )
            yield pd.DataFrame(
                rows, columns=["mask_id", "ny", "nx", "b", "wc", "hc", "h"]
            )

    n_part = max(1, min(spark.sparkContext.defaultParallelism, store.n_masks()))
    (
        meta.repartition(n_part)
        .mapInPandas(_build, schema=_INDEX_SCHEMA)
        .write.mode("overwrite")
        .parquet(out)
    )
    return out


class ChiIndex:
    """In-memory CHI for a set of homogeneous masks (same shape/config).

    Mirrors the paper's optimized array structure: a single contiguous
    ``(N, ny + 1, nx + 1, b)`` int64 tensor plus an id->offset map, so a
    lookup is plain array indexing with no pointer chasing. Supports
    incremental growth (:meth:`add`) for §3.6.
    """

    def __init__(self, cfg: ChiConfig):
        self.cfg = cfg
        self._ids: list[int] = []
        self._pos: dict[int, int] = {}
        self._H: np.ndarray | None = None  # (N, ny+1, nx+1, b)

    # -- construction ---------------------------------------------------
    @classmethod
    def load(cls, spark: SparkSession, path: str, cfg: ChiConfig) -> "ChiIndex":
        """Load a persisted index Parquet (written by :func:`build_index`)."""
        pdf = spark.read.parquet(path).orderBy(F.col("mask_id")).toPandas()
        idx = cls(cfg)
        if len(pdf):
            # Bounds from a CHI read under another config are unsound.
            built = ChiConfig(*(int(pdf[c].iat[0]) for c in ("wc", "hc", "b")))
            if built != cfg:
                raise ValueError(f"index built with {built}, expected {cfg}")
            ny, nx = int(pdf["ny"].iat[0]), int(pdf["nx"].iat[0])
            H = np.stack(
                [np.asarray(h, dtype=np.int64).reshape(ny + 1, nx + 1, cfg.b) for h in pdf["h"]]
            )
            idx.add(pdf["mask_id"].astype(np.int64).to_numpy(), H)
        return idx

    def save(self, spark: SparkSession, path: str) -> str:
        """Persist the index as Parquet in :func:`build_index`'s format,
        readable by :meth:`load`. Returns ``path``."""
        if self._H is None:
            raise ValueError("nothing to persist: index is empty")
        _, ny1, nx1, b = self._H.shape
        pdf = pd.DataFrame(
            {
                "mask_id": np.asarray(self._ids, dtype=np.int64),
                "ny": ny1 - 1,
                "nx": nx1 - 1,
                "b": b,
                "wc": self.cfg.wc,
                "hc": self.cfg.hc,
                "h": [row.ravel().tolist() for row in self._H],
            }
        )
        spark.createDataFrame(pdf, schema=_INDEX_SCHEMA).write.mode("overwrite").parquet(path)
        return path

    def add(self, mask_ids: np.ndarray, H: np.ndarray) -> None:
        """Append CHIs for new masks (incremental indexing, §3.6)."""
        if len(mask_ids) == 0:
            return
        if self._H is None:
            self._H = np.ascontiguousarray(H, dtype=np.int64)
        else:
            if H.shape[1:] != self._H.shape[1:]:
                raise ValueError("CHI shape mismatch on incremental add")
            self._H = np.concatenate([self._H, H.astype(np.int64)])
        base = len(self._ids)
        for off, mid in enumerate(mask_ids):
            self._pos[int(mid)] = base + off
        self._ids.extend(int(m) for m in mask_ids)

    # -- access ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, mask_id: int) -> bool:
        return int(mask_id) in self._pos

    def has(self, mask_ids: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (int(m) in self._pos for m in mask_ids), dtype=bool, count=len(mask_ids)
        )

    def gather(self, mask_ids: np.ndarray) -> np.ndarray:
        """Stacked ``(n, ny + 1, nx + 1, b)`` tensor for ``mask_ids``."""
        if self._H is None:
            raise KeyError("index is empty")
        rows = np.fromiter(
            (self._pos[int(m)] for m in mask_ids), dtype=np.int64, count=len(mask_ids)
        )
        return self._H[rows]

    def nbytes(self) -> int:
        """Paper-style uncompressed size: 4 B per stored (cell, bin) count,
        zero padding row/column excluded (it is never persisted)."""
        if self._H is None:
            return 0
        n, ny1, nx1, b = self._H.shape
        return 4 * n * (ny1 - 1) * (nx1 - 1) * b
