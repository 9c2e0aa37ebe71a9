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

The distributed build (:func:`build_index`) is the ``maskstore``
reader's verification scan of every mask with a ``ChiConfig``: each task
loads its masks, computes ``H`` with vectorised NumPy, and emits one row
per mask, which the executors write as Parquet next to the store.
:class:`ChiIndex` is the paper's "optimized array index structure": one
int64 tensor whose row ``i`` is the CHI of mask id ``i`` (ids are dense
per store), held in memory for the session and read from / written to
that Parquet on the driver with pyarrow.

An index row holds ``H`` flattened in C order (:func:`to_arrow`);
:func:`rows_to_tensor` is the one reshape back.
"""
from __future__ import annotations

import glob
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import SparkSession
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


def row_shape(cfg: ChiConfig, w: int, h: int) -> tuple[int, int, int]:
    """Shape ``(ny + 1, nx + 1, b)`` of the CHI of one ``w`` x ``h`` mask."""
    nx, ny = cfg.grid(w, h)
    return (ny + 1, nx + 1, cfg.b)


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


def to_arrow(mask_ids: np.ndarray, H: np.ndarray, cfg: ChiConfig) -> pa.RecordBatch:
    """Index rows ``mask_id, ny, nx, b, wc, hc, h`` for the CHIs ``H``,
    shape ``(n, ny + 1, nx + 1, b)``, of masks ``mask_ids``."""
    n, ny1, nx1, b = H.shape
    cols = {"mask_id": pa.array(mask_ids, pa.int64())}
    for k, v in {"ny": ny1 - 1, "nx": nx1 - 1, "b": b, "wc": cfg.wc, "hc": cfg.hc}.items():
        cols[k] = pa.array(np.full(n, v, np.int32))
    offsets = pa.array(np.arange(n + 1) * (ny1 * nx1 * b), pa.int32())
    cols["h"] = pa.ListArray.from_arrays(offsets, pa.array(np.asarray(H, np.int64).reshape(-1)))
    return pa.RecordBatch.from_pydict(cols)


def rows_to_tensor(h: pa.ListArray, shape: tuple[int, int, int]) -> np.ndarray:
    """``(n, *shape)`` int64 tensor from ``n`` flattened CHI rows."""
    return h.flatten().to_numpy().reshape(-1, *shape)


def from_arrow(batch: pa.RecordBatch, cfg: ChiConfig) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`to_arrow` for a non-empty batch. Every row must
    be built under ``cfg``: bounds from a CHI read under another config
    are unsound."""
    for c in ("wc", "hc", "b"):
        if (batch.column(c).to_numpy() != getattr(cfg, c)).any():
            raise ValueError(f"index rows built with another {c}, expected {cfg}")
    nx, ny = batch.column("nx")[0].as_py(), batch.column("ny")[0].as_py()
    shape = row_shape(cfg, nx * cfg.wc, ny * cfg.hc)
    return batch.column("mask_id").to_numpy(), rows_to_tensor(batch.column("h"), shape)


def build_index(
    spark: SparkSession, store, cfg: ChiConfig, out_path: str | None = None
) -> str:
    """Build the CHI of every mask in ``store`` and persist it as Parquet.
    Returns the index path.

    The build is one ``maskstore`` scan of the whole store in
    verification mode with no CP terms and ``cfg``, so the reader loads
    each mask once, charges ``store.io_delay_ms`` per mask (the paper's
    up-front indexing cost, §4.5) and runs one task per core; the
    executors write its rows straight to Parquet, in ``mask_id`` order
    within each file.

    ``store`` is a :class:`repro.maskstore.store.MaskStore`.
    """
    # Imported here: the datasource imports this module.
    from repro.maskstore import datasource

    out = out_path or store.index_path(cfg)
    nx, ny = cfg.grid(store.spec.width, store.spec.height)
    dims = {"ny": ny, "nx": nx, "b": cfg.b, "wc": cfg.wc, "hc": cfg.hc}
    (
        datasource.scan(spark, store, spec=datasource.VerifySpec((), cfg))
        .select("mask_id", *(F.lit(v).alias(k) for k, v in dims.items()), "h")
        .write.mode("overwrite")
        .parquet(out)
    )
    return out


class ChiIndex:
    """In-memory CHI for a set of homogeneous masks (same shape/config).

    Mirrors the paper's optimized array structure: one
    ``(max_id + 1, ny + 1, nx + 1, b)`` int64 tensor addressed by
    ``mask_id`` plus a boolean vector of the ids present, so a lookup is
    plain array indexing with no pointer chasing. Supports incremental
    growth (:meth:`add`) for §3.6.
    """

    def __init__(self, cfg: ChiConfig):
        self.cfg = cfg
        self._H: np.ndarray | None = None  # (max_id + 1, ny+1, nx+1, b)
        self._present = np.zeros(0, dtype=bool)

    # -- construction ---------------------------------------------------
    @classmethod
    def load(cls, spark: SparkSession, path: str, cfg: ChiConfig) -> "ChiIndex":
        """Load a persisted index (written by :func:`build_index` or
        :meth:`save`) on the driver with pyarrow, one record batch at a
        time, so no whole-table copy is held beside the tensor; ``spark``
        is not used."""
        files = sorted(glob.glob(os.path.join(path, "*.parquet")))
        if not files:
            raise FileNotFoundError(f"no CHI Parquet under {path}")
        idx = cls(cfg)
        for f in files:
            with pq.ParquetFile(f) as pf:
                for batch in pf.iter_batches(use_threads=False):
                    idx.add(*from_arrow(batch, cfg))
        return idx

    def save(self, spark: SparkSession, path: str) -> str:
        """Persist the index as Parquet in :func:`build_index`'s format,
        readable by :meth:`load`: ``path``'s contents are replaced by one
        Parquet file, written on the driver with pyarrow, and ``_SUCCESS``
        is written last. ``spark`` is not used. Returns ``path``."""
        if self._H is None:
            raise ValueError("nothing to persist: index is empty")
        ids = np.flatnonzero(self._present)
        rows = pa.Table.from_batches([to_arrow(ids, self._H[ids], self.cfg)])
        if os.path.isdir(path):
            shutil.rmtree(path)
        os.makedirs(path)
        pq.write_table(rows, os.path.join(path, "part-00000.parquet"))
        open(os.path.join(path, "_SUCCESS"), "w").close()
        return path

    def add(self, mask_ids: np.ndarray, H: np.ndarray) -> None:
        """Store CHIs ``H`` for masks ``mask_ids`` (incremental indexing,
        §3.6)."""
        ids = np.asarray(mask_ids, dtype=np.int64)
        if len(ids) != len(H) or (ids < 0).any():
            raise ValueError(f"need one CHI per non-negative mask id: {len(H)} for {len(ids)} ids")
        if len(ids) == 0:
            return
        if self._H is None:
            self._H = np.zeros((0, *H.shape[1:]), dtype=np.int64)
        if H.shape[1:] != self._H.shape[1:]:
            raise ValueError("CHI shape mismatch on incremental add")
        n = max(len(self._H), int(ids.max()) + 1)
        # Grown in place (realloc, zero-filled), not copied into a new
        # tensor; resize requires that no other reference exists.
        self._H.resize((n, *self._H.shape[1:]))
        self._present.resize(n)
        self._H[ids] = H
        self._present[ids] = True

    # -- access ---------------------------------------------------------
    def __len__(self) -> int:
        return int(self._present.sum())

    @property
    def row_shape(self) -> tuple[int, int, int] | None:
        """``(ny + 1, nx + 1, b)`` of the stored CHIs; ``None`` while empty."""
        return None if self._H is None else self._H.shape[1:]

    def has(self, mask_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(mask_ids, dtype=np.int64)
        ok = (ids >= 0) & (ids < len(self._present))
        ok[ok] = self._present[ids[ok]]
        return ok

    def gather(self, mask_ids: np.ndarray) -> np.ndarray:
        """Stacked ``(n, ny + 1, nx + 1, b)`` tensor for ``mask_ids``."""
        ids = np.asarray(mask_ids, dtype=np.int64)
        if self._H is None or not self.has(ids).all():
            raise KeyError(f"not indexed: {ids[~self.has(ids)][:10].tolist()}")
        return self._H[ids]
