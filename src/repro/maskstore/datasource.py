"""``maskstore`` Python DataSourceV2 with Catalyst predicate pushdown and
a fused verification mode.

This is the verification-stage scan path. Masks are selected before any
file is opened, through one set of target ids (``target_ids``), which
two inputs narrow:

- the ``maskids`` option carries an explicit target list, which is how
  the verification stage passes its candidates (no literal list for
  Catalyst to analyse);
- Catalyst's V2 pushdown rule hands the query's predicates to
  :meth:`MaskStoreReader.pushFilters`, which consumes only
  ``mask_id IN (...)`` and ``mask_id = v``, so a scan like

      scan(spark, store).where(col("mask_id").isin(candidates))

  opens exactly the candidate ``.npy`` files. Every other predicate
  (``model_id``, ``image_id``, ranges) is returned to Spark, which
  applies it to the rows read.

This is how the engine's filter-verification framework guarantees that
pruned masks are never loaded from disk (paper §3.2), expressed through
Spark's Catalyst extension point available to Python sources (see
DESIGN.md §6 for why a JVM ``Rule[LogicalPlan]`` is out of scope).

A plain read produces :data:`SCHEMA`: the mask pixels flattened into an
``array<float>`` column (row-major, ``height`` x ``width``). With the
``verify`` option, a JSON :class:`VerifySpec`, the reader itself computes
the verification result inside ``read()``, one ``(n, h, w)`` array per
chunk of masks, so a verification task runs a single Python stage. Every
verification scan returns one row per opened mask,
``mask_id, image_id, cp_0..cp_{n-1}``: exact CP per term and, if the
spec has a :class:`~repro.core.chi.ChiConfig`, the mask's flattened CHI
``h``. In Q5 mode (``t`` set) each term is evaluated on the intersection
at ``t`` of the targeted masks of the mask's image; partitions and
chunks end on image boundaries, so there is no shuffle.

A partition is a slice of the store's metadata rows: ids, paths and
ROIs are read from it where the masks are opened.

:func:`scan` builds every scan of the store and registers the source.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import SparkSession
from pyspark.sql.datasource import (
    DataSource,
    DataSourceReader,
    EqualTo,
    Filter,
    In,
    InputPartition,
)
from pyspark.sql.types import (
    ArrayType,
    FloatType,
    IntegerType,
    LongType,
    StructField,
    StructType,
)

from repro.core.chi import ChiConfig, build_chi_array
from repro.core.cp import OBJECT_ROI, CPTerm, cp_batch, intersect_threshold
from repro.maskstore.store import MaskStore, read_metadata

SCHEMA = StructType(
    [
        StructField("mask_id", LongType()),
        StructField("image_id", LongType()),
        StructField("model_id", IntegerType()),
        StructField("height", IntegerType()),
        StructField("width", IntegerType()),
        StructField("values", ArrayType(FloatType())),
    ]
)

#: Masks per Arrow batch: bounded worker memory.
CHUNK = 64


def _number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _roi(v):
    if v is None or v == OBJECT_ROI:
        return v
    if not isinstance(v, list) or len(v) != 4:
        raise ValueError(f"roi must be null, {OBJECT_ROI!r} or [x1, y1, x2, y2], got {v!r}")
    return tuple(_int(x) for x in v)


@dataclass(frozen=True)
class VerifySpec:
    """What a verification scan computes, carried as the reader's
    ``verify`` option in JSON (never pickle: decoding an option must not
    be able to run code).

    ``terms`` are the CP terms; ``cfg`` asks for the CHI of every opened
    mask (MS-II, §3.6); ``t`` selects Q5 mode, where ``terms[0]`` is
    evaluated on each mask's image intersection at ``t``.
    """

    terms: tuple[CPTerm, ...]
    cfg: ChiConfig | None = None
    t: float | None = None

    def __post_init__(self):
        if self.t is not None and len(self.terms) != 1:
            raise ValueError("Q5 mode takes exactly one term")

    def to_json(self) -> str:
        def roi(r):
            return r if r is None or isinstance(r, str) else [int(v) for v in r]

        return json.dumps(
            {
                "terms": [[float(c.lv), float(c.uv), roi(c.roi)] for c in self.terms],
                "chi": None if self.cfg is None else [self.cfg.wc, self.cfg.hc, self.cfg.b],
                "t": None if self.t is None else float(self.t),
            }
        )

    @classmethod
    def from_json(cls, raw: str) -> "VerifySpec":
        """Decode and check :meth:`to_json`'s output; ``ValueError`` on
        anything else."""
        try:
            d = json.loads(raw)
            if not isinstance(d, dict) or set(d) != {"terms", "chi", "t"}:
                raise ValueError("expected the keys terms, chi and t")
            terms = tuple(
                CPTerm(_number(lv), _number(uv), _roi(roi)) for lv, uv, roi in d["terms"]
            )
            cfg = None
            if d["chi"] is not None:
                wc, hc, b = (_int(v) for v in d["chi"])
                if min(wc, hc, b) < 1:
                    raise ValueError(f"ChiConfig values must be positive, got {d['chi']}")
                cfg = ChiConfig(wc, hc, b)
            t = None if d["t"] is None else _number(d["t"])
            return cls(terms, cfg, t)
        except (TypeError, ValueError, KeyError) as e:
            raise ValueError(f"malformed verify spec: {e}") from None

    def schema(self) -> StructType:
        return StructType(
            [StructField("mask_id", LongType()), StructField("image_id", LongType())]
            + [StructField(f"cp_{i}", LongType()) for i in range(len(self.terms))]
            + ([] if self.cfg is None else [StructField("h", ArrayType(LongType()))])
        )


def _cuts(image_ids: pd.Series, n_batches: int) -> list[int]:
    """Row offsets ``[0, ..., len(image_ids)]`` cutting image-major rows
    into at most ``n_batches`` near-equal batches, each moved forward to
    end on an image boundary, so an image's masks are opened (and, in Q5
    mode, intersected) in one batch. Without rows this is one empty batch,
    or none if ``n_batches`` is 0."""
    img = image_ids.to_numpy()
    ends = np.r_[np.flatnonzero(img[1:] != img[:-1]) + 1, len(img)]
    want = np.linspace(0, len(img), n_batches + 1)[1:]
    return [0, *np.unique(ends[np.searchsorted(ends, want)]).tolist()]


@dataclass
class MaskPartition(InputPartition):
    """One unit of parallel work: a slice of the store's metadata rows,
    image-major and ending on an image boundary."""

    rows: pd.DataFrame


class MaskStoreReader(DataSourceReader):
    """Reader with ``mask_id`` filter pushdown, metadata-level file
    pruning and, with a :class:`VerifySpec`, the verification kernel."""

    def __init__(self, options):
        self.root = options.get("path")
        if not self.root:
            raise ValueError("maskstore requires .option('path', <store root>)")
        self.n_partitions = int(options.get("numpartitions", 16))
        # Simulated-EBS mode (DESIGN.md §3): per-mask load latency in ms,
        # reproducing the paper's provisioned-bandwidth disk where mask
        # loading dominates query time. 0 (default) = raw local I/O.
        self.io_delay_ms = float(options.get("iodelayms", 0.0))
        if not 0 <= self.io_delay_ms < math.inf:
            raise ValueError(f"iodelayms must be finite and >= 0, got {self.io_delay_ms}")
        # Optional explicit target list (comma-separated mask_ids): the
        # verification stage's target path — Catalyst ``In`` with
        # thousands of literals costs seconds of analysis.
        raw_ids = options.get("maskids")
        self.target_ids = (
            None if raw_ids is None else frozenset(int(v) for v in raw_ids.split(",") if v)
        )
        raw_spec = options.get("verify")
        self.spec = None if raw_spec is None else VerifySpec.from_json(raw_spec)
        if self.spec is not None or self.target_ids is not None:
            self._check(MaskStore(self.root).spec)

    def _check(self, data) -> None:
        """Reject targets that would silently yield fewer rows, and ROIs
        or a ``ChiConfig`` that do not fit the store's masks.

        Checked against the store's ``_SPEC.json`` (mask ids are dense in
        ``[0, n_masks)``), so planning a scan reads the metadata table
        once, in :meth:`partitions`. The reader is pickled into every
        task before that, so the table is not kept on it."""
        spec = self.spec or VerifySpec(())
        missing = sorted(i for i in self.target_ids or () if not 0 <= i < data.n_masks)
        if missing:
            raise ValueError(f"mask ids not in the store's metadata: {missing[:10]}")
        for term in spec.terms:
            if term.roi != OBJECT_ROI:
                term.resolve_roi(data.width, data.height)
        if spec.cfg is not None:
            spec.cfg.grid(data.width, data.height)

    # -- Catalyst pushdown ------------------------------------------------
    def pushFilters(self, filters: List[Filter]) -> Iterator[Filter]:
        """Consume ``mask_id IN (...)`` and ``mask_id = v`` (what Catalyst
        pushes for ``isin``) by narrowing :attr:`target_ids`, the set the
        ``maskids`` option fills; return every other filter for Spark to
        apply after the scan."""
        for f in filters:
            if isinstance(f, (In, EqualTo)) and f.attribute == ("mask_id",):
                ids = frozenset(f.value) if isinstance(f, In) else frozenset([f.value])
                self.target_ids = ids if self.target_ids is None else self.target_ids & ids
            else:
                yield f

    # -- planning ---------------------------------------------------------
    def partitions(self):
        meta = read_metadata(self.root)
        if self.target_ids is not None:
            meta = meta[meta["mask_id"].isin(self.target_ids)]
        # Mask ids are image-major, so this keeps their order.
        meta = meta.sort_values("image_id", kind="stable")
        cuts = _cuts(meta["image_id"], max(1, min(self.n_partitions, len(meta))))
        return [MaskPartition(meta.iloc[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]

    # -- execution (runs on workers) ---------------------------------------
    def read(self, partition: MaskPartition):
        rows = partition.rows
        delay_s = self.io_delay_ms / 1000.0
        cuts = _cuts(rows["image_id"], -(-len(rows) // CHUNK))
        for lo, hi in zip(cuts, cuts[1:]):
            chunk = rows.iloc[lo:hi]
            if delay_s:
                time.sleep(delay_s * len(chunk))
            masks = np.stack([np.load(p) for p in chunk["path"]]).astype(np.float32, copy=False)
            yield (self._values_rows if self.spec is None else self._cp_rows)(chunk, masks)

    @staticmethod
    def _values_rows(rows: pd.DataFrame, masks: np.ndarray) -> pa.RecordBatch:
        n, h, w = masks.shape
        offsets = pa.array(np.arange(n + 1, dtype=np.int32) * (h * w))
        values = pa.ListArray.from_arrays(offsets, pa.array(masks.ravel()))
        names = SCHEMA.fieldNames()
        return pa.RecordBatch.from_arrays([*(pa.array(rows[c]) for c in names[:-1]), values], names)

    def _cp_rows(self, rows: pd.DataFrame, masks: np.ndarray) -> pa.RecordBatch:
        spec = self.spec
        if spec.t is not None:
            _, starts, n = np.unique(rows["image_id"], return_index=True, return_counts=True)
            inter = [intersect_threshold(list(g), spec.t) for g in np.split(masks, starts[1:])]
            counted = np.repeat(np.stack(inter), n, axis=0)
        else:
            counted = masks
        w, h = int(rows["width"].iat[0]), int(rows["height"].iat[0])
        cols = [pa.array(rows["mask_id"]), pa.array(rows["image_id"])]
        for term in spec.terms:
            cols.append(pa.array(cp_batch(counted, term.rois(rows, w, h), term.lv, term.uv)))
        if spec.cfg is not None:
            # The CHI is of the opened mask, never of an intersection.
            H = np.stack([build_chi_array(m, spec.cfg).ravel() for m in masks])
            offsets = pa.array(np.arange(len(H) + 1, dtype=np.int32) * H.shape[1])
            cols.append(pa.ListArray.from_arrays(offsets, pa.array(H.ravel())))
        return pa.RecordBatch.from_arrays(cols, names=spec.schema().fieldNames())


class MaskStoreDataSource(DataSource):
    """The ``maskstore`` source: scans a :class:`MaskStore` directory."""

    @classmethod
    def name(cls) -> str:
        return "maskstore"

    def schema(self):
        raw = self.options.get("verify")
        return SCHEMA if raw is None else VerifySpec.from_json(raw).schema()

    def reader(self, schema) -> MaskStoreReader:
        return MaskStoreReader(self.options)


_REGISTERED: set[int] = set()


def register(spark: SparkSession) -> None:
    """Register the source and enable Python-source filter pushdown.
    Idempotent per session: re-registration and conf churn mid-workload
    measurably perturb query planning, so both happen exactly once."""
    key = id(spark)
    if key in _REGISTERED:
        return
    spark.conf.set("spark.sql.python.filterPushdown.enabled", "true")
    spark.dataSource.register(MaskStoreDataSource)
    _REGISTERED.add(key)


def scan(
    spark: SparkSession,
    store: MaskStore,
    meta=None,
    spec: VerifySpec | None = None,
):
    """DataFrame over ``store``: the one place a ``maskstore`` scan is
    built. Registers the source on first use.

    The scan runs one read task per core (``defaultParallelism``), capped
    by the reader at the number of selected masks. A verification task
    runs one Python stage (this reader), so more tasks than cores only
    add waves of fixed per-task cost. Each mask read is charged
    ``store.io_delay_ms``.

    ``meta`` (metadata rows, if given) restricts the scan to exactly its
    masks: unless it covers the whole store, its mask ids travel as
    the ``maskids`` option, the verification stage's target path. A plain
    read may instead use ``.where(col("mask_id").isin(...))`` to exercise
    Catalyst pushdown. ``spec`` switches the reader to verification mode
    (module docstring).
    """
    register(spark)
    r = (
        spark.read.format("maskstore")
        .option("path", store.root)
        .option("numpartitions", str(spark.sparkContext.defaultParallelism))
    )
    if store.io_delay_ms:
        r = r.option("iodelayms", str(store.io_delay_ms))
    if meta is not None and len(meta) != store.n_masks():
        r = r.option("maskids", ",".join(str(int(v)) for v in meta["mask_id"]))
    if spec is not None:
        r = r.option("verify", spec.to_json())
    return r.load()
