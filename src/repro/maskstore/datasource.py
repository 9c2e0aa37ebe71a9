"""``maskstore`` Python DataSourceV2 with Catalyst predicate pushdown and
a fused verification mode.

This is the verification-stage scan path. Masks are selected before any
file is opened, in two ways:

- Catalyst's V2 pushdown rule hands the query's predicates to
  :meth:`MaskStoreReader.pushFilters`; filters on the relational columns
  (``mask_id``, ``image_id``, ``model_id``) are consumed there and
  applied to the *metadata*, so a scan like

      spark.read.format("maskstore").options(path=root).load()
           .where(col("mask_id").isin(candidates))

  opens exactly the candidate ``.npy`` files;
- the ``maskids`` option carries an explicit target list, which is how
  the verification stage passes its candidates (no literal list for
  Catalyst to analyse, and the verification schemas have no
  ``model_id`` to filter on).

This is how the engine's filter-verification framework guarantees that
pruned masks are never loaded from disk (paper §3.2), expressed through
Spark's Catalyst extension point available to Python sources (see
DESIGN.md §6 for why a JVM ``Rule[LogicalPlan]`` is out of scope).

A plain read produces :data:`SCHEMA`: the mask pixels flattened into an
``array<float>`` column (row-major, ``height`` x ``width``). With the
``verify`` option, a JSON :class:`VerifySpec`, the reader itself computes
the verification result inside ``read()``, one ``(n, h, w)`` array per
chunk of masks, so a verification task runs a single Python stage:

- CP mode: ``mask_id, image_id, cp_0..cp_{n-1}, h`` — exact CP per term
  and the flattened CHI of the spec's ``chi_ids`` (``[]`` for the
  others); one row per opened mask;
- Q5 mode (``t`` set): ``image_id, val, n`` — each image's targeted masks
  are intersected at ``t`` inside the reader (partitions and chunks are
  split on image boundaries, so there is no shuffle) and ``n`` counts
  the masks opened for it.

Register once per session with :func:`register`.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np
import pyarrow as pa
from pyspark.sql import SparkSession
from pyspark.sql.datasource import (
    DataSource,
    DataSourceReader,
    EqualTo,
    Filter,
    GreaterThan,
    GreaterThanOrEqual,
    In,
    InputPartition,
    LessThan,
    LessThanOrEqual,
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
from repro.maskstore.store import read_metadata

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

_FILTERABLE = {"mask_id", "image_id", "model_id"}
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

    ``terms`` are the CP terms; ``cfg`` and ``chi_ids`` ask for the CHI of
    those masks (MS-II, §3.6); ``t`` selects Q5 mode, where ``terms[0]``
    is evaluated on each image's intersection at ``t``.
    """

    terms: tuple[CPTerm, ...]
    cfg: ChiConfig | None = None
    chi_ids: frozenset = frozenset()
    t: float | None = None

    def __post_init__(self):
        if self.t is not None and (len(self.terms) != 1 or self.chi_ids):
            raise ValueError("Q5 mode takes exactly one term and no chi_ids")
        if self.chi_ids and self.cfg is None:
            raise ValueError("chi_ids need a ChiConfig")

    def to_json(self) -> str:
        def roi(r):
            return r if r is None or isinstance(r, str) else [int(v) for v in r]

        return json.dumps(
            {
                "terms": [[float(c.lv), float(c.uv), roi(c.roi)] for c in self.terms],
                "chi": None if self.cfg is None else [self.cfg.wc, self.cfg.hc, self.cfg.b],
                "chi_ids": sorted(int(v) for v in self.chi_ids),
                "t": None if self.t is None else float(self.t),
            }
        )

    @classmethod
    def from_json(cls, raw: str) -> "VerifySpec":
        """Decode and check :meth:`to_json`'s output; ``ValueError`` on
        anything else."""
        try:
            d = json.loads(raw)
            if not isinstance(d, dict) or set(d) != {"terms", "chi", "chi_ids", "t"}:
                raise ValueError("expected the keys terms, chi, chi_ids and t")
            terms = tuple(
                CPTerm(_number(lv), _number(uv), _roi(roi)) for lv, uv, roi in d["terms"]
            )
            cfg = None
            if d["chi"] is not None:
                wc, hc, b = (_int(v) for v in d["chi"])
                if min(wc, hc, b) < 1:
                    raise ValueError(f"ChiConfig values must be positive, got {d['chi']}")
                cfg = ChiConfig(wc, hc, b)
            chi_ids = frozenset(_int(v) for v in d["chi_ids"])
            t = None if d["t"] is None else _number(d["t"])
            return cls(terms, cfg, chi_ids, t)
        except (TypeError, ValueError, KeyError) as e:
            raise ValueError(f"malformed verify spec: {e}") from None

    def schema(self) -> StructType:
        if self.t is not None:
            return StructType([StructField(c, LongType()) for c in ("image_id", "val", "n")])
        return StructType(
            [StructField("mask_id", LongType()), StructField("image_id", LongType())]
            + [StructField(f"cp_{i}", LongType()) for i in range(len(self.terms))]
            + [StructField("h", ArrayType(LongType()))]
        )


@dataclass
class MaskPartition(InputPartition):
    """One unit of parallel work: a slice of (mask_id, path, ...) rows,
    plus, in verification mode, each mask's ROI per term
    ``(terms, n, 4)`` and whether its CHI is wanted."""

    mask_ids: tuple
    image_ids: tuple
    model_ids: tuple
    paths: tuple
    height: int
    width: int
    rois: np.ndarray | None = None
    chi: np.ndarray | None = None


class MaskStoreReader(DataSourceReader):
    """Reader with relational-column filter pushdown, metadata-level
    file pruning and, with a :class:`VerifySpec`, the verification
    kernel."""

    def __init__(self, options):
        self.root = options.get("path")
        if not self.root:
            raise ValueError("maskstore requires .option('path', <store root>)")
        self.n_partitions = int(options.get("numpartitions", 16))
        # Simulated-EBS mode (DESIGN.md §3): per-mask load latency in ms,
        # reproducing the paper's provisioned-bandwidth disk where mask
        # loading dominates query time. 0 (default) = raw local I/O.
        self.io_delay_ms = float(options.get("iodelayms", 0.0))
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
            self._check(read_metadata(self.root))
        self._pushed: List[Filter] = []

    def _check(self, meta) -> None:
        """Reject targets that would silently yield fewer rows, and ROIs
        or a ``ChiConfig`` that do not fit the store's masks."""
        known = frozenset(meta["mask_id"].tolist())
        spec = self.spec or VerifySpec(())
        targets = known if self.target_ids is None else self.target_ids
        missing = (targets | spec.chi_ids) - known
        if missing:
            raise ValueError(f"mask ids not in the store's metadata: {sorted(missing)[:10]}")
        if not spec.chi_ids <= targets:
            raise ValueError(f"chi_ids not targeted: {sorted(spec.chi_ids - targets)[:10]}")
        if len(meta):
            w, h = int(meta["width"].iat[0]), int(meta["height"].iat[0])
            for term in spec.terms:
                if term.roi != OBJECT_ROI:
                    term.resolve_roi(w, h)
            if spec.cfg is not None:
                spec.cfg.grid(w, h)

    # -- Catalyst pushdown ------------------------------------------------
    def pushFilters(self, filters: List[Filter]) -> Iterator[Filter]:
        """Consume supported filters; return the rest for Spark to apply."""
        for f in filters:
            attr = getattr(f, "attribute", None)
            col = attr[0] if attr and len(attr) == 1 else None
            if col in _FILTERABLE and isinstance(
                f,
                (In, EqualTo, GreaterThan, GreaterThanOrEqual, LessThan, LessThanOrEqual),
            ):
                self._pushed.append(f)
            else:
                yield f

    def _apply_pushed(self, meta):
        keep = np.ones(len(meta), dtype=bool)
        if self.target_ids is not None:
            keep &= meta["mask_id"].isin(self.target_ids).to_numpy()
        for f in self._pushed:
            col = meta[f.attribute[0]]
            if isinstance(f, In):
                keep &= col.isin(list(f.value)).to_numpy()
            elif isinstance(f, EqualTo):
                keep &= (col == f.value).to_numpy()
            elif isinstance(f, GreaterThan):
                keep &= (col > f.value).to_numpy()
            elif isinstance(f, GreaterThanOrEqual):
                keep &= (col >= f.value).to_numpy()
            elif isinstance(f, LessThan):
                keep &= (col < f.value).to_numpy()
            elif isinstance(f, LessThanOrEqual):
                keep &= (col <= f.value).to_numpy()
        return meta[keep]

    def _cuts(self, image_ids, cuts) -> list[int]:
        """Row offsets splitting a slice into batches. In Q5 mode each is
        moved forward to an image boundary, so an image's masks are
        intersected in one batch."""
        if self.spec is None or self.spec.t is None:
            return list(cuts)
        img = np.asarray(image_ids)
        edges = np.r_[0, np.flatnonzero(img[1:] != img[:-1]) + 1, len(img)]
        return edges[np.searchsorted(edges, cuts)].tolist()

    # -- planning ---------------------------------------------------------
    def partitions(self):
        meta = self._apply_pushed(read_metadata(self.root))
        n = len(meta)
        if n == 0:
            return [MaskPartition((), (), (), (), 0, 0)]
        spec = self.spec
        if spec is not None and spec.t is not None:
            meta = meta.sort_values("image_id", kind="stable")
        height = int(meta["height"].iat[0])
        width = int(meta["width"].iat[0])
        k = max(1, min(self.n_partitions, n))
        parts = []
        bounds = self._cuts(meta["image_id"], [round(i * n / k) for i in range(k + 1)])
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:
                continue
            sl = meta.iloc[lo:hi]
            rois = chi = None
            if spec is not None:
                rois = np.array([c.rois(sl, width, height) for c in spec.terms], dtype=np.int64)
                rois = rois.reshape(len(spec.terms), hi - lo, 4)
                chi = sl["mask_id"].isin(spec.chi_ids).to_numpy()
            parts.append(
                MaskPartition(
                    tuple(int(v) for v in sl["mask_id"]),
                    tuple(int(v) for v in sl["image_id"]),
                    tuple(int(v) for v in sl["model_id"]),
                    tuple(sl["path"]),
                    height,
                    width,
                    rois,
                    chi,
                )
            )
        return parts

    # -- execution (runs on workers) ---------------------------------------
    def read(self, partition: MaskPartition):
        if not partition.mask_ids:
            return
        delay_s = self.io_delay_ms / 1000.0
        n = len(partition.mask_ids)
        cuts = self._cuts(partition.image_ids, [*range(0, n, CHUNK), n])
        for lo, hi in zip(cuts, cuts[1:]):
            if lo == hi:
                continue
            if delay_s:
                time.sleep(delay_s * (hi - lo))
            masks = [np.load(p) for p in partition.paths[lo:hi]]
            if self.spec is None:
                yield self._values_rows(partition, lo, hi, masks)
                continue
            kernel = self._cp_rows if self.spec.t is None else self._q5_rows
            yield kernel(partition, lo, hi, np.stack(masks).astype(np.float32, copy=False))

    def _values_rows(self, part: MaskPartition, lo: int, hi: int, masks) -> pa.RecordBatch:
        values = [m.ravel().astype(np.float32) for m in masks]
        return pa.RecordBatch.from_arrays(
            [
                pa.array(part.mask_ids[lo:hi], type=pa.int64()),
                pa.array(part.image_ids[lo:hi], type=pa.int64()),
                pa.array(part.model_ids[lo:hi], type=pa.int32()),
                pa.array([part.height] * (hi - lo), type=pa.int32()),
                pa.array([part.width] * (hi - lo), type=pa.int32()),
                pa.array(values, type=pa.list_(pa.float32())),
            ],
            names=[f.name for f in SCHEMA.fields],
        )

    def _cp_rows(self, part: MaskPartition, lo: int, hi: int, masks: np.ndarray) -> pa.RecordBatch:
        spec = self.spec
        cols = [
            pa.array(part.mask_ids[lo:hi], type=pa.int64()),
            pa.array(part.image_ids[lo:hi], type=pa.int64()),
        ]
        for i, term in enumerate(spec.terms):
            cols.append(pa.array(cp_batch(masks, part.rois[i, lo:hi], term.lv, term.uv)))
        want = part.chi[lo:hi]
        H = [build_chi_array(m, spec.cfg).ravel() for m in masks[want]]
        offsets = np.zeros(hi - lo + 1, dtype=np.int32)
        offsets[1:] = np.cumsum(want * (H[0].size if H else 0))
        flat = np.concatenate(H) if H else np.zeros(0, dtype=np.int64)
        cols.append(pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat, type=pa.int64())))
        return pa.RecordBatch.from_arrays(cols, names=spec.schema().fieldNames())

    def _q5_rows(self, part: MaskPartition, lo: int, hi: int, masks: np.ndarray) -> pa.RecordBatch:
        term = self.spec.terms[0]
        img = np.asarray(part.image_ids[lo:hi], dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, img[1:] != img[:-1]])
        inter = np.stack(
            [intersect_threshold(list(g), self.spec.t) for g in np.split(masks, starts[1:])]
        )
        val = cp_batch(inter, part.rois[0, lo:hi][starts], term.lv, term.uv)
        n = np.diff(np.r_[starts, hi - lo])
        return pa.RecordBatch.from_arrays(
            [pa.array(img[starts]), pa.array(val), pa.array(n, type=pa.int64())],
            names=["image_id", "val", "n"],
        )


class MaskStoreDataSource(DataSource):
    """``format("maskstore")`` — scans a :class:`MaskStore` directory."""

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
    root: str,
    n_partitions: int | None = None,
    io_delay_ms: float = 0.0,
    mask_ids=None,
    spec: VerifySpec | None = None,
):
    """Convenience: DataFrame over the store at ``root``.

    ``n_partitions`` defaults to the session's parallelism
    (``defaultParallelism``): one read task per core, capped by the
    reader at the number of selected masks. A verification task runs one
    Python stage (this reader), so more tasks than cores only add waves
    of fixed per-task cost.

    ``mask_ids`` (if given) is passed through the ``maskids`` option —
    the verification stage's target path; a direct read may instead use
    ``.where(col("mask_id").isin(...))`` to exercise Catalyst pushdown.
    ``spec`` switches the reader to verification mode (module
    docstring).
    """
    if n_partitions is None:
        n_partitions = spark.sparkContext.defaultParallelism
    r = (
        spark.read.format("maskstore")
        .option("path", root)
        .option("numpartitions", str(n_partitions))
    )
    if io_delay_ms:
        r = r.option("iodelayms", str(io_delay_ms))
    if mask_ids is not None:
        r = r.option("maskids", ",".join(str(int(v)) for v in mask_ids))
    if spec is not None:
        r = r.option("verify", spec.to_json())
    return r.load()
