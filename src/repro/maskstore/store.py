"""On-disk mask database (storage substrate, paper §4.1).

The paper stores masks on an EBS volume and the dominant query cost is
loading masks from disk; every evaluated system is charged per *mask
loaded*. This substrate reproduces that cost model on the local
filesystem:

- one ``.npy`` file per mask under ``<root>/masks/`` — the unit of I/O
  that MaskSearch's filter stage avoids;
- a ``<root>/metadata`` Parquet table with the relational part of
  ``MasksDatabaseView`` (§2.1) plus the per-image foreground-object box
  (the paper's YOLOv5 output) and a predicted class label;
- CHI indexes persisted as Parquet siblings, one directory per
  :class:`~repro.core.chi.ChiConfig`.

Dataset generation (:func:`build_store`) writes the store the way it
is read: the metadata table is generated on the driver (it is small)
and written there with pyarrow as one Parquet file, and one Spark job
over the image ids (one task per core, no shuffle) materialises each
image's masks with the deterministic per-mask generators from
:mod:`repro.masks.synth`.
"""
from __future__ import annotations

import contextlib
import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.masks import synth
from repro.masks.synth import DatasetSpec

#: Schema of the ``<root>/metadata`` Parquet table: the one declaration
#: of its columns and their types.
METADATA_SCHEMA = pa.schema(
    [("mask_id", pa.int64()), ("image_id", pa.int64()), ("model_id", pa.int32()),
     ("mask_type", pa.int32()), ("width", pa.int32()), ("height", pa.int32()),
     ("path", pa.string()), ("obj_x1", pa.int32()), ("obj_y1", pa.int32()),
     ("obj_x2", pa.int32()), ("obj_y2", pa.int32()), ("pred_class", pa.int32())]
)

#: mask_type for saliency maps (the only type the evaluation uses).
SALIENCY = 1


class MaskStore:
    """Handle to a materialised mask database rooted at ``root``."""

    def __init__(self, root: str, io_delay_ms: float = 0.0):
        self.root = os.path.abspath(root)
        #: Simulated-EBS per-mask load latency (ms), applied by the
        #: ``maskstore`` DataSource when this store is scanned through
        #: :mod:`repro.core.verify` (DESIGN.md §3). 0 = raw local I/O.
        self.io_delay_ms = io_delay_ms
        spec_path = os.path.join(self.root, "_SPEC.json")
        with open(spec_path) as f:
            d = json.load(f)
        self.spec = DatasetSpec(
            name=d["name"],
            n_images=d["n_images"],
            width=d["width"],
            height=d["height"],
            model_ids=tuple(d["model_ids"]),
            seed=d["seed"],
        )
        self._meta_pdf: pd.DataFrame | None = None

    # -- paths ------------------------------------------------------------
    @property
    def masks_dir(self) -> str:
        return os.path.join(self.root, "masks")

    @property
    def metadata_path(self) -> str:
        return os.path.join(self.root, "metadata")

    def index_path(self, cfg) -> str:
        return os.path.join(self.root, cfg.tag())

    def mask_path(self, mask_id: int) -> str:
        return os.path.join(self.masks_dir, f"{int(mask_id)}.npy")

    # -- access -----------------------------------------------------------
    def n_masks(self) -> int:
        return self.spec.n_masks

    def metadata_pandas(self, spark: SparkSession) -> pd.DataFrame:
        """Driver-cached metadata (small: one row per mask), read with
        pyarrow by :func:`read_metadata`; ``spark`` is not used."""
        if self._meta_pdf is None:
            self._meta_pdf = read_metadata(self.root)
        return self._meta_pdf

    def load_mask(self, mask_id: int) -> np.ndarray:
        return np.load(self.mask_path(mask_id))

    def raw_bytes(self) -> int:
        """Uncompressed dataset size: 4 B per pixel (float32)."""
        return 4 * self.spec.n_masks * self.spec.width * self.spec.height


def read_metadata(root: str) -> pd.DataFrame:
    """The metadata table of the store at ``root``, sorted by ``mask_id``,
    read on the calling process with pyarrow (no Spark job)."""
    files = sorted(glob.glob(os.path.join(root, "metadata", "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no metadata parquet under {root}/metadata")
    # Single-threaded: the table is small, and Arrow's thread pool would
    # only add driver memory.
    table = pa.concat_tables([pq.ParquetFile(f).read(use_threads=False) for f in files])
    return table.to_pandas(use_threads=False).sort_values("mask_id").reset_index(drop=True)


def _metadata_pdf(spec: DatasetSpec, masks_dir: str) -> pd.DataFrame:
    rows = []
    for image_id in range(spec.n_images):
        bbox = synth.object_bbox(spec, image_id)
        cls = synth.pred_class(spec, image_id)
        for model_id in spec.model_ids:
            mid = spec.mask_id(image_id, model_id)
            rows.append(
                (
                    mid,
                    image_id,
                    model_id,
                    SALIENCY,
                    spec.width,
                    spec.height,
                    os.path.join(masks_dir, f"{mid}.npy"),
                    bbox[0],
                    bbox[1],
                    bbox[2],
                    bbox[3],
                    cls,
                )
            )
    return pd.DataFrame(rows, columns=METADATA_SCHEMA.names)


def build_store(spark: SparkSession, spec: DatasetSpec, root: str) -> MaskStore:
    """Materialise ``spec`` under ``root`` (idempotent: reuses a complete
    existing store with the same spec) and return a :class:`MaskStore`."""
    root = os.path.abspath(root)
    spec_path = os.path.join(root, "_SPEC.json")
    done_path = os.path.join(root, "_DONE")
    spec_dict = {
        "name": spec.name,
        "n_images": spec.n_images,
        "width": spec.width,
        "height": spec.height,
        "model_ids": list(spec.model_ids),
        "seed": spec.seed,
    }
    masks_dir = os.path.join(root, "masks")
    if os.path.exists(done_path) and os.path.exists(spec_path):
        with open(spec_path) as f:
            same = json.load(f) == spec_dict
        # Markers alone are not trusted: the content must be there too.
        if same and glob.glob(os.path.join(root, "metadata", "*.parquet")) and all(
            os.path.exists(os.path.join(masks_dir, f"{m}.npy")) for m in range(spec.n_masks)
        ):
            return MaskStore(root)
    # A build that stops part-way must not leave a store that looks done,
    # and CHI indexes of the old masks (``MaskStore.index_path``) must not
    # be reused against the new ones.
    with contextlib.suppress(FileNotFoundError):
        os.remove(done_path)
    for index_dir in glob.glob(os.path.join(root, "chi_*x*_b*")):
        shutil.rmtree(index_dir)
    os.makedirs(masks_dir, exist_ok=True)
    with open(spec_path, "w") as f:
        json.dump(spec_dict, f)

    # The directory's contents are replaced, so a rebuild leaves no
    # stale part file beside the new one.
    meta_dir = os.path.join(root, "metadata")
    shutil.rmtree(meta_dir, ignore_errors=True)
    os.makedirs(meta_dir)
    meta = pa.Table.from_pandas(
        _metadata_pdf(spec, masks_dir), schema=METADATA_SCHEMA, preserve_index=False
    )
    # Without pandas' metadata, the file's schema is exactly the declared one.
    pq.write_table(meta.replace_schema_metadata(), os.path.join(meta_dir, "part-00000.parquet"))

    # One task per core over the image ids: each task regenerates its
    # images' masks deterministically from (seed, image_id, model_id),
    # writes them and returns how many it wrote.
    def _write(batches):
        for pdf in batches:
            n = 0
            for image_id in pdf["id"].tolist():
                for model_id in spec.model_ids:
                    path = os.path.join(masks_dir, f"{spec.mask_id(image_id, model_id)}.npy")
                    np.save(path, synth.generate_mask(spec, image_id, model_id))
                    n += 1
            yield pd.DataFrame({"n": [n]})

    n_part = min(spark.sparkContext.defaultParallelism, spec.n_images)
    ids = spark.range(spec.n_images, numPartitions=n_part)
    counts = ids.mapInPandas(_write, StructType([StructField("n", LongType())])).collect()
    n_written = sum(row.n for row in counts)
    if n_written != spec.n_masks:
        raise RuntimeError(f"wrote {n_written} masks, expected {spec.n_masks}")
    with open(done_path, "w") as f:
        f.write("ok")
    return MaskStore(root)
