"""Driver-side replay of the worker-side layers of one query.

The DataSource read and the CP/CHI kernels run inside Spark tasks, out
of reach of driver spans. After a traced query, outside its timing, the
benchmark re-reads the masks that query verified through the public
reader (``MaskStoreReader.partitions()/read()``) and runs the kernels on
them on the driver, timing each layer. The replay reads at raw speed
(no simulated disk latency).
"""
from __future__ import annotations

from time import perf_counter

import numpy as np
from pyspark.sql.datasource import In

from repro.core.chi import ChiConfig, build_chi_array
from repro.core.cp import cp, intersect_threshold
from repro.core.verify import IN_FILTER_MAX
from repro.maskstore.datasource import MaskStoreReader


def replay(root: str, ids, terms, obj_roi: dict, cfg: ChiConfig, t_intersect=None) -> dict:
    """Time the reader, CP and CHI kernels over the masks ``ids``.

    ``terms`` are the query's CP terms, ``obj_roi`` maps mask_id to its
    object box, and ``t_intersect`` (mask-aggregation queries only) is
    the threshold each image's masks are intersected at."""
    ids = [int(v) for v in ids]
    # The same pruning path verification takes for this many ids.
    if len(ids) > IN_FILTER_MAX:
        reader = MaskStoreReader({"path": root, "maskids": ",".join(map(str, ids))})
    else:
        reader = MaskStoreReader({"path": root})
        list(reader.pushFilters([In(("mask_id",), tuple(ids))]))

    t0 = perf_counter()
    parts = reader.partitions()
    t1 = perf_counter()
    batches = [b for p in parts for b in reader.read(p)]
    t2 = perf_counter()

    masks, images = [], []
    for b in batches:
        h, w = b.column(3)[0].as_py(), b.column(4)[0].as_py()
        vals = b.column(5).flatten().to_numpy().reshape(-1, h, w)
        for mid, img, m in zip(b.column(0).to_pylist(), b.column(1).to_pylist(), vals):
            masks.append((mid, m))
            images.append(img)
    t3 = perf_counter()
    for mid, m in masks:
        for term in terms:
            cp(m, term.resolve_roi(m.shape[1], m.shape[0], obj_roi[mid]), term.lv, term.uv)
    t4 = perf_counter()
    for _, m in masks:
        build_chi_array(m, cfg)
    t5 = perf_counter()

    n_img, t_int = 0, 0.0
    if t_intersect is not None:
        by_image: dict = {}
        for img, (_, m) in zip(images, masks):
            by_image.setdefault(img, []).append(m)
        t6 = perf_counter()
        for group in by_image.values():
            intersect_threshold(group, t_intersect)
        t_int = perf_counter() - t6
        n_img = len(by_image)
    return {
        "masks": len(masks),
        "partitions_s": t1 - t0,
        "read_s": t2 - t1,
        "bytes": sum(b.nbytes for b in batches),
        "cp_s": t4 - t3,
        "chi_s": t5 - t4,
        "intersect_s": t_int,
        "images": n_img,
    }


def summarize(replays: list[dict]) -> dict:
    """Per-layer replay metrics over a run's queries."""
    n = sum(r["masks"] for r in replays)
    n_img = sum(r["images"] for r in replays)
    per_mask = lambda key: 1e6 * sum(r[key] for r in replays) / n if n else 0.0  # noqa: E731
    return {
        "datasource.partitions_s": float(np.mean([r["partitions_s"] for r in replays])) if replays else 0.0,
        "datasource.read_us_per_mask": per_mask("read_s"),
        "datasource.bytes_per_mask": sum(r["bytes"] for r in replays) / n if n else 0.0,
        "cp.us_per_mask": per_mask("cp_s"),
        "chi.build_chi_array_us_per_mask": per_mask("chi_s"),
        "cp.intersect_us_per_image": 1e6 * sum(r["intersect_s"] for r in replays) / n_img if n_img else 0.0,
    }
