"""Test-support: oracle tables and SQL for mask queries.

The DuckDB oracle (:mod:`tests.oracle`) needs an *independent*
evaluation path for every query class. We explode masks into a
relational ``pixels(mask_id, image_id, model_id, x, y, v)`` table and
express each query in plain SQL over it — no CP kernel, no CHI, no
bounds — so a bug anywhere in the engine's index/bound/verification
stack shows up as a row diff.

Only used with the tiny test dataset (the pixel table is
``n_masks * w * h`` rows).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.maskstore.store import MaskStore, read_metadata


def load_mask(store: MaskStore, mask_id: int) -> np.ndarray:
    """Mask ``mask_id`` of ``store``, read from the file its metadata row names."""
    meta = read_metadata(store.root)
    return np.load(meta.loc[meta["mask_id"] == int(mask_id), "path"].item())


def pixels_table(meta: pd.DataFrame) -> pd.DataFrame:
    """Exploded per-pixel table for every mask in ``meta``, read from its
    ``path``."""
    frames = []
    for r in meta.itertuples():
        mask = np.load(r.path)
        h, w = mask.shape
        ys, xs = np.divmod(np.arange(h * w), w)
        frames.append(
            pd.DataFrame(
                {
                    "mask_id": np.int64(r.mask_id),
                    "image_id": np.int64(r.image_id),
                    "model_id": np.int32(r.model_id),
                    "x": xs.astype(np.int32),
                    "y": ys.astype(np.int32),
                    "v": mask.ravel().astype(np.float64),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _roi_cond(roi, alias_px: str = "p", alias_meta: str = "m") -> str:
    """SQL pixel-in-roi condition; ``roi`` is a constant box, ``None``
    (full mask) or the string ``'object'`` (per-mask metadata box)."""
    if roi is None:
        return "TRUE"
    if isinstance(roi, str):
        return (
            f"{alias_px}.x >= {alias_meta}.obj_x1 AND {alias_px}.x < {alias_meta}.obj_x2 "
            f"AND {alias_px}.y >= {alias_meta}.obj_y1 AND {alias_px}.y < {alias_meta}.obj_y2"
        )
    x1, y1, x2, y2 = roi
    return f"{alias_px}.x >= {x1} AND {alias_px}.x < {x2} AND {alias_px}.y >= {y1} AND {alias_px}.y < {y2}"


def _val_cond(lv: float, uv: float, alias_px: str = "p") -> str:
    return f"{alias_px}.v >= {lv!r} AND {alias_px}.v < {uv!r}"


def _target_cond(model_id=None, mask_ids=None, alias_meta: str = "m") -> str:
    conds = []
    if model_id is not None:
        conds.append(f"{alias_meta}.model_id = {model_id}")
    if mask_ids is not None:
        ids = ", ".join(str(int(v)) for v in mask_ids)
        conds.append(f"{alias_meta}.mask_id IN ({ids})" if ids else "FALSE")
    return " AND ".join(conds) if conds else "TRUE"


def _per_mask_cp(terms, model_id=None, mask_ids=None) -> str:
    """CTE computing per-mask exact CP for each term as cp_0..cp_{n-1}."""
    cps = ", ".join(
        f"count(*) FILTER (WHERE {_val_cond(t.lv, t.uv)} AND {_roi_cond(t.roi)}) AS cp_{i}"
        for i, t in enumerate(terms)
    )
    return f"""
    SELECT m.mask_id, m.image_id, {cps}
    FROM meta m JOIN pixels p USING (mask_id)
    WHERE {_target_cond(model_id, mask_ids)}
    GROUP BY m.mask_id, m.image_id
    """


def filter_sql(pred, model_id=None, mask_ids=None) -> str:
    """Oracle SQL for a :class:`~repro.core.executor.FilterPredicate`."""
    coefs = pred.coefficients
    expr = " + ".join(f"({c!r}) * cp_{i}" for i, c in enumerate(coefs))
    return f"""
    WITH per_mask AS ({_per_mask_cp(pred.terms, model_id, mask_ids)})
    SELECT mask_id FROM per_mask WHERE {expr} {pred.op} {pred.threshold!r}
    ORDER BY mask_id
    """


def topk_sql(term, k: int, descending: bool, model_id=None, mask_ids=None) -> str:
    order = "DESC" if descending else "ASC"
    return f"""
    WITH per_mask AS ({_per_mask_cp((term,), model_id, mask_ids)})
    SELECT mask_id, cp_0 AS val FROM per_mask
    ORDER BY val {order}, mask_id ASC LIMIT {k}
    """


def topk_ratio_sql(num, den, k: int, descending: bool, model_id=None, mask_ids=None) -> str:
    order = "DESC" if descending else "ASC"
    return f"""
    WITH per_mask AS ({_per_mask_cp((num, den), model_id, mask_ids)})
    SELECT mask_id, cp_0 / cp_1 AS val FROM per_mask WHERE cp_1 > 0
    ORDER BY val {order}, mask_id ASC LIMIT {k}
    """


def agg_topk_sql(term, k: int, descending: bool, model_ids=(1, 2), image_ids=None) -> str:
    order = "DESC" if descending else "ASC"
    models = ", ".join(str(m) for m in model_ids)
    img_cond = (
        "TRUE"
        if image_ids is None
        else "m.image_id IN (" + ", ".join(str(int(v)) for v in image_ids) + ")"
    )
    cp = f"count(*) FILTER (WHERE {_val_cond(term.lv, term.uv)} AND {_roi_cond(term.roi)})"
    return f"""
    WITH per_mask AS (
      SELECT m.mask_id, m.image_id, {cp} AS cp
      FROM meta m JOIN pixels p USING (mask_id)
      WHERE m.model_id IN ({models}) AND {img_cond}
      GROUP BY m.mask_id, m.image_id
    )
    SELECT image_id, avg(cp) AS val FROM per_mask GROUP BY image_id
    ORDER BY val {order}, image_id ASC LIMIT {k}
    """


def maskagg_topk_sql(
    t: float, roi, k: int, descending: bool, model_ids=(1, 2), image_ids=None
) -> str:
    """Oracle for Q5: per image, count pixels (inside the image's ROI)
    where *every* model's mask value is >= t."""
    order = "DESC" if descending else "ASC"
    models = ", ".join(str(m) for m in model_ids)
    n_models = len(model_ids)
    img_cond = (
        "TRUE"
        if image_ids is None
        else "image_id IN (" + ", ".join(str(int(v)) for v in image_ids) + ")"
    )
    roi_c = _roi_cond(roi, alias_px="px", alias_meta="i")
    return f"""
    WITH px AS (
      SELECT p.image_id, p.x, p.y, min(p.v) AS mv, count(*) AS c
      FROM pixels p JOIN meta m USING (mask_id)
      WHERE m.model_id IN ({models})
      GROUP BY p.image_id, p.x, p.y
    ),
    imgs AS (
      SELECT DISTINCT image_id, obj_x1, obj_y1, obj_x2, obj_y2
      FROM meta WHERE model_id IN ({models}) AND {img_cond}
    )
    SELECT i.image_id,
           count(*) FILTER (WHERE px.c = {n_models} AND px.mv >= {t!r} AND {roi_c}) AS val
    FROM imgs i LEFT JOIN px ON px.image_id = i.image_id
    GROUP BY i.image_id
    ORDER BY val {order}, i.image_id ASC LIMIT {k}
    """
