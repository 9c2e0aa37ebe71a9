"""Exact CP kernel and mask-aggregation (MASK_AGG) functions (paper §2.1).

These are the ground-truth computations that MaskSearch's verification
stage (and every baseline) runs on masks loaded from disk.

Conventions used across the whole reproduction:

- A mask is a 2-D ``float32``/``float64`` array of shape ``(h, w)`` with
  values in ``[0, 1)`` (the paper's data model), indexed ``mask[y, x]``.
- An ROI is a half-open, 0-indexed bounding box ``(x1, y1, x2, y2)``
  covering columns ``[x1, x2)`` and rows ``[y1, y2)``. The paper uses
  1-indexed inclusive corners; the half-open form is equivalent and maps
  directly onto NumPy slicing. ``roi = None`` means the full mask.
- ``CP(mask, roi, (lv, uv))`` counts pixels in the ROI with
  ``lv <= value < uv`` (paper's indicator definition). Because mask
  values are ``< 1``, ``uv = 1.0`` means "at least lv".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

ROI = tuple[int, int, int, int]

#: Sentinel ROI meaning "the per-mask foreground-object bounding box"
#: (the paper's ``roi = object``, produced by YOLOv5; synthetic here).
OBJECT_ROI = "object"


@dataclass(frozen=True)
class CPTerm:
    """One ``CP(mask, roi, (lv, uv))`` term of a query.

    ``roi`` is a constant box, :data:`OBJECT_ROI` (per-mask box joined
    from metadata at execution time), or ``None`` for the full mask.
    """

    lv: float
    uv: float
    roi: ROI | str | None = None

    def resolve_roi(self, w: int, h: int, obj_roi: ROI | None = None) -> ROI:
        """Concrete half-open box for a ``w`` x ``h`` mask."""
        if self.roi is None:
            return (0, 0, w, h)
        if isinstance(self.roi, str):
            if self.roi != OBJECT_ROI:
                raise ValueError(f"unknown symbolic roi {self.roi!r}")
            if obj_roi is None:
                raise ValueError("object roi requested but none provided")
            return tuple(int(v) for v in obj_roi)  # type: ignore[return-value]
        x1, y1, x2, y2 = (int(v) for v in self.roi)
        if not (0 <= x1 < x2 <= w and 0 <= y1 < y2 <= h):
            raise ValueError(f"roi {self.roi} out of bounds for {w}x{h} mask")
        return (x1, y1, x2, y2)

    def rois(self, meta: pd.DataFrame, w: int, h: int) -> np.ndarray:
        """:meth:`resolve_roi` for every mask in ``meta`` (object boxes from
        its ``obj_*`` columns), as an ``(N, 4)`` int64 array."""
        if self.roi == OBJECT_ROI:
            return meta[["obj_x1", "obj_y1", "obj_x2", "obj_y2"]].to_numpy(np.int64)
        return np.tile(np.asarray(self.resolve_roi(w, h), dtype=np.int64), (len(meta), 1))


def roi_area(roi: ROI) -> int:
    x1, y1, x2, y2 = roi
    return max(0, x2 - x1) * max(0, y2 - y1)


def cp(mask: np.ndarray, roi: ROI | None, lv: float, uv: float) -> int:
    """Exact ``CP(mask, roi, (lv, uv))`` — count of pixels in ``roi``
    with values in ``[lv, uv)``."""
    if roi is None:
        region = mask
    else:
        x1, y1, x2, y2 = roi
        region = mask[y1:y2, x1:x2]
    return int(np.count_nonzero((region >= lv) & (region < uv)))


def cp_batch(masks: np.ndarray, rois: np.ndarray, lv: float, uv: float) -> np.ndarray:
    """:func:`cp` of every mask in ``masks`` ``(n, h, w)`` over its own box
    in ``rois`` ``(n, 4)``, as an ``(n,)`` int64 array: one 2-D prefix sum
    of the in-range indicator, then four corner lookups per mask (the
    §3.1 construction, applied to exact counts)."""
    n, h, w = masks.shape
    P = np.zeros((n, h + 1, w + 1), dtype=np.int64)
    P[:, 1:, 1:] = ((masks >= lv) & (masks < uv)).cumsum(axis=1).cumsum(axis=2)
    i = np.arange(n)
    x1, y1, x2, y2 = np.asarray(rois, dtype=np.int64).reshape(n, 4).T
    return P[i, y2, x2] - P[i, y1, x2] - P[i, y2, x1] + P[i, y1, x1]


def intersect_threshold(masks: list[np.ndarray], t: float) -> np.ndarray:
    """MASK_AGG ``INTERSECT(m_1 >= t, ..., m_n >= t)`` (paper §2.1, Ex. 2).

    Returns a mask that is ``min_i(m_i)`` where *every* input mask is
    ``>= t`` and ``0`` elsewhere, so
    ``CP(result, roi, (t, 1.0)) == |{p in roi : all m_i[p] >= t}|``.
    The paper writes a strict ``>``; we use ``>=`` so the aggregated
    mask composes exactly with CP's closed lower bound (a measure-zero
    difference on continuous-valued masks, documented in DESIGN.md).
    """
    if not masks:
        raise ValueError("intersect_threshold needs at least one mask")
    stacked = np.stack(masks)
    keep = np.all(stacked >= t, axis=0)
    return np.where(keep, stacked.min(axis=0), 0.0).astype(stacked.dtype)
