"""Table 1 benchmark queries Q1-Q5, scaled to the synthetic datasets.

The paper's parameters are stated for 448x448 (WILDS) masks; our masks
are smaller, so spatial coordinates scale linearly with the mask side
and pixel-count thresholds scale with its square. The paper's reference
parameters (Table 1):

  Q1  filter   CP(mask, ((50,50),(200,200)), (0.6, 1.0)) > 5000, model 1
  Q2  filter   CP(mask, object, (0.8, 1.0)) > 15000,             model 1
  Q3  top-25   by CP(mask, ((50,50),(200,200)), (0.8, 1.0)) DESC, model 1
  Q4  top-25 images by mean(CP(mask, object, (0.8, 1.0))) DESC, models 1+2
  Q5  top-25 images by CP(INTERSECT(mask >= 0.8), object, (0.8, 1.0))
      DESC, models 1+2

``k = 25`` is kept literal (the paper: "a reasonable number of masks to
examine for a scientist").

Each query is represented by a :class:`Query` whose :meth:`run` takes a
:class:`~repro.core.executor.MaskSearchEngine`, with an index
(MaskSearch) or without one (the full-scan baseline), so the same query
object drives the MaskSearch and baseline rows of Table 2 / Figure 7.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.cp import OBJECT_ROI, CPTerm
from repro.core.executor import GT, FilterPredicate
from repro.masks.synth import DatasetSpec

#: Reference geometry the paper's Table 1 parameters are stated in.
REF_SIDE = 448
REF_ROI = (50, 50, 200, 200)
K = 25


def scale_roi(side: int) -> tuple[int, int, int, int]:
    """Table 1's constant ROI rescaled to masks with the given side."""
    s = side / REF_SIDE
    x1, y1, x2, y2 = (int(round(c * s)) for c in REF_ROI)
    return (max(0, x1), max(0, y1), min(side, max(x1 + 1, x2)), min(side, max(y1 + 1, y2)))


def scale_count(count: float, side: int) -> int:
    """Pixel-count thresholds scale with the mask area."""
    return int(round(count * (side / REF_SIDE) ** 2))


@dataclass(frozen=True)
class Query:
    """One named benchmark query: ``run(executor)`` executes it."""

    name: str
    kind: str  # filter | topk | agg | maskagg
    run: Callable[[Any], Any]
    description: str = ""


def table1_queries(spec: DatasetSpec) -> list[Query]:
    """Q1-Q5 instantiated for a dataset (constant ROI and thresholds
    scaled to the dataset's mask side)."""
    side = spec.width
    roi_const = scale_roi(side)
    q1_T = scale_count(5000, side)
    q2_T = scale_count(15000, side)

    q1 = Query(
        "Q1",
        "filter",
        lambda ex: ex.filter(
            FilterPredicate(terms=(CPTerm(0.6, 1.0, roi_const),), op=GT, threshold=q1_T),
            model_id=1,
        ),
        f"filter CP(roi={roi_const}, (0.6,1.0)) > {q1_T}, model 1",
    )
    q2 = Query(
        "Q2",
        "filter",
        lambda ex: ex.filter(
            FilterPredicate(terms=(CPTerm(0.8, 1.0, OBJECT_ROI),), op=GT, threshold=q2_T),
            model_id=1,
        ),
        f"filter CP(roi=object, (0.8,1.0)) > {q2_T}, model 1",
    )
    q3 = Query(
        "Q3",
        "topk",
        lambda ex: ex.topk(CPTerm(0.8, 1.0, roi_const), k=K, descending=True, model_id=1),
        f"top-{K} by CP(roi={roi_const}, (0.8,1.0)) DESC, model 1",
    )
    q4 = Query(
        "Q4",
        "agg",
        lambda ex: ex.agg_topk(
            CPTerm(0.8, 1.0, OBJECT_ROI), k=K, descending=True, model_ids=(1, 2)
        ),
        f"top-{K} images by mean CP(roi=object, (0.8,1.0)) DESC, models 1+2",
    )
    q5 = Query(
        "Q5",
        "maskagg",
        lambda ex: ex.maskagg_topk(
            t=0.8, roi=OBJECT_ROI, k=K, descending=True, model_ids=(1, 2)
        ),
        f"top-{K} images by CP(INTERSECT(mask>=0.8), object, (0.8,1.0)) DESC",
    )
    return [q1, q2, q3, q4, q5]
