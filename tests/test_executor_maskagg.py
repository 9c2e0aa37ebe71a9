"""Mask-aggregation query tests (paper §3.4 / Q5): top-k images by
CP(INTERSECT(masks >= t), roi, (t, 1.0))."""
import numpy as np
import pytest

from repro.core.cp import OBJECT_ROI, CPTerm, cp, intersect_threshold

from . import testing
from .oracle import assert_equivalent

CONST_ROI = (5, 5, 20, 20)


def _check(spark, engine, baseline, pixels, meta, t, roi, k, descending, image_ids=None):
    r = engine.maskagg_topk(t=t, roi=roi, k=k, descending=descending,
                            model_ids=(1, 2), image_ids=image_ids)
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="image_id long, val long"),
        testing.maskagg_topk_sql(t, roi, k, descending, model_ids=(1, 2), image_ids=image_ids),
        pixels=pixels,
        meta=meta,
    )
    rb = baseline.maskagg_topk(t=t, roi=roi, k=k, descending=descending,
                               model_ids=(1, 2), image_ids=image_ids)
    assert r.pdf.reset_index(drop=True).equals(rb.pdf.reset_index(drop=True))
    assert r.stats.masks_loaded <= rb.stats.masks_loaded
    return r


@pytest.mark.parametrize("t", [0.3, 0.5, 0.8])
def test_object_roi_threshold_grid(spark, engine, baseline, pixels, tiny_meta, t):
    _check(spark, engine, baseline, pixels, tiny_meta, t, OBJECT_ROI, 10, True)


@pytest.mark.parametrize("descending", [True, False])
def test_constant_roi(spark, engine, baseline, pixels, tiny_meta, descending):
    _check(spark, engine, baseline, pixels, tiny_meta, 0.5, CONST_ROI, 8, descending)


def test_full_roi(spark, engine, baseline, pixels, tiny_meta):
    _check(spark, engine, baseline, pixels, tiny_meta, 0.6, None, 10, True)


def test_image_subset(spark, engine, baseline, pixels, tiny_meta):
    subset = list(range(0, 60, 3))
    r = _check(spark, engine, baseline, pixels, tiny_meta, 0.5, OBJECT_ROI, 5, True,
               image_ids=subset)
    assert set(int(v) for v in r.pdf["image_id"]) <= set(subset)


def test_values_are_exact_intersections(spark, engine, tiny_store, tiny_meta):
    t = 0.5
    r = engine.maskagg_topk(t=t, roi=CONST_ROI, k=5, descending=True, model_ids=(1, 2))
    for row in r.pdf.itertuples():
        masks = [
            testing.load_mask(tiny_store, int(m))
            for m in tiny_meta[tiny_meta["image_id"] == int(row.image_id)]["mask_id"]
        ]
        agg = intersect_threshold(masks, t)
        assert int(row.val) == cp(agg, CONST_ROI, t, 1.0)


def test_upper_bound_is_min_of_individual_counts(spark, engine, tiny_store, tiny_meta):
    """The intersection can never exceed either mask's own count — the
    bound MaskSearch derives from the individual CHIs."""
    t = 0.5
    r = engine.maskagg_topk(t=t, roi=CONST_ROI, k=60, descending=True, model_ids=(1, 2))
    for row in r.pdf.itertuples():
        counts = [
            cp(testing.load_mask(tiny_store, int(m)), CONST_ROI, t, 1.0)
            for m in tiny_meta[tiny_meta["image_id"] == int(row.image_id)]["mask_id"]
        ]
        assert int(row.val) <= min(counts)


def test_loads_group_multiples(spark, engine):
    r = engine.maskagg_topk(t=0.8, roi=OBJECT_ROI, k=5, descending=True, model_ids=(1, 2))
    assert r.stats.masks_loaded % 2 == 0
