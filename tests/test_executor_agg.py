"""Scalar-aggregation query tests (paper §3.4, Q4 shape): top-k images
by mean CP across each image's masks."""
import pytest

from repro.core.cp import OBJECT_ROI, CPTerm

from . import testing
from .oracle import assert_equivalent

CONST_ROI = (5, 5, 20, 20)


def _check(spark, engine, baseline, pixels, meta, term, k, descending, image_ids=None):
    r = engine.agg_topk(term, k=k, descending=descending, model_ids=(1, 2), image_ids=image_ids)
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="image_id long, val double"),
        testing.agg_topk_sql(term, k, descending, model_ids=(1, 2), image_ids=image_ids),
        pixels=pixels,
        meta=meta,
    )
    rb = baseline.agg_topk(term, k=k, descending=descending, model_ids=(1, 2), image_ids=image_ids)
    assert r.pdf.reset_index(drop=True).equals(rb.pdf.reset_index(drop=True))
    assert r.stats.masks_loaded <= rb.stats.masks_loaded
    return r


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("descending", [True, False])
def test_object_roi(spark, engine, baseline, pixels, tiny_meta, k, descending):
    _check(spark, engine, baseline, pixels, tiny_meta,
           CPTerm(0.8, 1.0, OBJECT_ROI), k, descending)


@pytest.mark.parametrize("lv,uv", [(0.3, 0.7), (0.6, 1.0)])
def test_constant_roi(spark, engine, baseline, pixels, tiny_meta, lv, uv):
    _check(spark, engine, baseline, pixels, tiny_meta, CPTerm(lv, uv, CONST_ROI), 10, True)


def test_full_roi(spark, engine, baseline, pixels, tiny_meta):
    _check(spark, engine, baseline, pixels, tiny_meta, CPTerm(0.5, 1.0, None), 10, True)


def test_image_subset(spark, engine, baseline, pixels, tiny_meta):
    subset = list(range(0, 60, 4))
    r = _check(spark, engine, baseline, pixels, tiny_meta,
               CPTerm(0.7, 1.0, OBJECT_ROI), 5, True, image_ids=subset)
    assert set(int(v) for v in r.pdf["image_id"]) <= set(subset)


def test_k_larger_than_images(spark, engine, baseline, pixels, tiny_meta):
    r = _check(spark, engine, baseline, pixels, tiny_meta,
               CPTerm(0.6, 1.0, OBJECT_ROI), 500, True)
    assert len(r.pdf) == 60


def test_fresh_msii_session(spark, engine, baseline, pixels, tiny_meta, msii):
    """MS-II from an empty index loads and indexes every targeted mask
    and answers like the full-index engine."""
    term = CPTerm(0.8, 1.0, OBJECT_ROI)
    r = _check(spark, msii, baseline, pixels, tiny_meta, term, 5, True)
    full = engine.agg_topk(term, k=5, descending=True, model_ids=(1, 2))
    assert r.pdf.equals(full.pdf)
    assert msii.n_indexed == r.stats.masks_loaded == r.stats.n_targeted


def test_loads_both_masks_of_candidate_images(spark, engine):
    """Q4 loads 2x masks per candidate image (the paper's Table 2 shows
    Q4's baseline count doubling for the same reason)."""
    r = engine.agg_topk(CPTerm(0.8, 1.0, OBJECT_ROI), k=5, descending=True, model_ids=(1, 2))
    assert r.stats.masks_loaded % 2 == 0


def test_mean_values_are_exact(spark, engine, tiny_store, tiny_meta):
    from repro.core.cp import cp

    term = CPTerm(0.7, 1.0, CONST_ROI)
    r = engine.agg_topk(term, k=4, descending=True, model_ids=(1, 2))
    for row in r.pdf.itertuples():
        masks = tiny_meta[tiny_meta["image_id"] == int(row.image_id)]["mask_id"]
        vals = [cp(testing.load_mask(tiny_store, int(m)), CONST_ROI, 0.7, 1.0) for m in masks]
        assert row.val == pytest.approx(sum(vals) / len(vals))


def test_single_model_aggregation(spark, engine, baseline, pixels, tiny_meta):
    """SCALAR_AGG over a single-model group degenerates to plain CP."""
    term = CPTerm(0.6, 1.0, OBJECT_ROI)
    r = engine.agg_topk(term, k=8, descending=True, model_ids=(1,))
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="image_id long, val double"),
        testing.agg_topk_sql(term, 8, True, model_ids=(1,)),
        pixels=pixels,
        meta=tiny_meta,
    )
