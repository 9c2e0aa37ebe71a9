"""Ratio top-k tests (paper §2.1 Example 1: top-k images with the lowest
ratio of in-ROI salient pixels to total salient pixels)."""
import pytest

from repro.core.cp import OBJECT_ROI, CPTerm

from . import testing
from .oracle import assert_equivalent

CONST_ROI = (5, 5, 20, 20)


def _check(spark, engine, baseline, pixels, meta, num, den, k, descending, model_id=None):
    r = engine.topk_ratio(num, den, k=k, descending=descending, model_id=model_id)
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="mask_id long, val double"),
        testing.topk_ratio_sql(num, den, k, descending, model_id=model_id),
        pixels=pixels,
        meta=meta,
    )
    rb = baseline.topk_ratio(num, den, k=k, descending=descending, model_id=model_id)
    assert r.pdf.reset_index(drop=True).equals(rb.pdf.reset_index(drop=True))
    assert r.stats.masks_loaded <= rb.stats.masks_loaded
    return r


@pytest.mark.parametrize("descending", [True, False])
def test_example1_salient_ratio(spark, engine, baseline, pixels, tiny_meta, descending):
    """Example 1's query: CP(object, (0.85,1)) / CP(full, (0.85,1))."""
    _check(spark, engine, baseline, pixels, tiny_meta,
           CPTerm(0.85, 1.0, OBJECT_ROI), CPTerm(0.85, 1.0, None), 10, descending, model_id=1)


@pytest.mark.parametrize("k", [1, 5, 25])
def test_k_grid(spark, engine, baseline, pixels, tiny_meta, k):
    _check(spark, engine, baseline, pixels, tiny_meta,
           CPTerm(0.6, 1.0, CONST_ROI), CPTerm(0.6, 1.0, None), k, False, model_id=1)


def test_zero_denominators_excluded(spark, engine, baseline, pixels, tiny_meta):
    """A very high value range gives some masks zero total count; those
    masks must be excluded from the ranking, not ranked as 0/0."""
    num = CPTerm(0.97, 1.0, CONST_ROI)
    den = CPTerm(0.97, 1.0, None)
    _check(spark, engine, baseline, pixels, tiny_meta, num, den, 20, True, model_id=1)


def test_ratio_in_unit_interval_when_num_subset_of_den(spark, engine):
    r = engine.topk_ratio(
        CPTerm(0.7, 1.0, CONST_ROI), CPTerm(0.7, 1.0, None), k=60, descending=True, model_id=1
    )
    assert ((r.pdf["val"] >= 0) & (r.pdf["val"] <= 1)).all()
