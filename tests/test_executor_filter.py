"""Filter-query tests (paper §3.2-3.3): every result is checked against
the DuckDB pixel-table oracle and against the full-scan baseline, and
the filter stage's accounting invariants are asserted."""
import numpy as np
import pytest

from repro.core.cp import OBJECT_ROI, CPTerm
from repro.core.executor import GT, LT, FilterPredicate

from . import testing
from .oracle import assert_equivalent

CONST_ROI = (5, 5, 20, 20)
ALIGNED_ROI = (8, 8, 24, 32)


def _check(spark, engine, baseline, pixels, meta, pred, model_id=None, mask_ids=None):
    r = engine.filter(pred, model_id=model_id, mask_ids=mask_ids)
    # 1. independent oracle
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="mask_id long"),
        testing.filter_sql(pred, model_id=model_id, mask_ids=mask_ids),
        pixels=pixels,
        meta=meta,
    )
    # 2. baseline returns the same rows
    rb = baseline.filter(pred, model_id=model_id, mask_ids=mask_ids)
    assert r.ids() == rb.ids()
    # 3. accounting invariants (§3.2.1 step 2's three-way split)
    s = r.stats
    assert s.n_pruned + s.n_accepted + s.n_verified == s.n_targeted
    assert s.masks_loaded == s.n_verified
    assert s.masks_loaded <= rb.stats.masks_loaded
    assert rb.stats.masks_loaded == s.n_targeted
    # 4. accepted masks all appear in the result
    assert s.n_accepted <= len(r.pdf)
    return r


@pytest.mark.parametrize("threshold", [0, 10, 50, 120, 225])
@pytest.mark.parametrize("op", [GT, LT])
def test_constant_roi_threshold_grid(spark, engine, baseline, pixels, tiny_meta, threshold, op):
    pred = FilterPredicate(terms=(CPTerm(0.6, 1.0, CONST_ROI),), op=op, threshold=threshold)
    _check(spark, engine, baseline, pixels, tiny_meta, pred, model_id=1)


@pytest.mark.parametrize("lv,uv", [(0.1, 0.4), (0.25, 0.75), (0.5, 1.0), (0.8, 1.0), (0.33, 0.66)])
def test_value_range_grid(spark, engine, baseline, pixels, tiny_meta, lv, uv):
    pred = FilterPredicate(terms=(CPTerm(lv, uv, CONST_ROI),), op=GT, threshold=40)
    _check(spark, engine, baseline, pixels, tiny_meta, pred, model_id=1)


@pytest.mark.parametrize("threshold", [5, 60, 200])
def test_object_roi(spark, engine, baseline, pixels, tiny_meta, threshold):
    """Q2-style: mask-specific ROI from metadata (paper goal G2)."""
    pred = FilterPredicate(terms=(CPTerm(0.8, 1.0, OBJECT_ROI),), op=GT, threshold=threshold)
    _check(spark, engine, baseline, pixels, tiny_meta, pred, model_id=1)


@pytest.mark.parametrize("threshold", [10, 100])
def test_full_mask_roi(spark, engine, baseline, pixels, tiny_meta, threshold):
    pred = FilterPredicate(terms=(CPTerm(0.7, 1.0, None),), op=GT, threshold=threshold)
    _check(spark, engine, baseline, pixels, tiny_meta, pred, model_id=2)


def test_aligned_query_loads_nothing(spark, engine, baseline, pixels, tiny_meta):
    """Cell-aligned ROI + bin-boundary range: bounds are exact, so every
    mask is decided in the filter stage and zero masks are loaded."""
    pred = FilterPredicate(terms=(CPTerm(0.25, 0.75, ALIGNED_ROI),), op=GT, threshold=100)
    r = _check(spark, engine, baseline, pixels, tiny_meta, pred, model_id=1)
    assert r.stats.masks_loaded == 0


def test_all_models_targeted(spark, engine, baseline, pixels, tiny_meta):
    pred = FilterPredicate(terms=(CPTerm(0.6, 1.0, CONST_ROI),), op=GT, threshold=30)
    r = _check(spark, engine, baseline, pixels, tiny_meta, pred)
    assert r.stats.n_targeted == len(tiny_meta)


@pytest.mark.parametrize("subset", [[0, 1, 2, 3], list(range(0, 120, 7)), [42]])
def test_target_subset(spark, engine, baseline, pixels, tiny_meta, subset):
    """Multi-query workloads target arbitrary mask_id subsets (§4.5)."""
    pred = FilterPredicate(terms=(CPTerm(0.5, 1.0, CONST_ROI),), op=GT, threshold=60)
    r = _check(spark, engine, baseline, pixels, tiny_meta, pred, mask_ids=subset)
    assert r.stats.n_targeted == len(subset)


def test_empty_target(spark, engine, baseline, pixels, tiny_meta):
    pred = FilterPredicate(terms=(CPTerm(0.5, 1.0, CONST_ROI),), op=GT, threshold=10)
    r = engine.filter(pred, mask_ids=[])
    assert len(r.pdf) == 0 and r.stats.n_targeted == 0


def test_trivial_threshold_prunes_everything(spark, engine, tiny_meta):
    """T >= |roi| makes CP > T unsatisfiable: everything pruned by the
    area-clipped upper bound, zero loads."""
    area = 15 * 15
    pred = FilterPredicate(terms=(CPTerm(0.6, 1.0, CONST_ROI),), op=GT, threshold=area)
    r = engine.filter(pred, model_id=1)
    assert len(r.pdf) == 0
    assert r.stats.masks_loaded == 0
    assert r.stats.n_pruned == r.stats.n_targeted


def test_threshold_zero_under_lt_returns_nothing(spark, engine):
    pred = FilterPredicate(terms=(CPTerm(0.0, 1.0, CONST_ROI),), op=LT, threshold=0)
    r = engine.filter(pred, model_id=1)
    assert len(r.pdf) == 0


@pytest.mark.parametrize(
    "coefs,threshold",
    [((1.0, -1.0), 0), ((1.0, -1.0), 20), ((2.0, 1.0), 150), ((1.0, -2.0), -50)],
)
def test_linear_combination_of_cps(spark, engine, baseline, pixels, tiny_meta, coefs, threshold):
    """Generic monotone predicates over multiple CP functions (§3.3),
    e.g. CP(object) - CP(background range) > T."""
    pred = FilterPredicate(
        terms=(CPTerm(0.6, 1.0, OBJECT_ROI), CPTerm(0.6, 1.0, CONST_ROI)),
        coefs=coefs,
        op=GT,
        threshold=threshold,
    )
    _check(spark, engine, baseline, pixels, tiny_meta, pred, model_id=1)


def test_lt_with_multiple_terms(spark, engine, baseline, pixels, tiny_meta):
    pred = FilterPredicate(
        terms=(CPTerm(0.8, 1.0, OBJECT_ROI), CPTerm(0.8, 1.0, None)),
        coefs=(2.0, -1.0),
        op=LT,
        threshold=0,
    )
    _check(spark, engine, baseline, pixels, tiny_meta, pred, model_id=2)


def test_invalid_op_raises():
    with pytest.raises(ValueError):
        FilterPredicate(terms=(CPTerm(0.5, 1.0, None),), op=">=", threshold=1)


def test_mismatched_coefs_raise():
    with pytest.raises(ValueError):
        FilterPredicate(terms=(CPTerm(0.5, 1.0, None),), coefs=(1.0, 2.0), op=GT, threshold=1)


def test_result_is_subset_of_target(spark, engine):
    subset = list(range(0, 60, 3))
    pred = FilterPredicate(terms=(CPTerm(0.4, 1.0, CONST_ROI),), op=GT, threshold=50)
    r = engine.filter(pred, mask_ids=subset)
    assert set(r.ids()) <= set(subset)


def test_fml_property(spark, engine):
    pred = FilterPredicate(terms=(CPTerm(0.5, 1.0, OBJECT_ROI),), op=GT, threshold=100)
    r = engine.filter(pred, model_id=1)
    assert 0.0 <= r.stats.fml <= 1.0
    assert r.stats.fml == r.stats.masks_loaded / r.stats.n_targeted


def test_unknown_symbolic_roi_raises(spark, engine):
    """Rejected even when the bounds alone would prune every mask."""
    pred = FilterPredicate(terms=(CPTerm(0.5, 1.0, "objet"),), op=GT, threshold=10**6)
    with pytest.raises(ValueError, match="unknown symbolic roi"):
        engine.filter(pred)
