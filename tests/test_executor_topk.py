"""Top-k query tests (paper §3.5): oracle-checked, baseline-checked,
with pruning-soundness invariants for the threshold-refinement loop."""
import numpy as np
import pytest

from repro.core.cp import OBJECT_ROI, CPTerm

from . import testing
from .oracle import assert_equivalent

CONST_ROI = (5, 5, 20, 20)


def _check(spark, engine, baseline, pixels, meta, term, k, descending, model_id=None, mask_ids=None):
    r = engine.topk(term, k=k, descending=descending, model_id=model_id, mask_ids=mask_ids)
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="mask_id long, val long"),
        testing.topk_sql(term, k, descending, model_id=model_id, mask_ids=mask_ids),
        pixels=pixels,
        meta=meta,
    )
    rb = baseline.topk(term, k=k, descending=descending, model_id=model_id, mask_ids=mask_ids)
    assert r.pdf.reset_index(drop=True).equals(rb.pdf.reset_index(drop=True))
    assert r.stats.masks_loaded <= rb.stats.masks_loaded
    assert r.stats.masks_loaded >= min(k, r.stats.n_targeted) or len(r.pdf) < k
    return r


@pytest.mark.parametrize("k", [1, 5, 25])
@pytest.mark.parametrize("descending", [True, False])
def test_constant_roi(spark, engine, baseline, pixels, tiny_meta, k, descending):
    _check(spark, engine, baseline, pixels, tiny_meta,
           CPTerm(0.8, 1.0, CONST_ROI), k, descending, model_id=1)


@pytest.mark.parametrize("lv,uv", [(0.2, 0.6), (0.5, 1.0), (0.85, 1.0)])
def test_value_ranges(spark, engine, baseline, pixels, tiny_meta, lv, uv):
    _check(spark, engine, baseline, pixels, tiny_meta,
           CPTerm(lv, uv, CONST_ROI), 10, True, model_id=1)


@pytest.mark.parametrize("descending", [True, False])
def test_object_roi(spark, engine, baseline, pixels, tiny_meta, descending):
    _check(spark, engine, baseline, pixels, tiny_meta,
           CPTerm(0.7, 1.0, OBJECT_ROI), 10, descending, model_id=2)


def test_full_mask_roi(spark, engine, baseline, pixels, tiny_meta):
    _check(spark, engine, baseline, pixels, tiny_meta, CPTerm(0.6, 1.0, None), 8, True)


def test_k_larger_than_dataset(spark, engine, baseline, pixels, tiny_meta):
    r = _check(spark, engine, baseline, pixels, tiny_meta,
               CPTerm(0.5, 1.0, CONST_ROI), 500, True, model_id=1)
    assert len(r.pdf) == r.stats.n_targeted


@pytest.mark.parametrize("descending", [True, False])
def test_fresh_msii_session(spark, engine, baseline, pixels, tiny_meta, msii, descending):
    """MS-II from an empty index loads and indexes every targeted mask
    and answers like the full-index engine."""
    term = CPTerm(0.8, 1.0, CONST_ROI)
    r = _check(spark, msii, baseline, pixels, tiny_meta, term, 5, descending, model_id=1)
    assert r.pdf.equals(engine.topk(term, k=5, descending=descending, model_id=1).pdf)
    assert msii.n_indexed == r.stats.masks_loaded == r.stats.n_targeted


def test_k_equals_one_loads_few(spark, engine):
    r = engine.topk(CPTerm(0.5, 1.0, CONST_ROI), k=1, descending=True, model_id=1)
    assert len(r.pdf) == 1
    assert r.stats.masks_loaded < r.stats.n_targeted


def test_target_subset(spark, engine, baseline, pixels, tiny_meta):
    subset = list(range(0, 120, 5))
    r = _check(spark, engine, baseline, pixels, tiny_meta,
               CPTerm(0.6, 1.0, CONST_ROI), 6, True, mask_ids=subset)
    assert set(r.ids()) <= set(subset)


def test_deterministic_tie_break(spark, engine):
    """Ties on the CP value are broken by mask_id ascending."""
    term = CPTerm(0.95, 1.0, (0, 0, 2, 2))  # tiny ROI: many ties at 0
    a = engine.topk(term, k=15, descending=False, model_id=1)
    b = engine.topk(term, k=15, descending=False, model_id=1)
    assert a.pdf.equals(b.pdf)
    vals = a.pdf["val"].to_numpy()
    ids = a.pdf["mask_id"].to_numpy()
    for i in range(len(vals) - 1):
        assert vals[i] < vals[i + 1] or (vals[i] == vals[i + 1] and ids[i] < ids[i + 1])


def test_result_values_are_exact(spark, engine, tiny_store):
    from repro.core.cp import cp

    term = CPTerm(0.7, 1.0, CONST_ROI)
    r = engine.topk(term, k=5, descending=True, model_id=1)
    for row in r.pdf.itertuples():
        m = testing.load_mask(tiny_store, int(row.mask_id))
        assert int(row.val) == cp(m, CONST_ROI, 0.7, 1.0)


def test_pruned_masks_cannot_beat_result(spark, engine, tiny_store):
    """Soundness of the refinement loop: every non-loaded mask's exact CP
    is strictly below the k-th result value (DESC)."""
    from repro.core.cp import cp

    term = CPTerm(0.8, 1.0, CONST_ROI)
    k = 5
    r = engine.topk(term, k=k, descending=True, model_id=1)
    kth = int(r.pdf["val"].iloc[-1])
    in_result = set(r.ids())
    tie_ids = r.pdf.loc[r.pdf["val"] == kth, "mask_id"].astype(int).tolist()
    meta = engine.target(model_id=1)
    for mid in meta["mask_id"]:
        if int(mid) not in in_result:
            exact = cp(testing.load_mask(tiny_store, int(mid)), CONST_ROI, 0.8, 1.0)
            assert exact < kth or (exact == kth and int(mid) > max(tie_ids))
