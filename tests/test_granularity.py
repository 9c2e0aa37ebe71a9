"""Index-granularity effects (paper §4.4 / Figure 10): finer indexes
give tighter bounds and a lower fraction of masks loaded (FML)."""
import numpy as np
import pytest

from repro.core.cp import OBJECT_ROI, CPTerm
from repro.core.executor import GT, FilterPredicate, MaskSearchEngine
from repro.workloads.random_queries import random_filter_queries

from . import testing


@pytest.fixture(scope="module")
def coarse_engine(spark, tiny_store, tiny_coarse_index):
    return MaskSearchEngine(spark, tiny_store, tiny_coarse_index)


def test_coarse_index_is_smaller(tiny_store, tiny_index, tiny_coarse_index):
    w, h = tiny_store.spec.width, tiny_store.spec.height
    coarse = tiny_coarse_index.cfg.index_bytes_per_mask(w, h)
    assert coarse < tiny_index.cfg.index_bytes_per_mask(w, h)


def test_finer_index_tighter_bounds_on_average(engine, coarse_engine):
    term = CPTerm(0.6, 1.0, OBJECT_ROI)
    meta = engine.target(model_id=1)
    lbf, ubf = engine.bounds(meta, term)
    lbc, ubc = coarse_engine.bounds(meta, term)
    assert (ubf - lbf).mean() < (ubc - lbc).mean()


def test_coarse_bounds_still_sound(coarse_engine, tiny_store):
    from repro.core.cp import cp

    term = CPTerm(0.6, 1.0, OBJECT_ROI)
    meta = coarse_engine.target(model_id=1)
    lb, ub = coarse_engine.bounds(meta, term)
    for i, r in enumerate(meta.itertuples()):
        exact = cp(
            testing.load_mask(tiny_store, int(r.mask_id)),
            (r.obj_x1, r.obj_y1, r.obj_x2, r.obj_y2),
            0.6,
            1.0,
        )
        assert lb[i] <= exact <= ub[i]


def test_fml_decreases_with_granularity(spark, engine, coarse_engine, tiny_store):
    """Aggregate FML over random Filter queries: finer index => lower
    (the Figure 10 relationship). Results must agree regardless."""
    queries = random_filter_queries(tiny_store.spec, 12, seed=9)
    fml_fine, fml_coarse = [], []
    for q in queries:
        rf = q.run(engine, model_id=1)
        rc = q.run(coarse_engine, model_id=1)
        assert rf.ids() == rc.ids()  # correctness never depends on granularity
        fml_fine.append(rf.stats.fml)
        fml_coarse.append(rc.stats.fml)
    assert np.mean(fml_fine) <= np.mean(fml_coarse)


def test_threshold_moves_fml(engine):
    """§4.4: the count threshold T selects the FML given the bound
    distribution — extreme thresholds prune everything."""
    term = CPTerm(0.6, 1.0, OBJECT_ROI)
    area_max = 32 * 32
    hi = engine.filter(FilterPredicate(terms=(term,), op=GT, threshold=area_max), model_id=1)
    assert hi.stats.fml == 0.0
    mid_pred = FilterPredicate(terms=(term,), op=GT, threshold=40)
    mid = engine.filter(mid_pred, model_id=1)
    assert mid.stats.fml >= 0.0
