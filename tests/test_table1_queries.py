"""Table 1 queries Q1-Q5 end-to-end on the tiny dataset: engine vs
full-scan baseline vs DuckDB oracle, plus the Table 2 load-count
relationships."""
import pytest

from repro.core.cp import OBJECT_ROI, CPTerm
from repro.workloads.queries import K, scale_count, scale_roi, table1_queries

from . import testing
from .oracle import assert_equivalent


@pytest.fixture(scope="module")
def queries(tiny_store):
    return {q.name: q for q in table1_queries(tiny_store.spec)}


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5"])
def test_engine_matches_baseline(queries, engine, baseline, name):
    q = queries[name]
    r, rb = q.run(engine), q.run(baseline)
    assert r.pdf.reset_index(drop=True).equals(rb.pdf.reset_index(drop=True))


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5"])
def test_masksearch_never_loads_more_than_baseline(queries, engine, baseline, name):
    q = queries[name]
    r, rb = q.run(engine), q.run(baseline)
    assert r.stats.masks_loaded <= rb.stats.masks_loaded
    assert rb.stats.masks_loaded == rb.stats.n_targeted  # baselines load all


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5"])
def test_msii_session_matches_engine(queries, engine, msii, name):
    """Every class runs on MS-II and indexes what it loads, Q5 included,
    so a second run on the same session loads exactly what MS loads."""
    q = queries[name]
    r, ms = q.run(msii), q.run(engine)
    assert r.pdf.equals(ms.pdf)
    assert msii.n_indexed == r.stats.masks_loaded
    again = q.run(msii)
    assert again.pdf.equals(ms.pdf)
    assert again.stats.masks_loaded == ms.stats.masks_loaded


def test_full_index_engine_indexes_nothing(queries, engine, tiny_store):
    for q in queries.values():
        q.run(engine)
    assert len(engine.index) == tiny_store.n_masks()


def test_q1_oracle(spark, queries, engine, pixels, tiny_meta, tiny_store):
    side = tiny_store.spec.width
    from repro.core.executor import GT, FilterPredicate

    pred = FilterPredicate(
        terms=(CPTerm(0.6, 1.0, scale_roi(side)),), op=GT, threshold=scale_count(5000, side)
    )
    r = queries["Q1"].run(engine)
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="mask_id long"),
        testing.filter_sql(pred, model_id=1),
        pixels=pixels,
        meta=tiny_meta,
    )


def test_q2_oracle(spark, queries, engine, pixels, tiny_meta, tiny_store):
    from repro.core.executor import GT, FilterPredicate

    side = tiny_store.spec.width
    pred = FilterPredicate(
        terms=(CPTerm(0.8, 1.0, OBJECT_ROI),), op=GT, threshold=scale_count(15000, side)
    )
    r = queries["Q2"].run(engine)
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="mask_id long"),
        testing.filter_sql(pred, model_id=1),
        pixels=pixels,
        meta=tiny_meta,
    )


def test_q3_oracle(spark, queries, engine, pixels, tiny_meta, tiny_store):
    r = queries["Q3"].run(engine)
    term = CPTerm(0.8, 1.0, scale_roi(tiny_store.spec.width))
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="mask_id long, val long"),
        testing.topk_sql(term, K, True, model_id=1),
        pixels=pixels,
        meta=tiny_meta,
    )


def test_q4_oracle(spark, queries, engine, pixels, tiny_meta):
    r = queries["Q4"].run(engine)
    term = CPTerm(0.8, 1.0, OBJECT_ROI)
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="image_id long, val double"),
        testing.agg_topk_sql(term, K, True, model_ids=(1, 2)),
        pixels=pixels,
        meta=tiny_meta,
    )


def test_q5_oracle(spark, queries, engine, pixels, tiny_meta):
    r = queries["Q5"].run(engine)
    assert_equivalent(
        spark.createDataFrame(r.pdf, schema="image_id long, val long"),
        testing.maskagg_topk_sql(0.8, OBJECT_ROI, K, True, model_ids=(1, 2)),
        pixels=pixels,
        meta=tiny_meta,
    )


def test_q1_q3_target_single_model(queries, engine, tiny_store):
    for name in ("Q1", "Q2", "Q3"):
        r = queries[name].run(engine)
        assert r.stats.n_targeted == tiny_store.spec.n_images


def test_q4_q5_target_both_models(queries, engine, tiny_store):
    for name in ("Q4", "Q5"):
        r = queries[name].run(engine)
        assert r.stats.n_targeted == tiny_store.n_masks()
