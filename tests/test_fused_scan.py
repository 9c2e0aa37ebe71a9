"""Fused verification scan: the ``maskstore`` reader computes CP, CHI and
Q5's per-image intersection in one Python stage per task, returns one
row per opened mask, and ``masks_loaded`` is counted from those rows."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql.classic.dataframe import DataFrame

from repro.core import verify
from repro.core.bounds import cp_bounds_batch
from repro.core.chi import ChiConfig, build_chi_array
from repro.core.cp import OBJECT_ROI, CPTerm, cp, cp_batch, intersect_threshold
from repro.core.executor import GT, FilterPredicate
from repro.maskstore import datasource as ds

from . import testing

CONST_ROI = (5, 5, 20, 20)
Q5_TERM = CPTerm(0.7, 1.0, OBJECT_ROI)

QUERIES = {
    "filter": lambda ex: ex.filter(
        FilterPredicate((CPTerm(0.6, 1.0, CONST_ROI),), GT, 40), model_id=1
    ),
    "topk": lambda ex: ex.topk(CPTerm(0.8, 1.0, OBJECT_ROI), k=5, model_id=1),
    "topk_ratio": lambda ex: ex.topk_ratio(
        CPTerm(0.97, 1.0, CONST_ROI), CPTerm(0.97, 1.0, None), k=20, descending=True, model_id=1
    ),
    "agg_topk": lambda ex: ex.agg_topk(CPTerm(0.8, 1.0, OBJECT_ROI), k=5),
    "maskagg_topk": lambda ex: ex.maskagg_topk(0.7, OBJECT_ROI, k=5),
}
VERIFY = ("exact_cp_pdf", "exact_maskagg_pdf", "exact_cp_and_chi")


# -- measured loads ------------------------------------------------------------
@pytest.mark.parametrize("query", list(QUERIES))
@pytest.mark.parametrize("executor", ["engine", "msii", "baseline"])
def test_masks_loaded_equals_decided_verification_set(request, monkeypatch, executor, query):
    """``masks_loaded`` comes from the scan's rows; it must equal the
    number of masks the executor sent to verification."""
    ex = request.getfixturevalue(executor)
    decided = []
    for name in VERIFY:
        real = getattr(verify, name)

        def counted(*a, _real=real, **kw):
            decided.append(len(a[2]))
            return _real(*a, **kw)

        monkeypatch.setattr(verify, name, counted)
    r = QUERIES[query](ex)
    assert r.stats.masks_loaded == sum(decided) == r.stats.n_verified > 0


def test_ratio_loads_count_zero_denominators(baseline):
    """Masks dropped from a ratio ranking for a zero denominator were
    still opened, and are counted."""
    num, den = CPTerm(0.97, 1.0, CONST_ROI), CPTerm(0.97, 1.0, None)
    r = baseline.topk_ratio(num, den, k=10**6, model_id=1)
    assert len(r.pdf) < r.stats.masks_loaded == r.stats.n_targeted


# -- the reader's output -------------------------------------------------------
def test_cp_mode_matches_driver_kernels(spark, tiny_store, tiny_meta, tiny_cfg):
    meta = tiny_meta.iloc[::3]
    terms = (CPTerm(0.6, 1.0, CONST_ROI), CPTerm(0.8, 1.0, OBJECT_ROI), CPTerm(0.3, 0.9, None))
    pdf, H = verify.exact_cp_and_chi(spark, tiny_store, meta, terms, tiny_cfg)
    assert sorted(pdf["mask_id"]) == sorted(meta["mask_id"])
    assert len(H) == len(pdf)
    rows = meta.set_index("mask_id")
    for r in pdf.itertuples(index=False):
        m = testing.load_mask(tiny_store, r.mask_id)
        box = tuple(rows.loc[r.mask_id, ["obj_x1", "obj_y1", "obj_x2", "obj_y2"]])
        for i, term in enumerate(terms):
            assert getattr(r, f"cp_{i}") == cp(m, term.resolve_roi(32, 32, box), term.lv, term.uv)
    for mid, h in zip(pdf["mask_id"], H):
        assert np.array_equal(h, build_chi_array(testing.load_mask(tiny_store, mid), tiny_cfg))


def test_q5_mode_intersects_each_image(spark, tiny_store, tiny_meta):
    """One row per targeted mask, whose ``cp_0`` is its image's
    intersection CP."""
    meta = tiny_meta[tiny_meta["image_id"] < 25].iloc[1:]  # image 0 keeps one mask
    out = verify.exact_maskagg_pdf(spark, tiny_store, meta, 0.7, Q5_TERM)
    assert sorted(out["mask_id"]) == sorted(meta["mask_id"])
    for r in out.itertuples(index=False):
        sub = meta[meta["image_id"] == r.image_id]
        box = tuple(sub[["obj_x1", "obj_y1", "obj_x2", "obj_y2"]].iloc[0])
        m = intersect_threshold([testing.load_mask(tiny_store, i) for i in sub["mask_id"]], 0.7)
        assert r.cp_0 == cp(m, box, 0.7, 1.0)


def test_q5_mode_with_chi_builds_chi_of_opened_masks(spark, tiny_store, tiny_meta, tiny_cfg):
    """With a ``ChiConfig``, Q5 mode returns the same CPs and the CHI of
    each opened mask, never of its image's intersection."""
    meta = tiny_meta[tiny_meta["image_id"] < 10]
    pdf, H = verify.exact_cp_and_chi(spark, tiny_store, meta, (Q5_TERM,), tiny_cfg, 0.7)
    plain = verify.exact_maskagg_pdf(spark, tiny_store, meta, 0.7, Q5_TERM)
    assert pdf.sort_values("mask_id").reset_index(drop=True).equals(
        plain.sort_values("mask_id").reset_index(drop=True)
    )
    assert len(H) == len(pdf)
    for mid, h in zip(pdf["mask_id"], H):
        assert np.array_equal(h, build_chi_array(testing.load_mask(tiny_store, mid), tiny_cfg))


@pytest.mark.parametrize("n_partitions", [1, 3, 7, 64])
def test_q5_partitions_and_chunks_split_on_images(tiny_store, monkeypatch, n_partitions):
    monkeypatch.setattr(ds, "CHUNK", 5)  # odd, so chunks meet mid-image
    spec = ds.VerifySpec((Q5_TERM,), t=0.7)
    reader = ds.MaskStoreReader(
        {"path": tiny_store.root, "numpartitions": str(n_partitions), "verify": spec.to_json()}
    )
    parts = reader.partitions()
    chunks = [b.column("image_id").to_pylist() for p in parts for b in reader.read(p)]
    for batches in ([p.rows["image_id"].tolist() for p in parts], chunks):
        owner = {}
        for i, images in enumerate(batches):
            for img in images:
                assert owner.setdefault(img, i) == i
        assert sorted(owner) == list(range(tiny_store.spec.n_images))
        assert sum(map(len, batches)) == tiny_store.n_masks()


# -- plan shape: one Python stage, no shuffle, one job per round ---------------
FORBIDDEN = ("MapInPandas", "FlatMapGroupsInPandas", "ArrowEvalPython", "Exchange")

ENTRY_POINTS = {
    "exact_cp_pdf": lambda spark, store, meta, cfg: verify.exact_cp_pdf(
        spark, store, meta, (CPTerm(0.6, 1.0, CONST_ROI),)
    ),
    "exact_cp_and_chi": lambda spark, store, meta, cfg: verify.exact_cp_and_chi(
        spark, store, meta, (CPTerm(0.6, 1.0, CONST_ROI),), cfg
    ),
    "exact_maskagg_pdf": lambda spark, store, meta, cfg: verify.exact_maskagg_pdf(
        spark, store, meta, 0.7, Q5_TERM
    ),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_verification_plan_has_one_python_stage_and_no_shuffle(
    spark, tiny_store, tiny_meta, tiny_cfg, monkeypatch, entry
):
    """Every entry point also collects one row per targeted mask."""
    plans, collected = [], []
    real = DataFrame.toPandas

    def recorded(self, *a, **kw):
        out = real(self, *a, **kw)
        plans.append(self._jdf.queryExecution().executedPlan().toString())
        collected.append(out)
        return out

    monkeypatch.setattr(DataFrame, "toPandas", recorded)
    meta = tiny_meta.head(40)
    ENTRY_POINTS[entry](spark, tiny_store, meta, tiny_cfg)
    assert len(plans) == 1
    assert [op for op in FORBIDDEN if op in plans[0]] == [], plans[0]
    assert sorted(collected[0]["mask_id"]) == sorted(meta["mask_id"])


def test_q5_round_is_one_spark_job(spark, tiny_store, tiny_meta):
    sc = spark.sparkContext
    group = "q5-one-round"
    sc.setJobGroup(group, group)
    try:
        out = verify.exact_maskagg_pdf(spark, tiny_store, tiny_meta.head(40), 0.7, Q5_TERM)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(out) == 40
    assert len(list(sc.statusTracker().getJobIdsForGroup(group))) == 1


# -- spec safety -----------------------------------------------------------------
def _reader(store, spec_json=None, **opts):
    if spec_json is not None:
        opts["verify"] = spec_json
    return ds.MaskStoreReader({"path": store.root, **opts})


def _spec(terms=(), chi=None, t=None) -> str:
    return ds.VerifySpec(tuple(terms), chi, t).to_json()


def test_spec_round_trips_through_json(tiny_store):
    spec = ds.VerifySpec(
        (CPTerm(0.1, 0.9, CONST_ROI), CPTerm(0.5, 1.0, OBJECT_ROI), CPTerm(0.0, 1.0, None)),
        ChiConfig(8, 8, 8),
    )
    assert ds.VerifySpec.from_json(spec.to_json()) == spec
    assert _reader(tiny_store, spec.to_json()).spec == spec


class _Payload:
    ran = []

    def __reduce__(self):
        return (_Payload.ran.append, ("decoded",))


@pytest.mark.parametrize(
    "raw",
    [
        "not json",
        "[]",
        '{"terms": []}',
        '{"terms": [[0.5, 1.0]], "chi": null, "t": null}',
        '{"terms": [["0.5", 1.0, null]], "chi": null, "t": null}',
        '{"terms": [[0.5, 1.0, "objet"]], "chi": null, "t": null}',
        '{"terms": [[0.5, 1.0, [0, 0, 8]]], "chi": null, "t": null}',
        '{"terms": [[NaN, 1.0, null]], "chi": null, "t": null}',
        '{"terms": [], "chi": [0, 8, 8], "t": null}',
        '{"terms": [], "chi": [8, 8, 8], "chi_ids": [1], "t": null}',
        '{"terms": [[0.5, 1.0, null], [0.5, 1.0, null]], "chi": null, "t": 0.5}',
        '{"terms": [], "chi": null, "t": null, "extra": 1}',
        pickle.dumps(_Payload(), protocol=0).decode("latin-1"),
    ],
    ids=[
        "not_json", "not_object", "missing_keys", "short_term", "string_bound",
        "unknown_roi", "short_roi", "nan_bound", "zero_cell", "stale_chi_ids_key",
        "q5_two_terms", "extra_key", "pickle_payload",
    ],
)
def test_malformed_spec_raises(tiny_store, raw):
    with pytest.raises(ValueError, match="malformed verify spec"):
        _reader(tiny_store, raw)
    assert _Payload.ran == []


def test_roi_outside_mask_raises(tiny_store):
    with pytest.raises(ValueError, match="out of bounds"):
        _reader(tiny_store, _spec([CPTerm(0.5, 1.0, (0, 0, 64, 64))]))


def test_chi_config_not_fitting_mask_raises(tiny_store):
    with pytest.raises(ValueError, match="not divisible"):
        _reader(tiny_store, _spec(chi=ChiConfig(64, 64, 8)))


def test_target_id_missing_from_metadata_raises(tiny_store):
    with pytest.raises(ValueError, match="not in the store's metadata"):
        _reader(tiny_store, _spec([CPTerm(0.5, 1.0)]), maskids=f"0,1,{10**6}")


def test_planning_a_scan_reads_the_metadata_once(tiny_store, monkeypatch):
    """The reader checks its inputs against the store's ``_SPEC.json``;
    only :meth:`~ds.MaskStoreReader.partitions` reads the metadata."""
    calls = []
    real = ds.read_metadata
    monkeypatch.setattr(ds, "read_metadata", lambda root: calls.append(root) or real(root))
    spec = _spec([CPTerm(0.5, 1.0, CONST_ROI)], ChiConfig(8, 8, 8))
    parts = _reader(tiny_store, spec, maskids="3,1,4", numpartitions="2").partitions()
    assert calls == [tiny_store.root]
    assert sorted(i for p in parts for i in p.rows["mask_id"]) == [1, 3, 4]


# -- bin-edge fuzz -------------------------------------------------------------
SIDE = 16
FUZZ_CFG_CELL = 8


def _around(x: float) -> list[float]:
    """``x``, and one float32 and one float64 ulp to either side."""
    x32 = np.float32(x)
    return [
        x,
        float(np.nextafter(x32, np.float32(-2))),
        float(np.nextafter(x32, np.float32(2))),
        float(np.nextafter(x, -2.0)),
        float(np.nextafter(x, 2.0)),
    ]


@settings(max_examples=150, deadline=None)
@given(
    b=st.sampled_from([4, 8, 16, 32]),
    data=st.data(),
)
def test_bin_edge_cp_is_exact_and_bounded(b, data):
    """``lv``/``uv`` on a bin edge ``k/b`` or one ulp off it, masks with
    pixels on those edges: the fused kernel's CP equals :func:`cp` and
    lies inside the CHI bounds."""
    cfg = ChiConfig(FUZZ_CFG_CELL, FUZZ_CFG_CELL, b)
    k_lo, k_hi = data.draw(st.integers(0, b)), data.draw(st.integers(0, b))
    lv = data.draw(st.sampled_from(_around(k_lo / b)))
    uv = data.draw(st.sampled_from(_around(k_hi / b)))
    n = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Pixel values on every edge and one ulp off it, inside the data
    # model's [0, 1) once stored as float32.
    edges = np.unique(np.array([v for k in range(b + 1) for v in _around(k / b)], np.float32))
    on_edge = rng.choice(edges[(edges >= 0) & (edges < 1)], size=(n, SIDE, SIDE))
    masks = np.where(
        rng.random((n, SIDE, SIDE)) < 0.8, on_edge, rng.random((n, SIDE, SIDE))
    ).astype(np.float32)
    x1, y1 = rng.integers(0, SIDE, size=(2, n))
    rois = np.stack(
        [x1, y1, rng.integers(x1 + 1, SIDE + 1), rng.integers(y1 + 1, SIDE + 1)], axis=1
    )
    term = ds.VerifySpec.from_json(_spec([CPTerm(lv, uv)])).terms[0]
    assert (term.lv, term.uv) == (lv, uv)  # the JSON spec carries the exact floats

    got = cp_batch(masks, rois, term.lv, term.uv)
    assert got.tolist() == [cp(m, tuple(r), lv, uv) for m, r in zip(masks, rois)]
    H = np.stack([build_chi_array(m, cfg) for m in masks])
    lb, ub = cp_bounds_batch(H, rois, lv, uv, cfg)
    assert (lb <= got).all() and (got <= ub).all()
