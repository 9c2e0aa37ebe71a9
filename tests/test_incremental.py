"""Incremental indexing tests (paper §3.6): MS-II must return exactly
the same results as MS while building the index on first touch."""
import numpy as np
import pytest

from repro.core import verify
from repro.core.chi import ChiConfig, ChiIndex, build_chi_array
from repro.core.cp import OBJECT_ROI, CPTerm
from repro.core.executor import GT, FilterPredicate, MaskSearchEngine
from repro.core.incremental import IncrementalSession

from . import testing

CFG = ChiConfig(8, 8, 8)
PRED_A = FilterPredicate(terms=(CPTerm(0.6, 1.0, (5, 5, 20, 20)),), op=GT, threshold=40)
PRED_B = FilterPredicate(terms=(CPTerm(0.8, 1.0, OBJECT_ROI),), op=GT, threshold=20)


@pytest.fixture()
def session(spark, tiny_store):
    return IncrementalSession(spark, tiny_store, CFG)


def test_starts_empty(session):
    assert session.n_indexed == 0


def test_first_query_loads_all_targets(session):
    r = session.filter(PRED_A, mask_ids=list(range(20)))
    assert r.stats.masks_loaded == 20
    assert session.n_indexed == 20


def test_results_match_full_index_engine(session, engine):
    for pred, ids in [
        (PRED_A, list(range(30))),
        (PRED_B, list(range(15, 45))),
        (PRED_A, list(range(0, 60, 2))),
    ]:
        r_inc = session.filter(pred, mask_ids=ids)
        r_full = engine.filter(pred, mask_ids=ids)
        assert r_inc.ids() == r_full.ids()


def test_one_verification_scan_per_filter(session, monkeypatch):
    """First-touch and partly indexed targets each take a single
    CP + CHI scan (§3.6), and no other verification entry point."""
    calls = []

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*a, **kw):
            calls.append(name)
            return real(*a, **kw)

        return wrapper

    for name in ("exact_cp_pdf", "exact_maskagg_pdf", "exact_cp_and_chi"):
        monkeypatch.setattr(verify, name, counted(name))
    session.filter(PRED_A, mask_ids=list(range(20)))
    assert calls == ["exact_cp_and_chi"]
    session.filter(PRED_A, mask_ids=list(range(10, 40)))
    assert calls == ["exact_cp_and_chi"] * 2


def test_second_touch_uses_index(session):
    ids = list(range(25))
    session.filter(PRED_A, mask_ids=ids)
    r2 = session.filter(PRED_A, mask_ids=ids)
    # nothing new to index; loads now come only from verification
    assert r2.stats.masks_loaded == r2.stats.n_verified
    assert r2.stats.masks_loaded < len(ids)


def test_partial_overlap_loads_only_new(session):
    session.filter(PRED_A, mask_ids=list(range(20)))
    r = session.filter(PRED_A, mask_ids=list(range(10, 40)))
    assert session.n_indexed == 40
    # 20 first-touch loads plus whatever verification needed on the 10 seen
    assert r.stats.masks_loaded >= 20
    assert r.stats.masks_loaded <= 30


def test_incremental_chi_matches_direct_build(session, tiny_store):
    session.filter(PRED_A, mask_ids=[3, 7, 11])
    for mid in [3, 7, 11]:
        expected = build_chi_array(testing.load_mask(tiny_store, mid), CFG)
        assert np.array_equal(session.index.gather(np.array([mid]))[0], expected)


def test_persist_and_reload(session, spark, tiny_store, tmp_path):
    session.filter(PRED_A, mask_ids=list(range(12)))
    path = session.persist(str(tmp_path / "chi_inc"))
    loaded = ChiIndex.load(spark, path, CFG)
    assert len(loaded) == 12
    for mid in range(12):
        assert np.array_equal(
            loaded.gather(np.array([mid]))[0],
            session.index.gather(np.array([mid]))[0],
        )


def test_persist_empty_raises(session):
    with pytest.raises(ValueError):
        session.persist("/tmp/should_not_exist_chi")


def test_reloaded_index_drives_engine(session, spark, tiny_store, tmp_path, engine):
    """A persisted incremental index is usable by a fresh engine
    (the paper's cross-session reuse)."""
    ids = list(range(30))
    session.filter(PRED_A, mask_ids=ids)
    path = session.persist(str(tmp_path / "chi_inc2"))
    idx = ChiIndex.load(spark, path, CFG)
    eng2 = MaskSearchEngine(spark, tiny_store, idx)
    assert eng2.filter(PRED_A, mask_ids=ids).ids() == engine.filter(PRED_A, mask_ids=ids).ids()


def test_cumulative_loads_bounded_by_baseline(session, tiny_store):
    """Across a repeated-target workload MS-II loads strictly less than
    a full scan per query would."""
    ids = list(range(40))
    total = 0
    for _ in range(4):
        total += session.filter(PRED_B, mask_ids=ids).stats.masks_loaded
    assert total < 4 * len(ids)
