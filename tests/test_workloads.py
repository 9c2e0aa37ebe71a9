"""Workload generator tests (§4.3 random queries, §4.5 multi-query
workloads) and Table 1 parameter scaling."""
import numpy as np
import pytest

from repro.masks.synth import TINY
from repro.workloads import random_queries as rq
from repro.workloads.multi_query import P_SEEN, generate_workload, run_ms, run_msii, run_numpy
from repro.workloads.queries import scale_count, scale_roi, table1_queries


class TestRandomQueries:
    def test_filter_params_in_paper_grid(self):
        qs = rq.random_filter_queries(TINY, 100, seed=1)
        total = TINY.width * TINY.height
        for q in qs:
            assert round(q.lv, 1) in rq.VALUE_GRID
            assert q.uv > q.lv
            assert 0 <= q.threshold <= total

    def test_deterministic_in_seed(self):
        assert rq.random_filter_queries(TINY, 10, seed=5) == rq.random_filter_queries(
            TINY, 10, seed=5
        )
        assert rq.random_filter_queries(TINY, 10, seed=5) != rq.random_filter_queries(
            TINY, 10, seed=6
        )

    def test_topk_rects_within_mask(self):
        for q in rq.random_topk_queries(TINY, 50, seed=2):
            x1, y1, x2, y2 = q.roi
            assert 0 <= x1 < x2 <= TINY.width
            assert 0 <= y1 < y2 <= TINY.height
        assert rq.K == 25  # every random top-k query ranks K masks

    def test_topk_both_orders_generated(self):
        qs = rq.random_topk_queries(TINY, 50, seed=3)
        assert any(q.descending for q in qs) and any(not q.descending for q in qs)

    def test_agg_queries_shape(self):
        qs = rq.random_agg_queries(TINY, 20, seed=4)
        assert len(qs) == 20
        assert all(q.uv > q.lv for q in qs)


class TestMultiQueryWorkloads:
    @pytest.mark.parametrize("wid", [1, 2, 3, 4])
    def test_target_sizes(self, wid):
        wl = generate_workload(TINY, wid, 20, seed=1)
        n = TINY.n_masks
        allowed = {int(n * f) for f in (0.1, 0.2, 0.3)}
        for wq in wl:
            assert len(wq.mask_ids) in allowed
            assert len(set(wq.mask_ids)) == len(wq.mask_ids)  # no replacement

    def test_deterministic(self):
        a = generate_workload(TINY, 2, 10, seed=3)
        b = generate_workload(TINY, 2, 10, seed=3)
        assert [sorted(x.mask_ids) for x in a] == [sorted(x.mask_ids) for x in b]

    def test_workload1_explores_more_than_workload4(self):
        """Lower p_seen => more unique masks eventually targeted."""
        cov = {}
        for wid in (1, 4):
            wl = generate_workload(TINY, wid, 20, seed=2)
            cov[wid] = len({m for wq in wl for m in wq.mask_ids})
        assert cov[1] > cov[4]

    def test_workload4_first_query_all_unseen(self):
        """p_seen = 1.0 still has to start with unseen masks (none are
        seen yet), then sticks to seen ones."""
        wl = generate_workload(TINY, 4, 10, seed=5)
        seen = set(wl[0].mask_ids)
        for wq in wl[1:]:
            new = set(wq.mask_ids) - seen
            # with p_seen=1.0 new masks appear only if seen pool is too small
            assert len(new) == 0 or len(seen) < len(wq.mask_ids)
            seen |= set(wq.mask_ids)

    def test_seen_fraction_approximates_p_seen(self):
        """While unseen masks remain (and the seen pool is warm), each
        query draws ~p_seen of its targets from seen masks; once the
        dataset is exhausted every target is necessarily seen (the
        paper's switch-to-seen-only rule)."""
        wl = generate_workload(TINY, 2, 30, seed=7)
        seen = set()
        fracs = []
        for i, wq in enumerate(wl):
            if i >= 2 and len(seen) < TINY.n_masks - 36:
                overlap = len(set(wq.mask_ids) & seen) / len(wq.mask_ids)
                fracs.append(overlap)
            seen |= set(wq.mask_ids)
        assert abs(np.mean(fracs) - P_SEEN[2]) < 0.25
        # exhausted phase: everything targeted is seen
        assert len(seen) == TINY.n_masks


class TestTable1Scaling:
    def test_scale_roi_at_reference_side(self):
        assert scale_roi(448) == (50, 50, 200, 200)

    def test_scale_roi_tiny(self):
        x1, y1, x2, y2 = scale_roi(32)
        assert 0 <= x1 < x2 <= 32 and 0 <= y1 < y2 <= 32

    def test_scale_count(self):
        assert scale_count(5000, 448) == 5000
        assert scale_count(5000, 224) == 1250

    def test_five_queries(self):
        qs = table1_queries(TINY)
        assert [q.name for q in qs] == ["Q1", "Q2", "Q3", "Q4", "Q5"]
        assert [q.kind for q in qs] == ["filter", "filter", "topk", "agg", "maskagg"]


def test_fig11_runners_agree(spark, tiny_store, tiny_cfg):
    """MS, MS-II and the full scan answer a workload identically; the full
    scan loads every target, MS-II's first query every one of its own."""
    wl = generate_workload(TINY, 2, 3)
    ms = run_ms(spark, tiny_store, tiny_cfg, wl)
    msii = run_msii(spark, tiny_store, tiny_cfg, wl)
    full = run_numpy(spark, tiny_store, wl)
    assert ms.results == msii.results == full.results
    assert full.masks_loaded == [len(wq.mask_ids) for wq in wl]
    assert msii.masks_loaded[0] == len(wl[0].mask_ids)
