"""CHI construction tests (paper §3.1), anchored on the paper's Figure 4
worked example."""
import glob
import os
import shutil
import time

import numpy as np
import pytest

from repro import harness
from repro.core.chi import ChiConfig, ChiIndex, build_chi_array, build_index
from repro.core.cp import cp
from repro.core.executor import MaskSearchEngine
from repro.core.incremental import IncrementalSession
from repro.maskstore.store import MaskStore

from . import testing

# The paper's Figure 4 example mask M (6x6), rows top to bottom.
FIG4 = np.array(
    [
        [0.2, 0.2, 0.2, 0.2, 0.2, 0.0],
        [0.2, 0.2, 0.2, 0.2, 0.2, 0.2],
        [0.2, 0.8, 0.2, 0.2, 0.6, 0.2],
        [0.2, 0.2, 0.8, 0.8, 0.8, 0.8],
        [0.2, 0.2, 0.8, 0.8, 0.2, 0.2],
        [0.2, 0.2, 0.2, 0.6, 0.2, 0.2],
    ],
    dtype=np.float32,
)
FIG4_CFG = ChiConfig(wc=2, hc=2, b=2)  # bins [0, .5) and [.5, 1)


@pytest.fixture(scope="module")
def fig4_H():
    return build_chi_array(FIG4, FIG4_CFG)


class TestFigure4:
    def test_shape(self, fig4_H):
        assert fig4_H.shape == (4, 4, 2)  # (ny+1, nx+1, b)

    def test_H_1_1(self, fig4_H):
        """Paper: H(M,1,1)[0] = 4 (all four pixels), H(M,1,1)[1] = 0."""
        assert fig4_H[1, 1, 0] == 4
        assert fig4_H[1, 1, 1] == 0

    def test_H_2_2(self, fig4_H):
        """Paper: H(M,2,2) = [16, 3]."""
        assert fig4_H[2, 2, 0] == 16
        assert fig4_H[2, 2, 1] == 3

    def test_H_3_3_totals(self, fig4_H):
        assert fig4_H[3, 3, 0] == 36
        assert fig4_H[3, 3, 1] == int((FIG4 >= 0.5).sum())

    def test_eq2_available_region(self, fig4_H):
        """Paper: C(M,((3,3),(4,6))) via Eq.(2) gives CP(..., (0,1)) = 8
        and CP(..., (.5,1)) = 5. In 0-indexed half-open coordinates the
        region is rows [2,6) x cols [2,4) (or the transpose; the example
        mask makes both equal)."""
        # Eq. (2): H[i2,j2] - H[i1,j2] - H[i2,j1] + H[i1,j1]
        C = fig4_H[3, 2] - fig4_H[1, 2] - fig4_H[3, 1] + fig4_H[1, 1]
        assert C[0] == 8
        assert C[1] == 5

    def test_zero_padding(self, fig4_H):
        assert np.all(fig4_H[0, :, :] == 0)
        assert np.all(fig4_H[:, 0, :] == 0)


class TestBuildChiArray:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cfg", [ChiConfig(2, 2, 4), ChiConfig(4, 2, 3), ChiConfig(2, 4, 8)])
    def test_matches_direct_cp_definition(self, seed, cfg):
        """Eq. (1): H[i, j, k] == CP(mask, ((1,1),(j*wc, i*hc)), (k/b, 1))."""
        g = np.random.default_rng(seed)
        m = (g.random((8, 8)) * 0.999).astype(np.float32)
        H = build_chi_array(m, cfg)
        ny1, nx1, b = H.shape
        for i in range(ny1):
            for j in range(nx1):
                for k in range(b):
                    if i == 0 or j == 0:
                        assert H[i, j, k] == 0
                    else:
                        expected = cp(m, (0, 0, j * cfg.wc, i * cfg.hc), k / b, 1.0)
                        assert H[i, j, k] == expected

    def test_monotone_in_space_and_value(self):
        g = np.random.default_rng(7)
        m = (g.random((16, 16)) * 0.999).astype(np.float32)
        H = build_chi_array(m, ChiConfig(4, 4, 8))
        assert np.all(np.diff(H, axis=0) >= 0)  # more rows, more pixels
        assert np.all(np.diff(H, axis=1) >= 0)
        assert np.all(np.diff(H, axis=2) <= 0)  # higher bin, fewer pixels

    def test_bin_zero_is_total_area(self):
        g = np.random.default_rng(8)
        m = (g.random((12, 8)) * 0.999).astype(np.float32)
        H = build_chi_array(m, ChiConfig(4, 4, 4))
        assert H[-1, -1, 0] == 12 * 8

    def test_non_divisible_mask_raises(self):
        m = np.zeros((10, 10), dtype=np.float32)
        with pytest.raises(ValueError):
            build_chi_array(m, ChiConfig(4, 4, 4))

    def test_values_at_bin_boundaries(self):
        m = np.array([[0.0, 0.25], [0.5, 0.75]], dtype=np.float32)
        H = build_chi_array(m, ChiConfig(2, 2, 4))
        # reverse-cumulative: bins >= 0:4, >= .25:3, >= .5:2, >= .75:1
        assert list(H[1, 1]) == [4, 3, 2, 1]


class TestChiConfig:
    def test_grid(self):
        assert ChiConfig(8, 8, 16).grid(32, 64) == (4, 8)

    def test_grid_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            ChiConfig(8, 8, 16).grid(33, 64)

    def test_index_bytes_per_mask(self):
        # paper accounting: 4 * b * (w/wc) * (h/hc)
        assert ChiConfig(64, 64, 16).index_bytes_per_mask(448, 448) == 4 * 16 * 7 * 7

    def test_tag(self):
        assert ChiConfig(8, 4, 16).tag() == "chi_8x4_b16"


class TestChiIndexStructure:
    def test_add_and_gather(self):
        cfg = ChiConfig(2, 2, 2)
        idx = ChiIndex(cfg)
        H1 = build_chi_array(FIG4, cfg)
        H2 = build_chi_array((FIG4 * 0.5).astype(np.float32), cfg)
        idx.add(np.array([10]), H1[None])
        idx.add(np.array([20]), H2[None])
        assert len(idx) == 2
        assert idx.has(np.array([10, 20, 30])).tolist() == [True, True, False]
        got = idx.gather(np.array([20, 10]))
        assert np.array_equal(got[0], H2)
        assert np.array_equal(got[1], H1)

    def test_has_vector(self):
        cfg = ChiConfig(2, 2, 2)
        idx = ChiIndex(cfg)
        idx.add(np.array([1, 3]), np.stack([build_chi_array(FIG4, cfg)] * 2))
        assert idx.has(np.array([1, 2, 3, -1, 4])).tolist() == [True, False, True, False, False]

    def test_gather_missing_raises(self):
        cfg = ChiConfig(2, 2, 2)
        idx = ChiIndex(cfg)
        idx.add(np.array([1]), build_chi_array(FIG4, cfg)[None])
        with pytest.raises(KeyError):
            idx.gather(np.array([2]))
        with pytest.raises(KeyError):
            idx.gather(np.array([-1]))

    def test_empty_gather_raises(self):
        with pytest.raises(KeyError):
            ChiIndex(ChiConfig(2, 2, 2)).gather(np.array([1]))

    @pytest.mark.parametrize("ids", [[1, 2], [-1]], ids=["count_mismatch", "negative_id"])
    def test_add_rejects_bad_ids(self, ids):
        """Ids address tensor rows: one CHI must not be broadcast onto
        several ids, and -1 must not address the last row."""
        cfg = ChiConfig(2, 2, 2)
        idx = ChiIndex(cfg)
        with pytest.raises(ValueError):
            idx.add(np.array(ids), build_chi_array(FIG4, cfg)[None])
        assert len(idx) == 0

    def test_add_shape_mismatch_raises(self):
        cfg = ChiConfig(2, 2, 2)
        idx = ChiIndex(cfg)
        idx.add(np.array([1]), build_chi_array(FIG4, cfg)[None])
        small = build_chi_array(FIG4[:4, :4], cfg)
        with pytest.raises(ValueError):
            idx.add(np.array([2]), small[None])


class TestDistributedBuild:
    def test_index_matches_local_build(self, spark, tiny_store, tiny_index, tiny_cfg):
        """Spark-built index rows equal per-mask local construction."""
        for mid in range(tiny_store.n_masks()):
            H_local = build_chi_array(testing.load_mask(tiny_store, mid), tiny_cfg)
            assert np.array_equal(tiny_index.gather(np.array([mid]))[0], H_local)

    def test_index_covers_all_masks(self, tiny_store, tiny_index):
        assert len(tiny_index) == tiny_store.n_masks()

    def test_build_is_one_job_of_one_stage(self, spark, tiny_store, tiny_cfg, tmp_path):
        """The build is the reader's scan written straight to Parquet: one
        Spark job of one stage (no shuffle), one task per core."""
        sc = spark.sparkContext
        group = "chi-build"
        sc.setJobGroup(group, group)
        try:
            build_index(spark, tiny_store, tiny_cfg, str(tmp_path / "chi"))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        tracker = sc.statusTracker()
        jobs = list(tracker.getJobIdsForGroup(group))
        assert len(jobs) == 1
        stages = list(tracker.getJobInfo(jobs[0]).stageIds)
        assert len(stages) == 1
        n_tasks = min(sc.defaultParallelism, tiny_store.n_masks())
        assert tracker.getStageInfo(stages[0]).numTasks == n_tasks

    def test_build_charges_io_delay_per_mask(self, spark, tiny_store, tiny_cfg, tmp_path):
        """Simulated-EBS mode: the up-front build pays the per-mask load
        latency, as query-time loads do (Fig. 11's MS set-up)."""
        store = MaskStore(tiny_store.root, io_delay_ms=20.0)
        t0 = time.perf_counter()
        build_index(spark, store, tiny_cfg, str(tmp_path / "chi"))
        floor_s = store.n_masks() * 0.020 / spark.sparkContext.defaultParallelism
        assert time.perf_counter() - t0 >= floor_s

    def test_load_rejects_wrong_bins(self, spark, tiny_index_path):
        with pytest.raises(ValueError):
            ChiIndex.load(spark, tiny_index_path, ChiConfig(8, 8, 4))

    def test_load_rejects_other_cell_size(self, spark, tiny_store, tmp_path):
        """Same bins, other cells: bounds read under the wrong cell size
        are unsound."""
        path = build_index(spark, tiny_store, ChiConfig(16, 16, 8), str(tmp_path / "chi"))
        with pytest.raises(ValueError):
            ChiIndex.load(spark, path, ChiConfig(8, 8, 8))

    def test_index_size_accounting(self, tiny_store, tiny_index, tiny_cfg):
        per_mask = tiny_cfg.index_bytes_per_mask(
            tiny_store.spec.width, tiny_store.spec.height
        )
        ny1, nx1, b = tiny_index.row_shape
        assert per_mask == 4 * (ny1 - 1) * (nx1 - 1) * b
        assert len(tiny_index) == tiny_store.n_masks()


class TestDriverSideIO:
    """The index and the metadata are driver-side tables: read and
    written without Spark."""

    def test_load_save_and_metadata_start_no_spark_job(
        self, spark, tiny_store, tiny_index_path, tiny_cfg, tmp_path
    ):
        sc = spark.sparkContext
        group = "driver-side-io"
        sc.setJobGroup(group, group)
        try:
            idx = ChiIndex.load(spark, tiny_index_path, tiny_cfg)
            idx.save(spark, str(tmp_path / "chi"))
            meta = MaskStore(tiny_store.root).metadata_pandas(spark)  # fresh, uncached
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert len(idx) == len(meta) == tiny_store.n_masks()
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []

    def test_persist_replaces_full_index(
        self, spark, tiny_store, tiny_index_path, tiny_cfg, tmp_path, monkeypatch
    ):
        """A 12-mask MS-II index persisted over the full index leaves no
        stale part file behind."""
        path = str(tmp_path / "chi")
        shutil.copytree(tiny_index_path, path)
        session = IncrementalSession(spark, tiny_store, tiny_cfg)
        ids = np.arange(12)
        H = np.stack([build_chi_array(testing.load_mask(tiny_store, m), tiny_cfg) for m in ids])
        session.index.add(ids, H)
        assert session.persist(path) == path
        assert len(glob.glob(os.path.join(path, "*.parquet"))) == 1
        assert len(ChiIndex.load(spark, path, tiny_cfg)) == 12
        store = MaskStore(tiny_store.root)
        monkeypatch.setattr(store, "index_path", lambda cfg: path)
        assert harness.ensure_index(spark, store, tiny_cfg) == path
        assert len(ChiIndex.load(spark, path, tiny_cfg)) == 12  # reused, not rebuilt

    def test_engine_rejects_index_for_other_mask_size(self, spark, tiny_store, tiny_cfg):
        """A CHI of 64x64 masks against the 32x32 tiny store: the right
        ``ChiConfig``, but every bound would be read off the wrong grid."""
        big = (np.random.default_rng(0).random((64, 64)) * 0.999).astype(np.float32)
        idx = ChiIndex(tiny_cfg)
        idx.add(np.array([0]), build_chi_array(big, tiny_cfg)[None])
        with pytest.raises(ValueError):
            MaskSearchEngine(spark, tiny_store, idx)
