"""Mask store substrate tests."""
import dataclasses
import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro import harness
from repro.core.chi import ChiIndex
from repro.core.cp import CPTerm, cp_batch
from repro.core.executor import MaskSearchEngine
from repro.masks.synth import TINY, generate_mask
from repro.maskstore.store import METADATA_SCHEMA, MaskStore, build_store, read_metadata


class TestBuildStore:
    def test_all_mask_files_exist(self, tiny_store):
        for mid in range(tiny_store.n_masks()):
            assert os.path.exists(tiny_store.mask_path(mid))

    def test_mask_contents_match_generator(self, tiny_store):
        spec = tiny_store.spec
        for img, model in [(0, 1), (0, 2), (31, 1), (59, 2)]:
            mid = spec.mask_id(img, model)
            assert np.array_equal(
                tiny_store.load_mask(mid), generate_mask(spec, img, model)
            )

    def test_idempotent_reuse(self, spark, tiny_store):
        """Rebuilding with the same spec reuses the existing store."""
        mtime = os.path.getmtime(tiny_store.mask_path(0))
        again = build_store(spark, TINY, tiny_store.root)
        assert os.path.getmtime(again.mask_path(0)) == mtime

    def test_spec_roundtrip(self, tiny_store):
        st = MaskStore(tiny_store.root)
        assert st.spec == tiny_store.spec

    def test_raw_bytes(self, tiny_store):
        s = tiny_store.spec
        assert tiny_store.raw_bytes() == 4 * s.n_masks * s.width * s.height

    def test_build_is_one_job_of_one_stage(self, spark, tmp_path):
        """The metadata is written on the driver, and the masks by one job
        over the image ids with no shuffle, one task per core."""
        sc = spark.sparkContext
        group = "store-build"
        sc.setJobGroup(group, group)
        try:
            build_store(spark, TINY, str(tmp_path / "store"))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        tracker = sc.statusTracker()
        jobs = list(tracker.getJobIdsForGroup(group))
        assert len(jobs) == 1
        stages = list(tracker.getJobInfo(jobs[0]).stageIds)
        assert len(stages) == 1
        n_tasks = min(sc.defaultParallelism, TINY.n_images)
        assert tracker.getStageInfo(stages[0]).numTasks == n_tasks

    def test_rebuild_replaces_stale_metadata(self, spark, tiny_meta, tmp_path):
        """A rebuild (``_DONE`` missing) replaces the metadata directory's
        contents: a stale part file with extra rows does not survive."""
        extra = tiny_meta.assign(mask_id=tiny_meta["mask_id"] + TINY.n_masks)
        stale = pa.Table.from_pandas(
            pd.concat([tiny_meta, extra]), schema=METADATA_SCHEMA, preserve_index=False
        )
        (tmp_path / "metadata").mkdir()
        pq.write_table(stale, str(tmp_path / "metadata" / "part-00007-stale.parquet"))
        build_store(spark, TINY, str(tmp_path))
        meta = read_metadata(str(tmp_path))
        assert len(meta) == TINY.n_masks and meta["mask_id"].is_unique

    def test_rebuild_drops_stale_chi_indexes(self, spark, tiny_cfg, tmp_path):
        """A store rebuilt with other masks at the same root keeps none of
        the old masks' CHI directories, so ``ensure_index`` builds a new
        index whose bounds contain every new mask's exact CP."""
        root = str(tmp_path / "store")
        harness.ensure_index(spark, build_store(spark, TINY, root), tiny_cfg)
        store = build_store(spark, dataclasses.replace(TINY, seed=TINY.seed + 1), root)
        assert glob.glob(os.path.join(root, "chi_*")) == []
        path = harness.ensure_index(spark, store, tiny_cfg)
        engine = MaskSearchEngine(spark, store, ChiIndex.load(spark, path, tiny_cfg))
        meta = store.metadata_pandas(spark)
        masks = np.stack([store.load_mask(m) for m in meta["mask_id"]])
        for term in (CPTerm(0.55, 0.95, (3, 5, 27, 30)), CPTerm(0.5, 1.0, "object")):
            exact = cp_batch(masks, term.rois(meta, TINY.width, TINY.height), term.lv, term.uv)
            lb, ub = engine.bounds(meta, term)
            assert ((lb <= exact) & (exact <= ub)).all()


class TestMetadata:
    def test_one_row_per_mask(self, tiny_meta, tiny_store):
        assert len(tiny_meta) == tiny_store.n_masks()
        assert tiny_meta["mask_id"].is_unique

    def test_columns(self, tiny_meta):
        for col in [
            "mask_id", "image_id", "model_id", "mask_type", "width", "height",
            "path", "obj_x1", "obj_y1", "obj_x2", "obj_y2", "pred_class",
        ]:
            assert col in tiny_meta.columns

    def test_two_models_per_image(self, tiny_meta):
        per_image = tiny_meta.groupby("image_id")["model_id"].agg(["count", "nunique"])
        assert (per_image["count"] == 2).all()
        assert (per_image["nunique"] == 2).all()

    def test_bbox_consistent_within_image(self, tiny_meta):
        cols = ["obj_x1", "obj_y1", "obj_x2", "obj_y2"]
        assert (tiny_meta.groupby("image_id")[cols].nunique() == 1).all().all()

    def test_bbox_within_mask(self, tiny_meta, tiny_store):
        w, h = tiny_store.spec.width, tiny_store.spec.height
        assert (tiny_meta["obj_x1"] >= 0).all() and (tiny_meta["obj_x2"] <= w).all()
        assert (tiny_meta["obj_y1"] >= 0).all() and (tiny_meta["obj_y2"] <= h).all()
        assert (tiny_meta["obj_x1"] < tiny_meta["obj_x2"]).all()
        assert (tiny_meta["obj_y1"] < tiny_meta["obj_y2"]).all()

    def test_paths_point_at_masks(self, tiny_meta, tiny_store):
        assert tiny_meta["path"].iloc[0].startswith(tiny_store.masks_dir)

    def test_spark_metadata_matches_pandas(self, spark, tiny_store, tiny_meta):
        sdf = spark.read.parquet(tiny_store.metadata_path)
        assert sdf.count() == len(tiny_meta)
        assert set(sdf.columns) == set(tiny_meta.columns)
        spark_pdf = sdf.toPandas().sort_values("mask_id").reset_index(drop=True)
        assert spark_pdf.equals(tiny_meta) and (spark_pdf.dtypes == tiny_meta.dtypes).all()

    def test_metadata_is_one_file_of_the_declared_schema(self, tiny_store):
        files = glob.glob(os.path.join(tiny_store.metadata_path, "*.parquet"))
        assert len(files) == 1
        assert pq.read_schema(files[0]).equals(METADATA_SCHEMA, check_metadata=False)

    def test_index_path_per_config(self, tiny_store, tiny_cfg):
        assert tiny_store.index_path(tiny_cfg).endswith(tiny_cfg.tag())


class TestMarkersAreNotTrusted:
    """A directory holding only the build markers (``_DONE``,
    ``_SPEC.json``, ``_SUCCESS``) is rebuilt, not reused."""

    @pytest.fixture(scope="class")
    def marker_store(self, spark, tmp_path_factory):
        root = tmp_path_factory.mktemp("markers_only")
        spec = {
            "name": TINY.name,
            "n_images": TINY.n_images,
            "width": TINY.width,
            "height": TINY.height,
            "model_ids": list(TINY.model_ids),
            "seed": TINY.seed,
        }
        (root / "_SPEC.json").write_text(json.dumps(spec))
        (root / "_DONE").write_text("ok")
        (root / "metadata").mkdir()
        (root / "metadata" / "_SUCCESS").write_text("")
        return build_store(spark, TINY, str(root))

    def test_build_store_rebuilds(self, spark, marker_store):
        assert len(marker_store.metadata_pandas(spark)) == TINY.n_masks
        assert all(os.path.exists(marker_store.mask_path(m)) for m in range(TINY.n_masks))

    def test_ensure_index_rebuilds(self, spark, marker_store, tiny_cfg):
        path = marker_store.index_path(tiny_cfg)
        os.makedirs(path)
        open(os.path.join(path, "_SUCCESS"), "w").close()
        assert harness.ensure_index(spark, marker_store, tiny_cfg) == path
        assert len(ChiIndex.load(spark, path, tiny_cfg)) == TINY.n_masks


def test_io_delay_restores_previous_value_on_error(tiny_store):
    """``harness.io_delay`` puts the old latency back even when a query in
    the block fails, so a cached engine's store is not left slowed."""
    store = MaskStore(tiny_store.root, io_delay_ms=5.0)
    with pytest.raises(RuntimeError):
        with harness.io_delay(store, 40.0):
            assert store.io_delay_ms == 40.0
            raise RuntimeError("query failed")
    assert store.io_delay_ms == 5.0
