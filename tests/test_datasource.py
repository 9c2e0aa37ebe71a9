"""``maskstore`` DataSourceV2 tests: schema, round-trip, and Catalyst
filter pushdown (the verification-stage scan path)."""
import numpy as np
import pytest
from pyspark.sql import functions as F
from pyspark.sql.datasource import EqualTo, In, StringContains

from repro.maskstore import datasource as ds
from repro.maskstore.store import MaskStore, read_metadata

from . import testing


class TestScan:
    def test_count_all(self, spark, tiny_store):
        assert ds.scan(spark, tiny_store).count() == tiny_store.n_masks()

    def test_schema(self, spark, tiny_store):
        df = ds.scan(spark, tiny_store)
        assert [f.name for f in df.schema.fields] == [
            "mask_id", "image_id", "model_id", "height", "width", "values",
        ]

    def test_values_roundtrip(self, spark, tiny_store):
        row = (
            ds.scan(spark, tiny_store)
            .where(F.col("mask_id") == 7)
            .collect()[0]
        )
        got = np.array(row.values, dtype=np.float32).reshape(row.height, row.width)
        assert np.array_equal(got, testing.load_mask(tiny_store, 7))

    def test_isin_filter(self, spark, tiny_store):
        ids = [0, 5, 9, 44]
        rows = (
            ds.scan(spark, tiny_store)
            .where(F.col("mask_id").isin(ids))
            .select("mask_id")
            .collect()
        )
        assert sorted(r.mask_id for r in rows) == ids

    @pytest.mark.parametrize(
        "pred, n",
        [(lambda c: c.isin([0, 5, 9]), 3), (lambda c: c == 7, 1)],
        ids=["isin", "equal"],
    )
    def test_catalyst_pushes_mask_id_filter(self, spark, tiny_store, pred, n):
        """Catalyst hands ``isin`` and ``==`` on ``mask_id`` to the reader:
        only the selected masks are planned. Without pushdown the scan
        would plan one partition per core."""
        df = ds.scan(spark, tiny_store).where(pred(F.col("mask_id")))
        assert df.rdd.getNumPartitions() == n

    def test_model_filter(self, spark, tiny_store):
        n = ds.scan(spark, tiny_store).where(F.col("model_id") == 1).count()
        assert n == tiny_store.spec.n_images

    def test_empty_result(self, spark, tiny_store):
        assert (
            ds.scan(spark, tiny_store).where(F.col("mask_id") == 10**9).count() == 0
        )

    def test_missing_path_option_raises(self):
        with pytest.raises(ValueError):
            ds.MaskStoreReader({})


class TestPushdown:
    """Direct reader-level tests: supported filters are consumed and
    prune the planned partitions (i.e. file reads)."""

    def _reader(self, tiny_store, **opts):
        return ds.MaskStoreReader({"path": tiny_store.root, **opts})

    def test_in_filter_consumed_and_prunes(self, tiny_store):
        r = self._reader(tiny_store)
        rest = list(r.pushFilters([In(("mask_id",), (1, 2, 3))]))
        assert rest == []
        parts = r.partitions()
        assert sum(len(p.rows["mask_id"]) for p in parts) == 3

    def test_unsupported_filter_returned(self, tiny_store):
        r = self._reader(tiny_store)
        unsupported = StringContains(("path",), "foo")
        model = EqualTo(("model_id",), 1)
        rest = list(r.pushFilters([unsupported, model]))
        assert rest == [unsupported, model]

    def test_unsupported_column_returned(self, tiny_store):
        r = self._reader(tiny_store)
        f = EqualTo(("height",), 32)
        assert list(r.pushFilters([f])) == [f]

    def test_conjunction_of_filters(self, tiny_store):
        """Pushed ``mask_id`` filters and the ``maskids`` option narrow
        one target set: the planned masks are their intersection."""
        r = self._reader(tiny_store)
        rest = list(r.pushFilters([In(("mask_id",), tuple(range(10))), EqualTo(("mask_id",), 7)]))
        assert rest == []
        assert [m for p in r.partitions() for m in p.rows["mask_id"]] == [7]
        r = self._reader(tiny_store, maskids="3,5,8")
        assert list(r.pushFilters([In(("mask_id",), (5, 8, 9))])) == []
        assert sorted(m for p in r.partitions() for m in p.rows["mask_id"]) == [5, 8]

    def test_empty_selection_single_empty_partition(self, tiny_store):
        r = self._reader(tiny_store)
        list(r.pushFilters([EqualTo(("mask_id",), -1)]))
        parts = r.partitions()
        assert len(parts) == 1 and parts[0].rows.empty

    def test_numpartitions_option(self, tiny_store):
        r = self._reader(tiny_store, numpartitions="4")
        parts = r.partitions()
        assert len(parts) == 4
        assert sum(len(p.rows["mask_id"]) for p in parts) == tiny_store.n_masks()

    def test_partitions_cover_each_mask_once(self, tiny_store):
        r = self._reader(tiny_store)
        ids = [m for p in r.partitions() for m in p.rows["mask_id"]]
        assert sorted(ids) == list(range(tiny_store.n_masks()))

    def test_maskids_option_prunes(self, tiny_store):
        """The large-candidate-set path: ids via option, not Catalyst."""
        r = self._reader(tiny_store, maskids="3,5,8")
        ids = [m for p in r.partitions() for m in p.rows["mask_id"]]
        assert sorted(ids) == [3, 5, 8]

    def test_maskids_option_through_spark(self, spark, tiny_store, tiny_meta):
        df = ds.scan(spark, tiny_store, tiny_meta[tiny_meta["mask_id"].isin([2, 4, 6, 8])])
        assert sorted(r.mask_id for r in df.select("mask_id").collect()) == [2, 4, 6, 8]

    def test_maskids_combines_with_pushed_filter(self, spark, tiny_store, tiny_meta):
        from pyspark.sql import functions as F

        df = ds.scan(spark, tiny_store, tiny_meta[tiny_meta["mask_id"] < 20]).where(
            F.col("model_id") == 1
        )
        got = sorted(r.mask_id for r in df.select("mask_id").collect())
        meta = read_metadata(tiny_store.root)
        expect = meta[(meta["mask_id"] < 20) & (meta["model_id"] == 1)]["mask_id"]
        assert got == sorted(int(v) for v in expect)

    def test_io_delay_applied(self, spark, tiny_store, tiny_meta):
        """Simulated-EBS mode: the store's per-mask latency slows the scan."""
        import time

        store = MaskStore(tiny_store.root, io_delay_ms=300)
        t0 = time.perf_counter()
        ds.scan(spark, store, tiny_meta.head(1)).collect()
        assert time.perf_counter() - t0 >= 0.3

    @pytest.mark.parametrize("delay", ["nan", "-1", "inf", "-inf"])
    def test_io_delay_must_be_finite_and_non_negative(self, tiny_store, delay):
        """Rejected when the reader is built, not by every task's sleep."""
        with pytest.raises(ValueError, match="iodelayms"):
            ds.MaskStoreReader({"path": tiny_store.root, "iodelayms": delay})


@pytest.mark.parametrize(
    "select",
    [
        lambda m: m,
        lambda m: m[m["model_id"] == 1],
        lambda m: m.iloc[[3, 40, 77]],
        lambda m: m.iloc[::2].head(50),
        lambda m: m.iloc[1:],
    ],
    ids=["full_store", "one_model", "mask_id_in_3", "mask_id_in_50", "maskids_option"],
)
def test_verification_scan_runs_one_task_per_core(spark, tiny_store, tiny_meta, select):
    """Every target set the verification scan is given fans out to the
    session's parallelism, capped at the number of targeted masks, and
    reads exactly those masks. Every set but the whole store travels as
    the ``maskids`` option; ``maskids_option`` is the largest such set,
    all masks but one."""
    meta = select(tiny_meta)
    df = ds.scan(spark, tiny_store, meta)
    assert df.rdd.getNumPartitions() == min(spark.sparkContext.defaultParallelism, len(meta))
    assert sorted(r.mask_id for r in df.select("mask_id").collect()) == sorted(meta["mask_id"])
