"""Sanity tests for the shared test infrastructure: the DuckDB oracle
and the pixel explosion."""
import numpy as np
import pandas as pd
import pytest

from . import testing
from .oracle import assert_equivalent


class TestPixelsTable:
    def test_row_count(self, pixels, tiny_store):
        s = tiny_store.spec
        assert len(pixels) == s.n_masks * s.width * s.height

    def test_values_match_masks(self, pixels, tiny_store):
        sub = pixels[pixels["mask_id"] == 13]
        m = testing.load_mask(tiny_store, 13)
        got = np.zeros_like(m, dtype=np.float64)
        got[sub["y"], sub["x"]] = sub["v"]
        assert np.array_equal(got, m.astype(np.float64))

    def test_oracle_detects_wrong_result(self, spark, pixels, tiny_meta):
        """A deliberately wrong Spark result must fail the oracle."""
        wrong = spark.createDataFrame(pd.DataFrame({"mask_id": [0, 1]}), "mask_id long")
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT DISTINCT mask_id FROM meta WHERE model_id = 1 ORDER BY mask_id",
                pixels=pixels,
                meta=tiny_meta,
            )

    def test_oracle_accepts_correct_result(self, spark, tiny_meta):
        got = spark.createDataFrame(
            tiny_meta.loc[tiny_meta["model_id"] == 1, ["mask_id"]], "mask_id long"
        )
        assert_equivalent(
            got,
            "SELECT mask_id FROM meta WHERE model_id = 1",
            meta=tiny_meta,
        )

