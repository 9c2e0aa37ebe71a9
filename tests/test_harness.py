"""Evaluation harness: the Table-2 summary of the individual queries."""
import numpy as np

from repro import harness

BASELINE = "baseline_loaded (PG=TDB=NP)"


def test_table2_summary_layout(spark, tmp_path, monkeypatch):
    """Integer load counts, the targeted count and the reduction factor,
    one row per query, with MaskSearch never loading more than the full
    scan (``run_individual_queries`` also asserts both return equal rows)."""
    monkeypatch.setattr(harness, "DATA_DIR", str(tmp_path))
    monkeypatch.setattr(harness, "_ENGINE_CACHE", {})
    monkeypatch.setattr(harness, "_BASELINE_CACHE", {})
    table = harness.summarize_masks_loaded(harness.run_individual_queries(spark, "tiny"))
    assert list(table.columns) == [
        "dataset", "query", "masksearch_loaded", BASELINE, "n_targeted", "reduction_x",
    ]
    assert list(table["query"]) == ["Q1", "Q2", "Q3", "Q4", "Q5"]
    assert table["masksearch_loaded"].dtype == np.int64
    assert table[BASELINE].dtype == np.int64
    assert (table["masksearch_loaded"] <= table[BASELINE]).all()
    assert (table[BASELINE] == table["n_targeted"]).all()
