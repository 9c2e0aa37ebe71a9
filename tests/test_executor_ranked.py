"""The four ranked query classes (top-k, ratio top-k, Q4, Q5) share one
refinement path; on an empty target each returns exactly the baseline's
frame, column dtypes included. The path itself is checked without Spark
against a brute-force ranking."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cp import OBJECT_ROI, CPTerm
from repro.core.executor import MaskSearchEngine

TERM = CPTerm(0.5, 1.0, OBJECT_ROI)


@pytest.mark.parametrize(
    "run",
    [
        lambda ex: ex.topk(TERM, 5, mask_ids=[]),
        lambda ex: ex.topk_ratio(TERM, CPTerm(0.0, 1.0, None), 5, mask_ids=[]),
        lambda ex: ex.agg_topk(TERM, 5, image_ids=[]),
        lambda ex: ex.maskagg_topk(0.5, OBJECT_ROI, 5, image_ids=[]),
    ],
    ids=["topk", "topk_ratio", "agg_topk", "maskagg_topk"],
)
def test_empty_target_matches_baseline(spark, engine, baseline, run):
    r, rb = run(engine), run(baseline)
    assert list(r.pdf.dtypes) == list(rb.pdf.dtypes)
    assert r.pdf.equals(rb.pdf)
    assert r.stats.masks_loaded == 0


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("side", ["engine", "baseline"])
@pytest.mark.parametrize(
    "run",
    [
        lambda ex, k: ex.topk(TERM, k),
        lambda ex, k: ex.topk_ratio(TERM, CPTerm(0.0, 1.0, None), k),
        lambda ex, k: ex.agg_topk(TERM, k),
        lambda ex, k: ex.maskagg_topk(0.5, OBJECT_ROI, k),
    ],
    ids=["topk", "topk_ratio", "agg_topk", "maskagg_topk"],
)
def test_k_below_one_raises(request, run, side, k):
    """A ranked query with ``k < 1`` is rejected, not answered with an
    empty or truncated frame."""
    with pytest.raises(ValueError, match="k must be"):
        run(request.getfixturevalue(side), k)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 300),
    k=st.integers(1, 40),
    descending=st.booleans(),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_matches_brute_force(n, k, descending, tied, seed):
    """``_rank`` with a fake ``exact`` over random intervals that contain
    the true values: the answer is the brute-force top-k (key ascending on
    ties); round 1 verifies every entity whose HI reaches the k-th largest
    HI, as no threshold can prune it; equal bounds take one round."""
    g = np.random.default_rng(seed)
    keys = g.permutation(10 * n)[:n]
    val = g.integers(0, 20, n).astype(float)  # small range: many ties
    if tied:
        lo, hi = np.zeros(n), np.full(n, 20.0)
    else:
        lo = val - g.integers(0, 8, n) * g.random(n)
        hi = val + g.integers(0, 8, n) * g.random(n)
    meta = pd.DataFrame({"mask_id": keys})
    ent = pd.DataFrame({"lo": lo, "hi": hi, "n": 1}, index=pd.Index(keys, name="mask_id"))
    truth = pd.DataFrame({"mask_id": keys, "val": val})
    calls = []

    def exact(sub):
        calls.append(set(sub["mask_id"]))
        return truth[truth["mask_id"].isin(sub["mask_id"])], len(sub)

    r = MaskSearchEngine._rank(None, meta, "mask_id", ent, k, descending, exact)
    want = truth.sort_values(["val", "mask_id"], ascending=[not descending, True]).head(k)
    assert r.pdf.equals(want.reset_index(drop=True))
    assert r.stats.masks_loaded == r.stats.n_verified == sum(map(len, calls))
    HI = hi if descending else -lo
    top = np.sort(HI)[-k] if n > k else -np.inf
    assert set(keys[HI >= top]) <= calls[0]
    if tied:
        assert len(calls) == 1
