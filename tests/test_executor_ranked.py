"""The four ranked query classes (top-k, ratio top-k, Q4, Q5) share one
refinement path; on an empty target each returns exactly the baseline's
frame, column dtypes included."""
import pytest

from repro.core.cp import OBJECT_ROI, CPTerm

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
