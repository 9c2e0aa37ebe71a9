"""The full-scan baseline is the engine without an index: every query
class loads every targeted mask in a single verification scan and builds
no CHI."""
import pytest

from repro.core import verify
from repro.core.cp import OBJECT_ROI, CPTerm
from repro.core.executor import GT, FilterPredicate

CONST_ROI = (5, 5, 20, 20)
NUM, DEN = CPTerm(0.97, 1.0, CONST_ROI), CPTerm(0.97, 1.0, None)

QUERIES = {
    "filter": lambda ex: ex.filter(
        FilterPredicate((CPTerm(0.6, 1.0, CONST_ROI),), GT, 40), model_id=1
    ),
    "topk": lambda ex: ex.topk(CPTerm(0.8, 1.0, OBJECT_ROI), k=5, model_id=1),
    "topk_ratio_asc": lambda ex: ex.topk_ratio(NUM, DEN, k=20, descending=False, model_id=1),
    "topk_ratio_desc": lambda ex: ex.topk_ratio(NUM, DEN, k=20, descending=True, model_id=1),
    "agg_topk": lambda ex: ex.agg_topk(CPTerm(0.8, 1.0, OBJECT_ROI), k=5),
    "maskagg_topk": lambda ex: ex.maskagg_topk(0.7, OBJECT_ROI, k=5),
}


@pytest.mark.parametrize("query", list(QUERIES))
def test_one_scan_loads_every_target(baseline, monkeypatch, query):
    calls = []

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*a, **kw):
            calls.append(name)
            return real(*a, **kw)

        return wrapper

    for name in ("exact_cp_pdf", "exact_maskagg_pdf", "exact_cp_and_chi"):
        monkeypatch.setattr(verify, name, counted(name))
    r = QUERIES[query](baseline)
    assert len(calls) == 1 and "exact_cp_and_chi" not in calls
    assert r.stats.masks_loaded == r.stats.n_verified == r.stats.n_targeted > 0
    assert r.stats.n_pruned == r.stats.n_accepted == 0
