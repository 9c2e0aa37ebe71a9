"""The benchmark wraps the program's functions by name and replays
queries through the program's reader, so a rename or a changed reader
path must fail here rather than crash or skew a benchmark run."""
import pytest
from pyspark.sql.classic.dataframe import DataFrame

from perfbench import replay
from perfbench.tracing import Tracer
from perfbench.workloads import explore_pass, table1_pass
from repro.core import verify
from repro.core.cp import CPTerm
from repro.core.executor import MaskSearchEngine
from repro.core.incremental import IncrementalSession
from repro.masks.synth import TINY
from repro.workloads.queries import table1_queries


def test_tracer_installs_and_uninstalls():
    before = (verify.exact_cp_and_chi, IncrementalSession.__dict__["filter"])
    tracer = Tracer(spans=True)
    tracer.install()
    try:
        assert verify.exact_cp_and_chi is not before[0]
        assert IncrementalSession.filter is not MaskSearchEngine.filter
    finally:
        tracer.uninstall()
    assert (verify.exact_cp_and_chi, IncrementalSession.__dict__["filter"]) == before


@pytest.mark.parametrize("executor", ["engine", "msii"])
def test_verify_calls_count_q5_rounds(request, tiny_store, monkeypatch, executor):
    """The benchmark's ``verify_rounds`` counts each verification call
    that loads masks once: one collected scan per round, for Q5 on MS
    and on MS-II alike (there through ``exact_cp_and_chi``)."""
    ex = request.getfixturevalue(executor)
    q5 = next(q for q in table1_queries(tiny_store.spec) if q.name == "Q5")
    scans = []
    real = DataFrame.toPandas

    def collected(self, *a, **kw):
        scans.append(self)
        return real(self, *a, **kw)

    monkeypatch.setattr(DataFrame, "toPandas", collected)
    tracer = Tracer(spans=False)
    tracer.install()
    try:
        with tracer.query("q5"):
            q5.run(ex)
    finally:
        tracer.uninstall()
    assert tracer.verify_calls == len(scans) > 0


def test_bench_queries_bind_to_engine_signatures():
    """Every benchmark query binds against the engine's signatures (no
    Spark job runs), so a changed signature fails here instead."""
    calls = [q.call() for q in table1_pass(TINY, 1) + explore_pass(TINY, 1)]
    assert {c.method for c in calls} == {"filter", "topk", "agg_topk", "maskagg_topk"}


@pytest.mark.parametrize("in_filter_max", [None, 0], ids=["pushed_in", "maskids_option"])
def test_replay_reads_exactly_the_ids(tiny_store, tiny_meta, tiny_cfg, monkeypatch, in_filter_max):
    """The replay reads through the reader's plain-read schema, pushing
    an ``In`` filter for a small id set and passing the ``maskids``
    option above ``IN_FILTER_MAX``; both paths open exactly the given
    masks (no Spark job runs)."""
    if in_filter_max is not None:
        monkeypatch.setattr(replay, "IN_FILTER_MAX", in_filter_max)
    ids = [3, 40, 77]
    boxes = tiny_meta[["obj_x1", "obj_y1", "obj_x2", "obj_y2"]].to_numpy()
    obj = dict(zip(tiny_meta["mask_id"], map(tuple, boxes)))
    out = replay.replay(
        tiny_store.root, ids, (CPTerm(0.5, 1.0, "object"),), obj, tiny_cfg, t_intersect=0.7
    )
    assert out["masks"] == len(ids)
