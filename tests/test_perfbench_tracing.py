"""The benchmark's tracer wraps the program's functions by name, so a
rename must fail here rather than crash a benchmark run."""
from perfbench.tracing import Tracer
from perfbench.workloads import explore_pass, table1_pass
from repro.core import verify
from repro.core.executor import MaskSearchEngine
from repro.core.incremental import IncrementalSession
from repro.masks.synth import TINY


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


def test_bench_queries_bind_to_engine_signatures():
    """Every benchmark query binds against the engine's signatures (no
    Spark job runs), so a changed signature fails here instead."""
    calls = [q.call() for q in table1_pass(TINY, 1) + explore_pass(TINY, 1)]
    assert {c.method for c in calls} == {"filter", "topk", "agg_topk", "maskagg_topk"}
