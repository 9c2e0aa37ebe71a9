"""The benchmark's tracer wraps the program's functions by name, so a
rename must fail here rather than crash a benchmark run."""
from perfbench.tracing import Tracer
from repro.core import verify
from repro.core.executor import MaskSearchEngine
from repro.core.incremental import IncrementalSession


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
