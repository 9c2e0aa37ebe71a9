"""The benchmark's three workloads and the queries each pass issues.

Every workload is a closed loop: one analyst issues a query, waits for
the answer, then issues the next. A *pass* is a fixed, seed-determined
list of queries; a run repeats the same pass, so every metric is taken
over an identical query mix however many passes fit in the run.

Query parameters come only from the repository's own generators
(``table1_queries``, ``random_queries``, ``multi_query.generate_workload``).
Each query is a callable on an executor; calling it on a
:class:`Recorder` instead of the engine captures the call and its
arguments, which is what the reference answers are computed from.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.executor import MaskSearchEngine
from repro.masks.synth import DatasetSpec
from repro.workloads import multi_query, random_queries
from repro.workloads.queries import table1_queries

#: Query class of each engine method (the ``*_s.p50`` class medians).
CLASS_OF = {"filter": "filter", "topk": "topk", "agg_topk": "agg", "maskagg_topk": "agg"}


@dataclass(frozen=True)
class Call:
    """One recorded engine call: method name and fully bound arguments."""

    method: str
    args: dict

    @property
    def cls(self) -> str:
        return CLASS_OF[self.method]


class Recorder:
    """Stand-in executor that returns the call it receives instead of
    running it. Arguments are bound against the engine's own signatures,
    so defaults are filled in exactly as the engine would see them."""

    def __getattr__(self, method: str):
        if method not in CLASS_OF:
            raise AttributeError(method)
        sig = inspect.signature(getattr(MaskSearchEngine, method))

        def record(*args, **kwargs):
            bound = sig.bind(None, *args, **kwargs)
            bound.apply_defaults()
            return Call(method, {k: v for k, v in bound.arguments.items() if k != "self"})

        return record


@dataclass(frozen=True)
class BenchQuery:
    name: str
    run: Callable[[Any], Any]  # executor -> QueryResult
    table1: bool = False  # one of the paper's fixed Table-1 queries

    def call(self) -> Call:
        return self.run(Recorder())


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # key of repro.harness.DATASETS
    io_delay_ms: float
    incremental: bool  # IncrementalSession (MS-II) instead of MaskSearchEngine
    queries: Callable[[DatasetSpec, int], list[BenchQuery]]


#: Seeded §4.3 random filters per Table-1 pass (each costs 0.02-3 s).
#: Random top-k and aggregation queries are left out of the timed pass:
#: one of each loads 200-4,000 and 300-8,000 masks depending on the seed
#: and costs 4-12 s, so a run that can afford one of each would measure
#: the seed, not the program.
N_RANDOM_FILTERS = 1
#: §4.5 workload-2 queries per exploration session.
N_EXPLORE = 6


def table1_pass(spec: DatasetSpec, seed: int) -> list[BenchQuery]:
    """Table-1 Q1-Q5, then a seeded random filter over model 1 (the
    index-only path whenever the bounds decide every mask)."""
    out = [BenchQuery(q.name, q.run, table1=True) for q in table1_queries(spec)]
    for i, q in enumerate(random_queries.random_filter_queries(spec, N_RANDOM_FILTERS, seed)):
        out.append(BenchQuery(f"rf{i}", lambda ex, q=q: q.run(ex, model_id=1)))
    return out


def explore_pass(spec: DatasetSpec, seed: int) -> list[BenchQuery]:
    """§4.5 workload 2 (p_seen = 0.5): filters over 10-30 % of the masks,
    from an empty index."""
    wl = multi_query.generate_workload(spec, 2, N_EXPLORE, seed=seed)
    return [
        BenchQuery(f"e{i}", lambda ex, wq=wq: ex.filter(wq.query.predicate(), mask_ids=wq.mask_ids))
        for i, wq in enumerate(wl)
    ]


#: ``loads_ebs40`` runs from the command line but is not in BENCHMARK.json:
#: its 27-35 s pass does not fit the run budget beside the other two.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("interactive_raw", "imagenet_lite", 0.0, False, table1_pass),
        Workload("loads_ebs40", "wilds_lite", 40.0, False, table1_pass),
        Workload("explore_msii", "imagenet_lite", 0.0, True, explore_pass),
    )
}
