"""Spans around calls into the program's public functions, recorded
from outside the program by wrapping those functions for one run.

Each span records name, start, end, parent span and query id. Spans stay
in memory and are written out when the run ends. The verification
entry points are always wrapped to count verification rounds (calls
that load at least one mask) per query;
with ``spans=False`` that count is all the wrapper does.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from pyspark.sql.classic.dataframe import DataFrame

from repro.core import chi, executor, incremental, verify
from repro.maskstore import datasource, store

VERIFY = ("exact_cp_pdf", "exact_maskagg_pdf", "exact_cp_and_chi")


def _meta(a, kw):
    """The masks a verification entry point was asked to load."""
    return kw["meta"] if "meta" in kw else a[2]


def _n_meta(*a, **kw) -> dict:
    meta = _meta(a, kw)
    return {"n": len(meta), "ids": meta["mask_id"].to_numpy()}


#: (owner, attribute, span name, attrs from the call's arguments)
TRACED = (
    (executor.MaskSearchEngine, "target", "executor.target", None),
    (executor.MaskSearchEngine, "bounds", "executor.bounds", None),
    (executor, "cp_bounds_batch", "bounds.cp_bounds_batch", lambda H, *a, **k: {"n": len(H)}),
    (chi, "build_index", "chi.build_index", None),
    (chi.ChiIndex, "load", "chi.load", None),
    (chi.ChiIndex, "gather", "chi.gather", lambda self, ids: {"n": len(ids)}),
    (chi.ChiIndex, "add", "chi.add", lambda self, ids, H: {"n": len(ids)}),
    (datasource, "scan", "datasource.scan", None),
    (DataFrame, "toPandas", "spark.toPandas", None),
    (incremental.IncrementalSession, "filter", "incremental.filter", None),
    (incremental.IncrementalSession, "persist", "incremental.persist", None),
    (store.MaskStore, "metadata_pandas", "store.metadata", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    qid: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, spans: bool):
        self.spans_on = spans
        self.spans: list[Span] = []
        self.qid: str | None = None
        self.verify_calls = 0  # verification rounds of the current query
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.spans_on:
            yield
            return
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.qid, attrs))
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i].end = perf_counter()

    @contextmanager
    def query(self, qid: str):
        """Root span of one query (or one set-up) and its id."""
        self.qid, self.verify_calls = qid, 0
        try:
            with self.span("query"):
                yield
        finally:
            self.qid = None

    @contextmanager
    def paused(self):
        """No spans: for the untraced lane, and for the benchmark's own
        calls (bounds for the sequential scan, replay)."""
        on, self.spans_on = self.spans_on, False
        try:
            yield
        finally:
            self.spans_on = on

    def _wrap(self, owner, attr: str, name: str, attrs_fn, count: bool = False):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if count and len(_meta(a, kw)):
                self.verify_calls += 1
            if not self.spans_on:
                return fn(*a, **kw)
            with self.span(name, **(attrs_fn(*a, **kw) if attrs_fn else {})):
                return fn(*a, **kw)

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        for name in VERIFY:
            self._wrap(verify, name, f"verify.{name}", _n_meta, count=True)
        if self.spans_on:
            for owner, attr, name, attrs_fn in TRACED:
                self._wrap(owner, attr, name, attrs_fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reading the spans ------------------------------------------------
    def of(self, name: str, qids=None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (qids is None or s.qid in qids)]

    def self_time(self, i: int) -> float:
        """Duration of span ``i`` minus the time its children cover."""
        s = self.spans[i]
        kids = sorted((c.start, c.end) for c in self.spans if c.parent == i)
        covered, end = 0.0, s.start
        for a, b in kids:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        return s.dur - covered

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "qid": s.qid,
                **{k: v for k, v in s.attrs.items() if k != "ids"},
            }
            for s in self.spans
        ]
