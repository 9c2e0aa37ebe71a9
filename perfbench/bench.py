"""One benchmark run: set-up, reference answers, closed-loop passes and
the end-to-end or per-layer metrics of one workload."""
from __future__ import annotations

import glob
import json
import os
import resource
import statistics
import traceback
from contextlib import nullcontext
from time import perf_counter

import numpy as np
import pandas as pd
import pyarrow
import pyspark

from repro import harness
from repro.core import chi
from repro.core.executor import MaskSearchEngine
from repro.core.incremental import IncrementalSession
from repro.core.verify import IN_FILTER_MAX
from repro.maskstore.store import MaskStore

from perfbench import reference
from perfbench.replay import replay, summarize
from perfbench.tracing import Tracer
from perfbench.workloads import Workload

#: Set-ups per run. ``setup_s`` is their median: the first runs in a
#: cold JVM and is slower (about 17 s against 4.7 s on ImageNet-lite).
N_SETUPS = 3
#: Percentiles ``query_s.tail`` may report, highest first.
TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(lat: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    n = len(lat)
    for p in TAIL_PCTS:
        if n * (1 - p / 100) >= 10:
            return p, float(np.percentile(lat, p))
    return 100.0, float(max(lat))


def ensure_store(spark, dataset: str) -> tuple[str, float]:
    """Build the dataset's store under ``REPRO_DATA_DIR`` if needed and
    return its root and the time its build took (recorded at build)."""
    root = os.path.join(harness.DATA_DIR, dataset)
    record = root + ".build_s.json"
    if not os.path.exists(record):
        t0 = perf_counter()
        harness.get_store(spark, dataset)
        with open(record, "w") as f:
            json.dump({"build_s": perf_counter() - t0}, f)
    with open(record) as f:
        return root, json.load(f)["build_s"]


def spark_work(sc, group: str) -> tuple[list[int], int]:
    """Spark jobs of a job group and the tasks of their stages."""
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    tasks = 0
    for j in jobs:
        info = st.getJobInfo(j)
        for s in info.stageIds if info else ():
            stage = st.getStageInfo(s)
            tasks += stage.numTasks if stage else 0
    return jobs, tasks


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(path, "*.parquet")))


class Run:
    def __init__(self, spark, wl: Workload, seed: int, out_dir: str, tracer: Tracer):
        self.spark, self.wl, self.seed, self.out_dir, self.tracer = spark, wl, seed, out_dir, tracer
        self.spec, self.cfg = harness.DATASETS[wl.dataset]
        self.rows: list[dict] = []
        self.replays: list[dict] = []
        self.seq: list[tuple[int, int]] = []  # (loads, sequential loads) of top-k-class queries
        self.index_bytes_per_mask = 0.0

    # -- set-up ---------------------------------------------------------------
    def setup(self, root: str):
        """Existing store -> executor that answers queries (timed)."""
        st = MaskStore(root)
        if self.wl.incremental:
            ex = IncrementalSession(self.spark, st, self.cfg)
        else:
            index = chi.ChiIndex.load(self.spark, chi.build_index(self.spark, st, self.cfg), self.cfg)
            ex = MaskSearchEngine(self.spark, st, index)
            self.index_bytes_per_mask = dir_bytes(st.index_path(self.cfg)) / len(index)
        harness.warmup(self.spark, st)
        return ex

    # -- the closed loop ------------------------------------------------------
    def run_pass(self, ex, queries, expected, lanes: list[tuple[str, bool]]) -> list[float]:
        """One pass over ``queries`` per lane ``(label, traced)``.

        Lanes take turns query by query, in alternating order, so a
        traced and an untraced lane run equally warm; MS-II lanes each
        explore from an empty index and persist it at the end. Returns
        each lane's time spent in queries."""
        if self.wl.incremental:
            execs = [IncrementalSession(self.spark, ex.store, self.cfg) for _ in lanes]
        else:
            execs = [ex] * len(lanes)
        walls = [0.0] * len(lanes)
        for i, (q, exp) in enumerate(zip(queries, expected)):
            for j in range(len(lanes)) if i % 2 == 0 else reversed(range(len(lanes))):
                label, traced = lanes[j]
                with nullcontext() if traced else self.tracer.paused():
                    walls[j] += self.run_query(execs[j], q, exp, label, traced)
        for j, (label, traced) in enumerate(lanes if self.wl.incremental else ()):
            with nullcontext() if traced else self.tracer.paused():
                path = execs[j].persist(os.path.join(self.out_dir, f"msii_index_{label}"))
            self.index_bytes_per_mask = dir_bytes(path) / execs[j].n_indexed
        return walls

    def run_query(self, ex, q, exp, label: str, traced: bool) -> float:
        """Run, check and record one query; returns its latency."""
        sc = self.spark.sparkContext
        gid = f"{label}-{q.name}"
        sc.setJobGroup(gid, gid)
        error = None
        with self.tracer.query(gid):
            t0 = perf_counter()
            try:
                r = q.run(ex)
            except Exception:  # a failed query is counted, not fatal
                r, error = None, traceback.format_exc()
            lat = perf_counter() - t0
        ok = r is not None and reference.check(exp, r.pdf)
        jobs, tasks = spark_work(sc, gid)
        st = r.stats if r is not None else None
        nan = float("nan")
        self.rows.append(
            {
                "workload": self.wl.name,
                "seed": self.seed,
                "pass": label,
                "query": q.name,
                "class": exp.call.cls,
                "table1": q.table1,
                "latency_s": lat,
                "masks_loaded": st.masks_loaded if st else nan,
                "n_targeted": st.n_targeted if st else nan,
                "n_decided": (st.n_pruned + st.n_accepted) if st else nan,
                "verify_rounds": self.tracer.verify_calls,
                "jobs": len(jobs),
                "tasks": tasks,
                "correct": ok,
                "error": error,
            }
        )
        if traced and r is not None:
            with self.tracer.paused():
                self.trace_extras(ex, gid, exp, r)
        return lat

    def trace_extras(self, ex, gid: str, exp, r) -> None:
        """Outside the query's timing: replay its verified masks, and for
        top-k-class queries count the sequential §3.5 scan's loads."""
        spans = self.tracer.of("verify.exact_cp_pdf", {gid}) + self.tracer.of(
            "verify.exact_maskagg_pdf", {gid}
        ) + self.tracer.of("verify.exact_cp_and_chi", {gid})
        ids = np.unique(np.concatenate([s.attrs["ids"] for s in spans])) if spans else []
        call = exp.call
        meta = ex.store.metadata_pandas(self.spark)
        if len(ids):
            obj = {
                int(m): (a, b, c, d)
                for m, a, b, c, d in meta[meta["mask_id"].isin(ids)][
                    ["mask_id", "obj_x1", "obj_y1", "obj_x2", "obj_y2"]
                ].itertuples(index=False)
            }
            t_int = call.args["t"] if call.method == "maskagg_topk" else None
            self.replays.append(
                replay(ex.store.root, ids, reference.terms(call), obj, self.cfg, t_int)
            )
        if call.cls in ("topk", "agg") and not self.wl.incremental:
            self.seq.append((r.stats.masks_loaded, self.sequential(ex, exp)))

    def sequential(self, engine: MaskSearchEngine, exp) -> int:
        call = exp.call
        a = call.args
        meta = reference.targeted(engine.meta, call).reset_index(drop=True)
        term = reference.terms(call)[0]
        lo, hi = engine.bounds(meta, term)
        if call.method == "topk":
            keys, per = meta["mask_id"].to_numpy(), np.ones(len(meta), dtype=np.int64)
        else:
            x1, y1, x2, y2 = (meta[c].to_numpy() for c in ("obj_x1", "obj_y1", "obj_x2", "obj_y2"))
            if isinstance(term.roi, tuple):
                x1, y1, x2, y2 = (np.full(len(meta), v) for v in term.roi)
            elif term.roi is None:
                x1, y1, x2, y2 = 0, 0, self.spec.width, self.spec.height
            g = pd.DataFrame(
                {"image_id": meta["image_id"], "lo": lo, "hi": hi, "area": (x2 - x1) * (y2 - y1)}
            ).groupby("image_id", sort=True)
            if call.method == "agg_topk":
                agg = g.agg(lo=("lo", "mean"), hi=("hi", "mean"), n=("lo", "size"))
            else:  # mask aggregation: intersection bounds from per-mask bounds
                agg = g.agg(s=("lo", "sum"), hi=("hi", "min"), n=("lo", "size"), area=("area", "first"))
                agg["lo"] = np.maximum(agg["s"] - (agg["n"] - 1) * agg["area"], 0)
            keys, per = agg.index.to_numpy(), agg["n"].to_numpy()
            lo, hi = agg["lo"].to_numpy(), agg["hi"].to_numpy()
        return reference.sequential_loads(keys, lo, hi, exp.values, per, a["k"], a["descending"])


def execute(spark, wl: Workload, seed: int, seconds: float, trace: bool, out_dir: str, corrupt=None) -> dict:
    """Run one workload; returns the result object the CLI prints.

    ``corrupt`` (self-test only) rewrites the first query's result before
    it is checked."""
    os.makedirs(out_dir, exist_ok=True)
    phases = {"start": perf_counter()}
    root, build_s = ensure_store(spark, wl.dataset)
    phases["store"] = perf_counter()

    tracer = Tracer(spans=trace)
    tracer.install()
    run = Run(spark, wl, seed, out_dir, tracer)
    base_rows: list[dict] = []  # the untraced lane of a traced run
    try:
        setups = []
        for i in range(N_SETUPS):
            with tracer.query(f"setup{i}"):
                t0 = perf_counter()
                ex = run.setup(root)
                setups.append(perf_counter() - t0)
        # What holding the metadata and the in-memory CHI costs; later
        # phases are the benchmark's own (reference answers, replay) or,
        # for MS-II, grow with the seed's targets.
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases["setup"] = perf_counter()

        queries = wl.queries(ex.store.spec, seed)
        if corrupt is not None:
            queries = corrupt(queries)
        meta = pd.read_parquet(ex.store.metadata_path)
        expected = reference.compute(meta, run.spec.width, run.spec.height, [q.call() for q in queries])
        ex.store.io_delay_ms = wl.io_delay_ms
        phases["reference"] = perf_counter()

        if trace:
            walls = run.run_pass(ex, queries, expected, [("untraced", False), ("traced", True)])[1:]
            base_rows = [r for r in run.rows if r["pass"] == "untraced"]
            run.rows = [r for r in run.rows if r["pass"] == "traced"]
        else:
            walls, t_start = [], perf_counter()
            while True:
                walls += run.run_pass(ex, queries, expected, [(f"p{len(walls)}", False)])
                if perf_counter() - t_start + walls[-1] > seconds:
                    break
        ex.store.io_delay_ms = 0.0
        phases["passes"] = perf_counter()
    finally:
        tracer.uninstall()

    rows = pd.DataFrame(run.rows)  # traced lane only, when tracing
    checked = pd.DataFrame(base_rows + run.rows)
    checked.to_csv(os.path.join(out_dir, "queries.csv"), index=False)
    failed = int((~checked["correct"]).sum())
    pct, tail_v = tail(rows["latency_s"].tolist())
    # Latency and loads are taken over the Table-1 rows (Table 2's
    # queries) where the pass has them: at one seeded query per pass, that
    # query's cost (0.02-3 s, 0-2,400 loads) measures the seed, not the
    # program. Seeded queries are still checked and count in correct_rate.
    t1 = rows[rows["table1"]] if rows["table1"].any() else rows
    summary = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "runtime": {
            "nproc": os.cpu_count(),
            "master": spark.sparkContext.master,
            "spark": pyspark.__version__,
            "pyarrow": pyarrow.__version__,
        },
        "passes": len(walls),
        "queries": len(rows),
        "query_s.tail": tail_v,
        "query_s.tail_pct": pct,
        "masks_loaded_per_query": float(t1["masks_loaded"].mean()),
        "masks_loaded_per_query_all": float(rows["masks_loaded"].mean()),
        "error_rate": failed / len(checked),
        "driver_rss_mb.run_peak": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # wall seconds of each phase of the run, for budgeting run time
        "phase_s": {b: phases[b] - phases[a] for a, b in zip(list(phases), list(phases)[1:])},
    }
    if trace:
        metrics = per_layer(run, tracer, rows, pd.DataFrame(base_rows), setups, build_s)
        with open(os.path.join(out_dir, "spans.json"), "w") as f:
            json.dump(tracer.to_json(), f)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "query_s.p50": float(t1["latency_s"].median()),
            "queries_per_s": len(t1) / float(t1["latency_s"].sum()),
            "masks_loaded_frac": float(t1["masks_loaded"].sum() / t1["n_targeted"].sum()),
            "correct_rate": 1.0 - failed / len(checked),
            "index_bytes_per_mask": run.index_bytes_per_mask,
            "driver_rss_mb": setup_rss_mb,
        }
        summary.update({**class_p50(rows), "setup_s.all": setups})
    summary["metrics"] = metrics
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    return {"summary": summary, "attempted": len(checked), "failed": failed}


def class_p50(rows: pd.DataFrame) -> dict:
    """Median latency of the top-k and aggregation queries a pass runs."""
    return {
        f"{c}_s.p50": float(rows.loc[rows["class"] == c, "latency_s"].median())
        for c in ("topk", "agg")
        if (rows["class"] == c).any()
    }


def per_layer(run: Run, tr: Tracer, rows, base: pd.DataFrame, setups, build_s) -> dict:
    """Per-layer metrics of a traced run (``*_s`` are seconds per query
    unless named per call)."""
    n = len(rows)
    qids = {f"{r['pass']}-{r['query']}" for r in run.rows}
    tot = lambda name: sum(s.dur for s in tr.of(name, qids))  # noqa: E731
    setup_ids = {f"setup{i}" for i in range(len(setups))}
    med = lambda name: statistics.median([s.dur for s in tr.of(name, setup_ids)] or [0.0])  # noqa: E731
    verify = [  # calls that load masks, as in verify_rounds
        s
        for v in ("exact_cp_pdf", "exact_maskagg_pdf", "exact_cp_and_chi")
        for s in tr.of(f"verify.{v}", qids)
        if s.attrs["n"]
    ]
    v_time = sum(s.dur for s in verify)
    self_ids = [i for i, s in enumerate(tr.spans) if s.qid in qids and s.name in ("query", "incremental.filter")]
    chi_add = tr.of("chi.add", qids)
    cpcall = tr.of("verify.exact_cp_and_chi", qids)
    loads, seq = (sum(x) for x in zip(*run.seq)) if run.seq else (0, 0)
    out = {
        "executor.target_s": tot("executor.target") / n,
        "executor.bounds_s": tot("executor.bounds") / n,
        "executor.self_s": sum(tr.self_time(i) for i in self_ids) / n,
        "executor.verify_rounds_per_query": float(rows["verify_rounds"].mean()),
        "executor.decided_frac": float(rows["n_decided"].sum() / rows["n_targeted"].sum()),
        "executor.topk_loads_over_sequential": loads / seq if seq else 0.0,
        "chi.build_index_s": med("chi.build_index"),
        "chi.load_s": med("chi.load"),
        "chi.gather_s": tot("chi.gather") / n,
        "chi.add_s": tot("chi.add") / n,
        "chi.add_calls": len(chi_add) / n,
        "bounds.cp_bounds_batch_s": tot("bounds.cp_bounds_batch") / n,
        "bounds.masks_bounded": sum(s.attrs["n"] for s in tr.of("bounds.cp_bounds_batch", qids)) / n,
        "verify.calls": float(len(verify)),
        "verify.s_per_call": v_time / len(verify) if verify else 0.0,
        "verify.masks_per_call": sum(s.attrs["n"] for s in verify) / len(verify) if verify else 0.0,
        "verify.share": v_time / float(rows["latency_s"].sum()),
        "verify.large_set_calls": float(sum(s.attrs["n"] > IN_FILTER_MAX for s in verify)),
        "verify.exact_cp_and_chi_s": sum(s.dur for s in cpcall) / len(cpcall) if cpcall else 0.0,
        "datasource.scan_s": tot("datasource.scan") / n,
        "spark.jobs_per_query": float(rows["jobs"].mean()),
        "spark.tasks_per_query": float(rows["tasks"].mean()),
        "spark.collect_s": tot("spark.toPandas") / n,
        "incremental.filter_s": tot("incremental.filter") / n,
        "incremental.masks_indexed_per_query": sum(s.attrs["n"] for s in chi_add) / n,
        "incremental.persist_s": sum(s.dur for s in tr.of("incremental.persist")),
        "store.build_s": build_s,
        "store.metadata_s": med("store.metadata"),
        # Median of per-query differences: the lanes alternate which runs
        # a query first, and a query's first run is the slower one.
        "trace.overhead_s": float(np.median(rows["latency_s"].to_numpy() - base["latency_s"].to_numpy())),
        "topk_s.p50": 0.0,
        "agg_s.p50": 0.0,
        **class_p50(base),  # untraced, on the workloads that run the class
    }
    out.update(summarize(run.replays))
    return out
