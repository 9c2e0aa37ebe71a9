"""Independent reference answers, computed on the driver from the
``.npy`` files with :func:`repro.core.cp.cp` and
:func:`repro.core.cp.intersect_threshold` only: no Spark, no CHI and no
engine code. Top-k ties break by key ascending, as in the oracle.

The same per-entity exact values also give the load count of the
paper's sequential §3.5 top-k scan (:func:`sequential_loads`).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.cp import CPTerm, cp, intersect_threshold

from perfbench.workloads import Call

GT = ">"


@dataclass
class Expected:
    """Reference answer of one call plus the exact value of every
    targeted entity (mask for filter/top-k, image for aggregations)."""

    call: Call
    values: dict  # entity key -> exact value
    answer: list  # sorted ids (filter) or ranked (key, value) pairs


def targeted(meta: pd.DataFrame, call: Call) -> pd.DataFrame:
    """Metadata rows a call targets (its relational predicates)."""
    a = call.args
    m = meta
    if call.method in ("filter", "topk"):
        if a["model_id"] is not None:
            m = m[m["model_id"] == a["model_id"]]
        if a["mask_ids"] is not None:
            m = m[m["mask_id"].isin(set(int(v) for v in a["mask_ids"]))]
    else:
        if a["model_ids"] is not None:
            m = m[m["model_id"].isin(a["model_ids"])]
        if a["image_ids"] is not None:
            m = m[m["image_id"].isin(set(int(v) for v in a["image_ids"]))]
    return m


def terms(call: Call) -> tuple[CPTerm, ...]:
    a = call.args
    if call.method == "filter":
        return tuple(a["pred"].terms)
    if call.method == "maskagg_topk":
        return (CPTerm(a["t"], 1.0, a["roi"]),)
    return (a["term"],)


def _ranked(values: dict, k: int, descending: bool) -> list:
    sign = -1 if descending else 1
    return sorted(values.items(), key=lambda kv: (sign * kv[1], kv[0]))[:k]


def compute(meta: pd.DataFrame, w: int, h: int, calls: list[Call], load=np.load) -> list[Expected]:
    """Reference answers for ``calls`` in one pass over the store: each
    image's targeted masks are loaded once and evaluated for every call."""
    meta = meta.sort_values("mask_id")
    per_call = [(c, set(targeted(meta, c)["mask_id"].astype(int)), terms(c)) for c in calls]
    wanted = set().union(*(ids for _, ids, _ in per_call))
    by_image: dict[int, list] = {}
    for mid, img, path, *box in zip(
        *(meta[c].tolist() for c in ("mask_id", "image_id", "path", "obj_x1", "obj_y1", "obj_x2", "obj_y2"))
    ):
        if mid in wanted:
            by_image.setdefault(img, []).append((mid, path, tuple(box)))
    values: list[dict] = [{} for _ in calls]
    for image_id, need in sorted(by_image.items()):
        masks = {mid: load(path) for mid, path, _ in need}
        obj = {mid: box for mid, _, box in need}
        for (c, ids, c_terms), vals in zip(per_call, values):
            mine = [mid for mid in masks if mid in ids]
            if not mine:
                continue
            if c.method == "maskagg_topk":
                (term,) = c_terms
                agg = intersect_threshold([masks[m] for m in mine], c.args["t"])
                roi = term.resolve_roi(w, h, obj[mine[0]])
                vals[image_id] = cp(agg, roi, term.lv, term.uv)
                continue
            cps = {
                m: [cp(masks[m], t.resolve_roi(w, h, obj[m]), t.lv, t.uv) for t in c_terms]
                for m in mine
            }
            if c.method == "filter":
                coefs = c.args["pred"].coefficients
                for m, v in cps.items():
                    vals[m] = sum(cf * x for cf, x in zip(coefs, v))
            elif c.method == "topk":
                for m, v in cps.items():
                    vals[m] = v[0]
            else:  # agg_topk: mean over the image's targeted masks
                vals[image_id] = float(np.mean([v[0] for v in cps.values()]))
    out = []
    for c, vals in zip(calls, values):
        a = c.args
        if c.method == "filter":
            T, gt = a["pred"].threshold, a["pred"].op == GT
            answer = sorted(m for m, v in vals.items() if (v > T if gt else v < T))
        else:
            answer = _ranked(vals, a["k"], a["descending"])
        out.append(Expected(c, vals, answer))
    return out


def check(exp: Expected, pdf: pd.DataFrame) -> bool:
    """True when an engine result equals the reference answer."""
    if exp.call.method == "filter":
        return sorted(int(v) for v in pdf["mask_id"]) == exp.answer
    key = "mask_id" if exp.call.method == "topk" else "image_id"
    got = list(zip((int(v) for v in pdf[key]), (float(v) for v in pdf["val"])))
    return len(got) == len(exp.answer) and all(
        gk == ek and math.isclose(gv, ev, rel_tol=1e-9, abs_tol=1e-9)
        for (gk, gv), (ek, ev) in zip(got, exp.answer)
    )


def sequential_loads(
    keys: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    exact: dict,
    loads_per_key: np.ndarray,
    k: int,
    descending: bool,
) -> int:
    """Masks loaded by the paper's sequential §3.5 top-k scan: entities in
    decreasing upper-bound order, each loaded until the next one's upper
    bound falls below the running threshold (the k-th best of the lower
    bounds and of the exact values seen so far). This is the least
    number of loads any scan over the same bounds can make."""
    sign = 1.0 if descending else -1.0
    LO, HI = (lo, hi) if descending else (-hi, -lo)
    LO, HI = np.asarray(LO, dtype=np.float64), np.asarray(HI, dtype=np.float64)
    n = len(keys)
    tau = float(np.partition(LO, n - k)[n - k]) if n > k else -np.inf
    best: list[float] = []  # min-heap of the k best exact values seen
    loaded = 0
    for i in sorted(range(n), key=lambda i: (-HI[i], int(keys[i]))):
        if HI[i] < tau:
            break
        loaded += int(loads_per_key[i])
        heapq.heappush(best, sign * exact[int(keys[i])])
        if len(best) > k:
            heapq.heappop(best)
        if len(best) == k:
            tau = max(tau, best[0])
    return loaded
