"""Randomized query generators (paper §4.3).

Three query types with randomized parameters, matching the paper's
generation procedure:

- **Filter**: ``CP(mask, object_roi, (lv, uv)) > T`` with ``lv``/``uv``
  drawn from ``{0.1, ..., 0.9}`` (``uv > lv``; ``uv`` may also be 1.0
  so the value grid has the same 9-step granularity as the paper's) and
  ``T`` uniform over ``[0, total # pixels]``.
- **Top-K**: top-25 by ``CP(mask, roi, (lv, uv))`` with ``roi`` one
  random rectangle per query (constant across masks) and random
  ASC/DESC order.
- **Aggregation**: top-25 *images* by ``mean(CP)`` over the two models'
  masks, random ``roi``/range/order.

All draws are deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cp import OBJECT_ROI, CPTerm
from repro.core.executor import GT, FilterPredicate
from repro.masks.synth import DatasetSpec
from repro.workloads.queries import K

VALUE_GRID = [round(0.1 * i, 1) for i in range(1, 10)]  # 0.1 .. 0.9


@dataclass(frozen=True)
class RandomFilterQuery:
    lv: float
    uv: float
    threshold: int

    def predicate(self) -> FilterPredicate:
        return FilterPredicate(
            terms=(CPTerm(self.lv, self.uv, OBJECT_ROI),), op=GT, threshold=self.threshold
        )

    def run(self, ex, mask_ids=None, model_id=None):
        return ex.filter(self.predicate(), model_id=model_id, mask_ids=mask_ids)


@dataclass(frozen=True)
class RandomTopKQuery:
    roi: tuple[int, int, int, int]
    lv: float
    uv: float
    descending: bool

    def run(self, ex, mask_ids=None, model_id=None):
        return ex.topk(
            CPTerm(self.lv, self.uv, self.roi),
            k=K,
            descending=self.descending,
            model_id=model_id,
            mask_ids=mask_ids,
        )


@dataclass(frozen=True)
class RandomAggQuery:
    roi: tuple[int, int, int, int]
    lv: float
    uv: float
    descending: bool

    def run(self, ex, image_ids=None, model_ids=(1, 2)):
        return ex.agg_topk(
            CPTerm(self.lv, self.uv, self.roi),
            k=K,
            descending=self.descending,
            model_ids=model_ids,
            image_ids=image_ids,
        )


def _rand_range(g: np.random.Generator) -> tuple[float, float]:
    lv = float(g.choice(VALUE_GRID))
    uv_choices = [v for v in VALUE_GRID if v > lv] + [1.0]
    uv = float(g.choice(uv_choices))
    return lv, uv


def _rand_rect(g: np.random.Generator, w: int, h: int) -> tuple[int, int, int, int]:
    x1 = int(g.integers(0, w - 1))
    y1 = int(g.integers(0, h - 1))
    x2 = int(g.integers(x1 + 1, w + 1))
    y2 = int(g.integers(y1 + 1, h + 1))
    return (x1, y1, x2, y2)


def random_filter_queries(
    spec: DatasetSpec, n: int, seed: int = 0
) -> list[RandomFilterQuery]:
    g = np.random.default_rng([seed, 101])
    total = spec.width * spec.height
    out = []
    for _ in range(n):
        lv, uv = _rand_range(g)
        out.append(RandomFilterQuery(lv, uv, int(g.integers(0, total + 1))))
    return out


def random_topk_queries(spec: DatasetSpec, n: int, seed: int = 0) -> list[RandomTopKQuery]:
    g = np.random.default_rng([seed, 202])
    out = []
    for _ in range(n):
        lv, uv = _rand_range(g)
        out.append(
            RandomTopKQuery(_rand_rect(g, spec.width, spec.height), lv, uv, bool(g.integers(0, 2)))
        )
    return out


def random_agg_queries(spec: DatasetSpec, n: int, seed: int = 0) -> list[RandomAggQuery]:
    g = np.random.default_rng([seed, 303])
    out = []
    for _ in range(n):
        lv, uv = _rand_range(g)
        out.append(
            RandomAggQuery(_rand_rect(g, spec.width, spec.height), lv, uv, bool(g.integers(0, 2)))
        )
    return out
