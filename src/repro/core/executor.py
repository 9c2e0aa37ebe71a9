"""Filter-verification query execution framework (paper §3.2-§3.5).

The engine executes the paper's query classes over a
:class:`~repro.maskstore.store.MaskStore` + :class:`~repro.core.chi.ChiIndex`:

- **filter** (§3.2, §3.3): ``F(CP_1, ..., CP_n) op T`` where ``F`` is a
  monotone linear combination. The *filter stage* computes certified
  bounds per mask from CHI alone, prunes guaranteed-fail masks, accepts
  guaranteed-pass masks; the *verification stage* loads only the
  remaining candidates (through the ``maskstore`` DataSourceV2, which
  prunes file reads to the candidate ids and evaluates the exact
  predicate's CP terms inside its reader).
- **top-k** (§3.5): the paper's sequential running-threshold scan is
  replaced by the distributed two-phase equivalent (DESIGN.md §4):
  ``tau`` = k-th best *lower* bound (DESC) / *upper* bound (ASC); every
  mask whose bound interval can beat ``tau`` is verified.
- **scalar aggregation** (§3.4, Q4): per-group (image) bounds are the
  monotone aggregate (mean) of per-mask bounds; two-phase top-k over
  groups.
- **mask aggregation** (§3.4, Q5): ``CP(INTERSECT(m_i >= t), roi,
  (t, 1))`` bounded from the *individual* mask CHIs:
  ``ub = min_i ub_i`` and ``lb = max(0, sum_i lb_i - (n-1)|roi|)``.
- **ratio top-k** (§2 Example 1 / §3.3): ``CP_a / CP_b`` with sound
  interval division.

The index may be full (MS), partial or empty (MS-II, §3.6): a mask with
no CHI entry gets the vacuous interval ``(-inf, +inf)``, so the filter
stage always sends it to verification, and the verification scan builds
its CHI and adds it to the index.

Every result records :class:`QueryStats` whose ``masks_loaded`` is the
paper's Table 2 metric: the number of masks read from disk during
execution, counted from the verification scans' output (one row per
opened mask; Q5 rows carry the masks opened per image).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import verify
from repro.core.bounds import cp_bounds_batch
from repro.core.chi import ChiIndex, row_shape
from repro.core.cp import CPTerm
from repro.maskstore import datasource
from repro.maskstore.store import MaskStore

GT, LT = ">", "<"


@dataclass
class QueryStats:
    """Execution accounting (Table 2's ``masks loaded`` and the filter
    stage's three-way split, §3.2.1 Step 2)."""

    n_targeted: int = 0
    n_pruned: int = 0
    n_accepted: int = 0
    n_verified: int = 0
    masks_loaded: int = 0

    @property
    def fml(self) -> float:
        """Fraction of masks loaded (§4.4)."""
        return self.masks_loaded / self.n_targeted if self.n_targeted else 0.0


@dataclass
class QueryResult:
    """Result rows (pandas; small by construction) plus stats."""

    pdf: pd.DataFrame
    stats: QueryStats

    def ids(self, col: str = "mask_id") -> list[int]:
        return sorted(int(v) for v in self.pdf[col])


@dataclass(frozen=True)
class FilterPredicate:
    """``sum_i coef_i * CP_i op T`` — monotone combination (§3.3)."""

    terms: tuple[CPTerm, ...]
    op: str = GT
    threshold: float = 0.0
    coefs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.op not in (GT, LT):
            raise ValueError(f"op must be '>' or '<', got {self.op!r}")
        if self.coefs is not None and len(self.coefs) != len(self.terms):
            raise ValueError("coefs length must match terms")

    @property
    def coefficients(self) -> tuple[float, ...]:
        return self.coefs or tuple(1.0 for _ in self.terms)


class MaskSearchEngine:
    """MaskSearch over one store + one in-memory CHI (paper's "session")."""

    def __init__(self, spark: SparkSession, store: MaskStore, index: ChiIndex):
        self.spark = spark
        self.store = store
        self.index = index
        datasource.register(spark)
        self.meta = store.metadata_pandas(spark)
        self.w = store.spec.width
        self.h = store.spec.height
        # Bounds from CHIs of another mask size are unsound.
        if index.row_shape not in (None, row_shape(index.cfg, self.w, self.h)):
            raise ValueError(f"{index.row_shape} CHIs do not fit {self.w}x{self.h} masks")

    # ------------------------------------------------------------------
    # targeting & bounds (filter stage — index only, no mask I/O)
    # ------------------------------------------------------------------
    def target(
        self,
        model_id: int | None = None,
        mask_ids=None,
        image_ids=None,
        model_ids: tuple[int, ...] | None = None,
    ) -> pd.DataFrame:
        """Metadata rows targeted by a query's relational predicates."""
        m = self.meta
        if model_id is not None:
            m = m[m["model_id"] == model_id]
        if model_ids is not None:
            m = m[m["model_id"].isin(model_ids)]
        if mask_ids is not None:
            m = m[m["mask_id"].isin(set(int(v) for v in mask_ids))]
        if image_ids is not None:
            m = m[m["image_id"].isin(set(int(v) for v in image_ids))]
        return m.reset_index(drop=True)

    def bounds(
        self, meta: pd.DataFrame, term: CPTerm
    ) -> tuple[np.ndarray, np.ndarray]:
        """Certified (lb, ub) on ``CP(term)`` for each mask in ``meta``;
        ``(-inf, +inf)`` for a mask not in the index.

        Not ``[0, |roi|]``: a threshold above ``|roi|`` would then decide
        a first-touch mask without loading, and so without indexing, it
        (§3.6)."""
        ids = meta["mask_id"].to_numpy(np.int64)
        have = self.index.has(ids)
        rois = term.rois(meta, self.w, self.h)
        lb = np.full(len(ids), -np.inf)
        ub = np.full(len(ids), np.inf)
        if have.any():
            lb[have], ub[have] = cp_bounds_batch(
                self.index.gather(ids[have]), rois[have], term.lv, term.uv, self.index.cfg
            )
        return lb, ub

    def _combined_bounds(
        self, meta: pd.DataFrame, pred: FilterPredicate
    ) -> tuple[np.ndarray, np.ndarray]:
        lo = np.zeros(len(meta))
        hi = np.zeros(len(meta))
        for c, term in zip(pred.coefficients, pred.terms):
            lb, ub = self.bounds(meta, term)
            if c >= 0:
                lo, hi = lo + c * lb, hi + c * ub
            else:  # negative coefficient flips the interval (monotone §3.3)
                lo, hi = lo + c * ub, hi + c * lb
        return lo, hi

    # ------------------------------------------------------------------
    # verification stage (mask I/O through the DataSourceV2)
    # ------------------------------------------------------------------
    def exact_cp(
        self, meta: pd.DataFrame, terms: tuple[CPTerm, ...]
    ) -> pd.DataFrame:
        """Load the masks in ``meta`` from disk (the store scan opens
        only their files) and compute exact CP for every term. The same
        scan builds the CHI of the loaded masks the index lacks, which
        are then added to it (§3.6).
        Returns ``mask_id, image_id, cp_0..cp_{n-1}``.
        """
        ids = meta["mask_id"].to_numpy(np.int64)
        pdf, new_ids, new_H = verify.exact_cp_and_chi(
            self.spark, self.store, meta, terms, self.index.cfg, chi_ids=ids[~self.index.has(ids)]
        )
        self.index.add(new_ids, new_H)
        return pdf

    # ------------------------------------------------------------------
    # query classes
    # ------------------------------------------------------------------
    def filter(
        self,
        pred: FilterPredicate,
        model_id: int | None = None,
        mask_ids=None,
    ) -> QueryResult:
        """Mask selection ``F(CP...) op T`` → mask_ids satisfying it."""
        meta = self.target(model_id=model_id, mask_ids=mask_ids)
        lo, hi = self._combined_bounds(meta, pred)
        T = pred.threshold
        if pred.op == GT:
            accept = lo > T
            prune = hi <= T
        else:
            accept = hi < T
            prune = lo >= T
        to_verify = ~(accept | prune)

        exact = self.exact_cp(meta[to_verify], pred.terms)
        stats = QueryStats(
            n_targeted=len(meta),
            n_pruned=int(prune.sum()),
            n_accepted=int(accept.sum()),
            n_verified=int(to_verify.sum()),
            masks_loaded=len(exact),
        )
        val = np.zeros(len(exact))
        for c, col in zip(pred.coefficients, (f"cp_{i}" for i in range(len(pred.terms)))):
            val = val + c * exact[col].to_numpy()
        passed = exact[(val > T) if pred.op == GT else (val < T)]
        result = pd.DataFrame(
            {
                "mask_id": np.concatenate(
                    [
                        meta.loc[accept, "mask_id"].to_numpy(np.int64),
                        passed["mask_id"].to_numpy(np.int64),
                    ]
                )
            }
        ).sort_values("mask_id").reset_index(drop=True)
        return QueryResult(result, stats)

    def _rank(
        self,
        meta: pd.DataFrame,
        key: str,
        ent: pd.DataFrame,
        k: int,
        descending: bool,
        exact,
    ) -> QueryResult:
        """Top-k entities of ``meta`` by exact value: batched threshold
        refinement (paper §3.5, distributed).

        ``ent`` is indexed by ``key`` (``mask_id`` or ``image_id``) and
        holds each entity's certified bounds ``lo``/``hi`` and ``n``, the
        number of its masks in ``meta``. ``exact(sub_meta)`` runs one
        verification job over the targeted rows of some entities and
        returns ``(key, val rows, masks the scan opened)``; the rows may
        omit entities that are excluded from the ranking (e.g. a zero
        denominator), the count may not.

        The paper processes masks sequentially, pruning each whose upper
        bound cannot beat the running k-th-best exact value. The
        distributed equivalent verifies *batches* of the highest-upper-
        bound entities, tightening the running threshold ``tau`` =
        max(k-th best lower bound, k-th best verified exact) after each
        round, until no unverified entity's interval can reach ``tau``.
        Ties are handled soundly (``hi >= tau`` stays a candidate) and
        broken by key ascending, matching the oracle's ORDER BY.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        sign = 1.0 if descending else -1.0
        keys = ent.index.to_numpy(np.int64)
        LO = sign * ent["lo" if descending else "hi"].to_numpy(np.float64)
        HI = sign * ent["hi" if descending else "lo"].to_numpy(np.float64)
        per = ent["n"].to_numpy(np.int64)
        n = len(keys)
        unverified = np.ones(n, dtype=bool)
        tau = float(np.partition(LO, n - k)[n - k]) if n > k else -np.inf
        # First round verifies just enough to establish a running
        # threshold; later rounds grow geometrically to bound the number
        # of Spark jobs. This mirrors the paper's sequential scan whose
        # threshold tightens as exact values accumulate.
        batch = max(2 * k, 32)
        found: list[pd.DataFrame] = []
        vals = np.empty(0)  # signed exact values verified so far
        decided = loaded = 0
        while True:
            cand = unverified & (HI >= tau)
            if not cand.any():
                break
            idx = np.where(cand)[0]
            take = idx[np.argsort(-HI[idx], kind="stable")[:batch]]
            batch = min(batch * 4, 2048)  # geometric growth bounds #rounds
            pdf, n_loaded = exact(meta[meta[key].isin(keys[take])])
            decided += int(per[take].sum())
            loaded += n_loaded
            unverified[take] = False
            found.append(pdf)
            vals = np.concatenate([vals, sign * pdf["val"].to_numpy(np.float64)])
            if len(vals) >= k:
                tau = max(tau, float(np.sort(vals)[-k]))
        res = pd.concat(found) if found else exact(meta.iloc[:0])[0]
        res = res.sort_values(["val", key], ascending=[not descending, True]).head(k)
        stats = QueryStats(
            n_targeted=len(meta),
            n_pruned=len(meta) - decided,
            n_verified=decided,
            masks_loaded=loaded,
        )
        return QueryResult(res.reset_index(drop=True), stats)

    def topk(
        self,
        term: CPTerm,
        k: int,
        descending: bool = True,
        model_id: int | None = None,
        mask_ids=None,
    ) -> QueryResult:
        """Top-k masks by ``CP(term)`` (§3.5); ties break on mask_id asc."""
        meta = self.target(model_id=model_id, mask_ids=mask_ids)
        lo, hi = self.bounds(meta, term)
        ent = pd.DataFrame({"lo": lo, "hi": hi, "n": 1}, index=meta["mask_id"])

        def _exact(sub: pd.DataFrame) -> tuple[pd.DataFrame, int]:
            pdf = self.exact_cp(sub, (term,))
            return pdf.rename(columns={"cp_0": "val"})[["mask_id", "val"]], len(pdf)

        return self._rank(meta, "mask_id", ent, k, descending, _exact)

    def topk_ratio(
        self,
        num: CPTerm,
        den: CPTerm,
        k: int,
        descending: bool = False,
        model_id: int | None = None,
        mask_ids=None,
    ) -> QueryResult:
        """Top-k by ``CP(num)/CP(den)`` (Example 1, §2.1); masks with an
        exact zero denominator are excluded from the ranking."""
        meta = self.target(model_id=model_id, mask_ids=mask_ids)
        nlo, nhi = self.bounds(meta, num)
        dlo, dhi = self.bounds(meta, den)
        # Interval division with non-negative counts: masks whose
        # denominator is certainly 0 (dhi == 0) are excluded up front;
        # a 0 lower denominator bound makes the ratio upper bound +inf
        # (the mask can never be pruned before verification). The
        # refinement loop's tau comes only from verified exacts and
        # certainly-valid lower bounds, so it is sound even when some
        # denominators turn out to be zero (DESIGN.md §4).
        with np.errstate(divide="ignore", invalid="ignore"):
            rlo = np.where((dhi > 0) & (dlo > 0), nlo / np.maximum(dhi, 1), 0.0)
            rhi = np.where(dlo > 0, nhi / np.maximum(dlo, 1), np.inf)
        # Masks that might be invalid (dlo == 0) contribute a vacuous
        # lower bound so they never inflate tau's initial estimate.
        rlo = np.where(dlo > 0, rlo, -np.inf if descending else 0.0)
        ent = pd.DataFrame({"lo": rlo, "hi": rhi, "n": 1}, index=meta["mask_id"])[dhi > 0]

        def _exact(sub: pd.DataFrame) -> tuple[pd.DataFrame, int]:
            pdf = self.exact_cp(sub, (num, den))
            ok = pdf.query("cp_1 > 0")
            return ok.assign(val=ok["cp_0"] / ok["cp_1"])[["mask_id", "val"]], len(pdf)

        return self._rank(meta, "mask_id", ent, k, descending, _exact)

    def agg_topk(
        self,
        term: CPTerm,
        k: int,
        descending: bool = True,
        model_ids: tuple[int, ...] | None = None,
        image_ids=None,
    ) -> QueryResult:
        """Q4-style: top-k images by ``mean(CP)`` over each image's masks
        (SCALAR_AGG of §3.4); ties break on image_id asc."""
        meta = self.target(model_ids=model_ids, image_ids=image_ids)
        lo, hi = self.bounds(meta, term)
        ent = (
            pd.DataFrame({"image_id": meta["image_id"], "lo": lo, "hi": hi})
            .groupby("image_id", sort=True)
            .agg(lo=("lo", "mean"), hi=("hi", "mean"), n=("lo", "size"))
        )

        def _exact(sub: pd.DataFrame) -> tuple[pd.DataFrame, int]:
            pdf = self.exact_cp(sub, (term,))
            agg = pdf.groupby("image_id", sort=True)["cp_0"].mean().rename("val").reset_index()
            return agg, len(pdf)

        return self._rank(meta, "image_id", ent, k, descending, _exact)

    def maskagg_topk(
        self,
        t: float,
        roi: object,
        k: int,
        descending: bool = True,
        model_ids: tuple[int, ...] | None = None,
        image_ids=None,
    ) -> QueryResult:
        """Q5-style: top-k images by
        ``CP(INTERSECT(masks >= t), roi, (t, 1.0))`` (MASK_AGG of §3.4).

        Bounds come from the *individual* mask CHIs: the intersection
        count is at most each mask's count and at least
        ``sum_i lb_i - (n-1)|roi|``.
        """
        term = CPTerm(lv=t, uv=1.0, roi=roi)
        meta = self.target(model_ids=model_ids, image_ids=image_ids)
        lo, hi = self.bounds(meta, term)
        r = term.rois(meta, self.w, self.h)
        ent = (
            pd.DataFrame(
                {
                    "image_id": meta["image_id"],
                    "lo": lo,
                    "hi": hi,
                    "area": (r[:, 2] - r[:, 0]) * (r[:, 3] - r[:, 1]),
                }
            )
            .groupby("image_id", sort=True)
            .agg(lo=("lo", "sum"), hi=("hi", "min"), n=("lo", "size"), area=("area", "first"))
        )
        ent["lo"] = np.maximum(ent["lo"] - (ent["n"] - 1) * ent["area"], 0)

        def _exact(sub: pd.DataFrame) -> tuple[pd.DataFrame, int]:
            pdf = verify.exact_maskagg_pdf(self.spark, self.store, sub, t, term)
            return pdf[["image_id", "val"]], int(pdf["n"].sum())

        return self._rank(meta, "image_id", ent, k, descending, _exact)
