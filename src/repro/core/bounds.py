"""CHI bound derivation (paper §3.1, Eq. 2; an extension of §3.2 Eqs. 3-4).

Given the CHI tensor of a mask, an arbitrary ROI and an arbitrary pixel
value range ``[lv, uv)``, compute a certified interval
``[theta_lower, theta_upper]`` around the exact
``CP(mask, roi, (lv, uv))`` without touching the mask itself.

"Outer" / "inner" value ranges snap ``[lv, uv)`` outward / inward to bin
boundaries: outer ``[floor(lv*b), ceil(uv*b))`` is a superset, inner
``[ceil(lv*b), floor(uv*b))`` a subset of the queried range. Eq. (2)
on one grid cell ``c`` gives ``Co``, its count of pixels whose bin is in
the outer range (possibly in ``[lv, uv)``), and ``Ci``, its count in the
inner range (certainly in it). With ``a = |c ∩ roi|``, at most
``min(Co, a)`` and at least ``Ci - (|c| - a)`` of the cell's counted
pixels lie in the ROI, so

    ub = sum_c min(Co, a)        lb = sum_c max(0, Ci - (|c| - a)).

The paper bounds from two *available regions* instead (Def. 3.1): the
smallest one covering the ROI and the largest one it covers. Cell by
cell those bounds add ``Co`` (or ``a``) and ``Ci`` (or 0) where these
take ``min`` and ``max``, so ``ub <= min(theta_bar_1, theta_bar_2, |roi|)``
and ``lb >= max(theta_lower_1, theta_lower_2, 0)``: Eqs. 3-4 and their
symmetric lower bounds are never tighter (DESIGN.md §4).

Everything is vectorised across masks: ``H`` has shape
``(N, ny + 1, nx + 1, b)`` and ``rois`` shape ``(N, 4)``, producing
``(N,)`` bound vectors from at most four bin planes of ``H`` — this is
the driver-side filter stage the paper runs over its in-memory index
(:meth:`repro.core.executor.MaskSearchEngine.bounds`).
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.chi import ChiConfig


def value_bin_bounds(lv: float, uv: float, b: int) -> tuple[int, int, int, int]:
    """Outer (superset) and inner (subset) bin-boundary indices for
    ``[lv, uv)``: ``(klo_out, khi_out, klo_in, khi_in)``, all in [0, b].

    Outer snaps outward (``floor``/``ceil``), inner snaps inward
    (``ceil``/``floor``); when ``lv``/``uv`` land exactly on boundaries
    both coincide, which is what makes aligned queries bound-exact.
    Soundness holds under IEEE monotonicity of ``v * b`` up to the
    measure-zero case of two distinct floats sharing a product exactly on
    a boundary (documented in DESIGN.md; unreachable for our data).
    """
    klo_out = int(np.clip(math.floor(lv * b), 0, b))
    khi_out = b if uv >= 1.0 else int(np.clip(math.ceil(uv * b), 0, b))
    klo_in = int(np.clip(math.ceil(lv * b), 0, b))
    khi_in = b if uv >= 1.0 else int(np.clip(math.floor(uv * b), 0, b))
    return klo_out, khi_out, klo_in, khi_in


def _overlap(lo: np.ndarray, hi: np.ndarray, n: int, size: int) -> np.ndarray:
    """``(N, n)``: length of ``[lo, hi)`` inside each of ``n`` cells of
    ``size`` pixels along one axis."""
    edges = np.arange(n + 1) * size
    inside = np.minimum(hi[:, None], edges[1:]) - np.maximum(lo[:, None], edges[:-1])
    return np.maximum(inside, 0)


def cp_bounds_batch(
    H: np.ndarray,
    rois: np.ndarray,
    lv: float,
    uv: float,
    cfg: ChiConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Certified ``(lower, upper)`` bound vectors on
    ``CP(mask_m, rois[m], (lv, uv))`` for every mask ``m``.

    ``H``: ``(N, ny + 1, nx + 1, b)`` CHI tensor; ``rois``: ``(N, 4)``
    half-open int boxes ``(x1, y1, x2, y2)``.
    """
    if H.ndim != 4:
        raise ValueError(f"H must be 4-D, got shape {H.shape}")
    rois = np.asarray(rois, dtype=np.int64)
    if rois.ndim != 2 or rois.shape[1] != 4:
        raise ValueError("rois must have shape (N, 4)")
    wc, hc, b = cfg.wc, cfg.hc, cfg.b
    if H.shape[3] != b:
        raise ValueError(f"H has {H.shape[3]} bins, config says {b}")
    klo_out, khi_out, klo_in, khi_in = value_bin_bounds(lv, uv, b)

    def cells(klo: int, khi: int):
        # Per-cell count of pixels with bin in [klo, khi); none for an
        # empty or reversed range. The corner plane is formed first, as
        # one contiguous array: Eq. (2) on strided views of H reads
        # each count four times and costs twice as much.
        if klo >= khi:
            return 0
        P = H[..., klo] - (H[..., khi] if khi < b else 0)
        return P[:, 1:, 1:] - P[:, :-1, 1:] - P[:, 1:, :-1] + P[:, :-1, :-1]

    ny, nx = H.shape[1] - 1, H.shape[2] - 1
    x1, y1, x2, y2 = rois.T
    a = _overlap(y1, y2, ny, hc)[:, :, None] * _overlap(x1, x2, nx, wc)[:, None, :]
    ub = np.minimum(cells(klo_out, khi_out), a).sum(axis=(1, 2))
    lb = np.maximum(cells(klo_in, khi_in) - (wc * hc - a), 0).sum(axis=(1, 2))
    return lb, ub
