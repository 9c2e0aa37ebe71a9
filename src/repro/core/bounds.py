"""CHI bound derivation (paper §3.1 Def. 3.1, Eq. 2 and §3.2 Eqs. 3-4).

Given the CHI tensor of a mask, an arbitrary ROI and an arbitrary pixel
value range ``[lv, uv)``, compute a certified interval
``[theta_lower, theta_upper]`` around the exact
``CP(mask, roi, (lv, uv))`` without touching the mask itself.

Upper bounds (paper):
  * ``ub1`` (Eq. 3): exact outer-range count over ``roi_bar``, the
    smallest *available region* covering the ROI.
  * ``ub2`` (Eq. 4): outer-range count over ``roi_under``, the largest
    available region covered by the ROI, plus the uncovered area
    ``|roi| - |roi_under|``.

Lower bounds (symmetric; the paper omits the derivation for space):
  * ``lb1``: inner-range count over ``roi_under`` — pixels certainly in
    the ROI with values certainly inside ``[lv, uv)``.
  * ``lb2``: inner-range count over ``roi_bar`` minus the area outside
    the ROI, ``|roi_bar| - |roi|``, clipped at 0.

"Outer" / "inner" value ranges snap ``[lv, uv)`` outward / inward to bin
boundaries: outer ``[floor(lv*b), ceil(uv*b))`` is a superset, inner
``[ceil(lv*b), floor(uv*b))`` a subset of the queried range.

Everything is vectorised across masks: ``H`` has shape
``(N, ny + 1, nx + 1, b)`` and ``rois`` shape ``(N, 4)``, producing
``(N,)`` bound vectors in a handful of NumPy gathers — this is the
driver-side filter stage the paper runs over its in-memory index
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


def _region_counts(
    H: np.ndarray,
    j1: np.ndarray,
    i1: np.ndarray,
    j2: np.ndarray,
    i2: np.ndarray,
    klo: int,
    khi: int,
) -> np.ndarray:
    """Vectorised Eq. (2) + range subtraction: for each mask ``m``, the
    count of pixels in cell-corner region ``cols [j1, j2) x rows [i1, i2)``
    (corner indices) with bin in ``[klo, khi)``. ``C[..., b] == 0`` by
    convention, handled by clamping: counts with bin >= b are zero.
    """
    n = H.shape[0]
    b = H.shape[3]
    rows = np.arange(n)

    def corner(i: np.ndarray, j: np.ndarray, k: int) -> np.ndarray:
        if k >= b:
            return np.zeros(n, dtype=np.int64)
        return H[rows, i, j, k]

    def crange(k: int) -> np.ndarray:
        # C(region)[k] via the 4-corner inclusion-exclusion of Eq. (2).
        return (
            corner(i2, j2, k)
            - corner(i1, j2, k)
            - corner(i2, j1, k)
            + corner(i1, j1, k)
        )

    if klo >= khi:
        return np.zeros(n, dtype=np.int64)
    return crange(klo) - crange(khi)


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

    x1, y1, x2, y2 = rois[:, 0], rois[:, 1], rois[:, 2], rois[:, 3]
    area = (x2 - x1) * (y2 - y1)

    # Smallest covering available region (corner indices into H).
    oj1, oi1 = x1 // wc, y1 // hc
    oj2, oi2 = -(-x2 // wc), -(-y2 // hc)
    area_outer = (oj2 - oj1) * wc * (oi2 - oi1) * hc

    # Largest covered available region; may be empty.
    uj1, ui1 = -(-x1 // wc), -(-y1 // hc)
    uj2, ui2 = x2 // wc, y2 // hc
    inner_ok = (uj1 < uj2) & (ui1 < ui2)
    # Collapse empty inner regions to a degenerate zero-count region.
    uj2c = np.where(inner_ok, uj2, uj1)
    ui2c = np.where(inner_ok, ui2, ui1)
    area_inner = np.where(inner_ok, (uj2 - uj1) * wc * (ui2 - ui1) * hc, 0)

    out_outer = _region_counts(H, oj1, oi1, oj2, oi2, klo_out, khi_out)
    out_inner = _region_counts(H, uj1, ui1, uj2c, ui2c, klo_out, khi_out)
    in_outer = _region_counts(H, oj1, oi1, oj2, oi2, klo_in, khi_in)
    in_inner = _region_counts(H, uj1, ui1, uj2c, ui2c, klo_in, khi_in)

    ub1 = out_outer  # Eq. (3)
    ub2 = out_inner + area - area_inner  # Eq. (4)
    ub = np.minimum(np.minimum(ub1, ub2), area)

    lb1 = in_inner
    lb2 = in_outer - (area_outer - area)
    lb = np.maximum(np.maximum(lb1, lb2), 0)
    return lb.astype(np.int64), ub.astype(np.int64)

