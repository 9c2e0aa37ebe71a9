"""CHI bound tests: the per-cell bounds against the paper's Figure 6
worked example and a pixel-level reference for §3.2 Eqs. 3-4 (and their
symmetric lower bounds), plus exhaustive soundness grids and hypothesis
fuzzing."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import cp_bounds_batch, value_bin_bounds
from repro.core.chi import ChiConfig, build_chi_array
from repro.core.cp import cp
from tests.test_chi import FIG4, FIG4_CFG


def cp_bounds_single(
    H: np.ndarray, roi: tuple[int, int, int, int], lv: float, uv: float, cfg: ChiConfig
) -> tuple[int, int]:
    """Scalar convenience wrapper around :func:`cp_bounds_batch`."""
    lb, ub = cp_bounds_batch(H[None], np.asarray([roi]), lv, uv, cfg)
    return int(lb[0]), int(ub[0])


def eqs_3_4(
    mask: np.ndarray, roi: tuple[int, int, int, int], lv: float, uv: float, cfg: ChiConfig
) -> tuple[int, int, int, int]:
    """The paper's available-region bounds ``(ub1, ub2, lb1, lb2)``,
    counted pixel by pixel from the mask rather than from its CHI.

    A pixel counts when its bin (as :func:`build_chi_array` computes it)
    lies in the outer or inner bin range of :func:`value_bin_bounds`.
    ``ub1`` (Eq. 3) counts the outer range over the smallest cell-aligned
    box covering the ROI; ``ub2`` (Eq. 4) over the largest one the ROI
    covers, plus the ROI area that box misses; ``lb1`` counts the inner
    range over the covered box, and ``lb2`` over the covering box minus
    its area outside the ROI."""
    wc, hc = cfg.wc, cfg.hc
    bins = np.clip((mask * cfg.b).astype(np.int64), 0, cfg.b - 1)
    klo_out, khi_out, klo_in, khi_in = value_bin_bounds(lv, uv, cfg.b)
    x1, y1, x2, y2 = roi
    covering = (x1 // wc * wc, y1 // hc * hc, -(-x2 // wc) * wc, -(-y2 // hc) * hc)
    covered = (-(-x1 // wc) * wc, -(-y1 // hc) * hc, x2 // wc * wc, y2 // hc * hc)

    def area(box):
        return max(0, box[2] - box[0]) * max(0, box[3] - box[1])

    def count(box, klo, khi):
        if not area(box):
            return 0
        sub = bins[box[1] : box[3], box[0] : box[2]]
        return int(((sub >= klo) & (sub < khi)).sum())

    return (
        count(covering, klo_out, khi_out),
        count(covered, klo_out, khi_out) + area(roi) - area(covered),
        count(covered, klo_in, khi_in),
        count(covering, klo_in, khi_in) - (area(covering) - area(roi)),
    )


@pytest.fixture(scope="module")
def fig4_H():
    return build_chi_array(FIG4, FIG4_CFG)


class TestFigure6:
    """The paper's Figure 6: roi = ((3,3),(5,5)) 1-indexed inclusive
    (a 3x3 box), (lv, uv) = (0.5, 1.0), b = 2 bins."""

    ROI = (2, 2, 5, 5)  # 0-indexed half-open

    def test_upper_bound_is_min_of_both_approaches(self, fig4_H):
        """Paper: theta_bar_1 = 8 (smallest covering region),
        theta_bar_2 = 7 (largest covered region + uncovered area);
        theta_bar = min = 7. Per cell the upper bound is 6."""
        ub1, ub2, _, _ = eqs_3_4(FIG4, self.ROI, 0.5, 1.0, FIG4_CFG)
        assert (ub1, ub2) == (8, 7)
        _, ub = cp_bounds_single(fig4_H, self.ROI, 0.5, 1.0, FIG4_CFG)
        assert ub == 6

    def test_exact_value_within_bounds(self, fig4_H):
        exact = cp(FIG4, self.ROI, 0.5, 1.0)
        assert exact == 6
        lb, ub = cp_bounds_single(fig4_H, self.ROI, 0.5, 1.0, FIG4_CFG)
        assert (lb, ub) == (4, 6)
        assert lb <= exact <= ub

    def test_lower_bound(self, fig4_H):
        """Symmetric lower bounds: lb1 (covered region, inner range) = 2,
        lb2 = 8 - (16 - 9) = 1; lb = max = 2. Per cell the lower bound
        is 4."""
        _, _, lb1, lb2 = eqs_3_4(FIG4, self.ROI, 0.5, 1.0, FIG4_CFG)
        assert (lb1, lb2) == (2, 1)
        lb, _ = cp_bounds_single(fig4_H, self.ROI, 0.5, 1.0, FIG4_CFG)
        assert lb == 4


class TestValueBinBounds:
    def test_aligned_boundaries_coincide(self):
        klo_o, khi_o, klo_i, khi_i = value_bin_bounds(0.25, 0.75, 4)
        assert (klo_o, khi_o) == (1, 3)
        assert (klo_i, khi_i) == (1, 3)

    def test_outer_is_superset_inner_is_subset(self):
        klo_o, khi_o, klo_i, khi_i = value_bin_bounds(0.3, 0.7, 4)
        assert (klo_o, khi_o) == (1, 3)
        assert (klo_i, khi_i) == (2, 2)  # empty inner range

    def test_uv_one_maps_to_b(self):
        _, khi_o, _, khi_i = value_bin_bounds(0.5, 1.0, 8)
        assert khi_o == 8 and khi_i == 8

    @pytest.mark.parametrize("b", [2, 4, 8, 16])
    def test_invariants(self, b):
        for lv in np.linspace(0, 0.9, 10):
            for uv in np.linspace(lv + 0.05, 1.0, 5):
                klo_o, khi_o, klo_i, khi_i = value_bin_bounds(float(lv), float(uv), b)
                assert 0 <= klo_o <= klo_i <= b
                assert 0 <= khi_i <= khi_o <= b
                assert klo_o * (1 / b) <= lv + 1e-12
                assert uv <= khi_o * (1 / b) + 1e-12 or khi_o == b
                assert lv <= klo_i * (1 / b) + 1e-12
                assert khi_i * (1 / b) <= uv + 1e-12 or khi_i == b


def _random_mask(seed: int, h: int = 16, w: int = 16) -> np.ndarray:
    g = np.random.default_rng(seed)
    return (g.random((h, w)) * 0.999).astype(np.float32)


ROIS = [
    (0, 0, 16, 16),  # full, aligned
    (4, 4, 12, 12),  # aligned interior
    (1, 1, 15, 15),  # unaligned, large
    (3, 5, 6, 9),    # unaligned, small
    (0, 0, 1, 1),    # single pixel
    (7, 7, 9, 9),    # straddles a cell corner
    (0, 13, 16, 16), # bottom strip
    (15, 0, 16, 16), # right edge column
]
RANGES = [(0.0, 1.0), (0.25, 0.75), (0.5, 1.0), (0.1, 0.35), (0.61, 0.62), (0.8, 1.0)]


class TestSoundness:
    @pytest.mark.parametrize("roi", ROIS)
    @pytest.mark.parametrize("rng", RANGES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bounds_contain_exact(self, roi, rng, seed):
        cfg = ChiConfig(4, 4, 4)
        m = _random_mask(seed)
        H = build_chi_array(m, cfg)
        lb, ub = cp_bounds_single(H, roi, rng[0], rng[1], cfg)
        exact = cp(m, roi, rng[0], rng[1])
        assert lb <= exact <= ub
        assert 0 <= lb and ub <= (roi[2] - roi[0]) * (roi[3] - roi[1])

    @pytest.mark.parametrize("rng", [(0.0, 1.0), (0.25, 0.5), (0.5, 0.75), (0.25, 1.0)])
    @pytest.mark.parametrize("roi", [(0, 0, 16, 16), (4, 4, 12, 12), (8, 0, 16, 8)])
    def test_aligned_query_is_exact(self, rng, roi):
        """Cell-aligned ROI + bin-boundary range => lb == exact == ub."""
        cfg = ChiConfig(4, 4, 4)
        m = _random_mask(3)
        H = build_chi_array(m, cfg)
        lb, ub = cp_bounds_single(H, roi, rng[0], rng[1], cfg)
        exact = cp(m, roi, rng[0], rng[1])
        assert lb == exact == ub

    def test_finer_grid_tightens_bounds(self):
        """Figure 10's granularity effect: a finer index never loosens
        the bound interval on aligned-comparable queries (checked on
        average across random queries)."""
        m = _random_mask(5, 32, 32)
        fine = ChiConfig(4, 4, 8)
        coarse = ChiConfig(16, 16, 4)
        Hf = build_chi_array(m, fine)
        Hc = build_chi_array(m, coarse)
        g = np.random.default_rng(0)
        widths_f, widths_c = [], []
        for _ in range(50):
            x1 = int(g.integers(0, 31)); x2 = int(g.integers(x1 + 1, 33))
            y1 = int(g.integers(0, 31)); y2 = int(g.integers(y1 + 1, 33))
            lv = float(g.choice([0.1, 0.3, 0.5, 0.7]))
            lbf, ubf = cp_bounds_single(Hf, (x1, y1, x2, y2), lv, 1.0, fine)
            lbc, ubc = cp_bounds_single(Hc, (x1, y1, x2, y2), lv, 1.0, coarse)
            widths_f.append(ubf - lbf)
            widths_c.append(ubc - lbc)
        assert np.mean(widths_f) < np.mean(widths_c)

    def test_batch_matches_single(self):
        cfg = ChiConfig(4, 4, 4)
        masks = [_random_mask(s) for s in range(6)]
        H = np.stack([build_chi_array(m, cfg) for m in masks])
        rois = np.array([ROIS[i % len(ROIS)] for i in range(6)])
        lb, ub = cp_bounds_batch(H, rois, 0.3, 0.8, cfg)
        for i in range(6):
            slb, sub = cp_bounds_single(H[i], tuple(rois[i]), 0.3, 0.8, cfg)
            assert (lb[i], ub[i]) == (slb, sub)

    def test_bad_shapes_raise(self):
        cfg = ChiConfig(4, 4, 4)
        H = build_chi_array(_random_mask(0), cfg)
        with pytest.raises(ValueError):
            cp_bounds_batch(H, np.array([[0, 0, 4, 4]]), 0.0, 1.0, cfg)  # 3-D H
        with pytest.raises(ValueError):
            cp_bounds_batch(H[None], np.array([0, 0, 4, 4]), 0.0, 1.0, cfg)  # 1-D rois
        with pytest.raises(ValueError):
            cp_bounds_batch(H[None], np.array([[0, 0, 4, 4]]), 0.0, 1.0, ChiConfig(4, 4, 8))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        w=st.sampled_from([8, 16, 24]),
        h=st.sampled_from([8, 16, 32]),
        x1=st.integers(0, 23),
        y1=st.integers(0, 31),
        dx=st.integers(1, 24),
        dy=st.integers(1, 32),
        lv100=st.integers(0, 95),
        width100=st.integers(1, 100),
        wc=st.sampled_from([2, 4, 8]),
        hc=st.sampled_from([2, 4, 8]),
        b=st.sampled_from([2, 4, 8, 16]),
    )
    def test_fuzz_soundness(self, seed, w, h, x1, y1, dx, dy, lv100, width100, wc, hc, b):
        """Non-square cells on non-square masks: the interval contains
        the exact CP and lies inside the Eqs. 3-4 interval."""
        cfg = ChiConfig(wc, hc, b)
        m = _random_mask(seed, h, w)
        H = build_chi_array(m, cfg)
        x1, y1 = min(x1, w - 1), min(y1, h - 1)
        roi = (x1, y1, min(w, x1 + dx), min(h, y1 + dy))
        lv = lv100 / 100
        uv = min(1.0, lv + width100 / 100)
        if uv <= lv:
            uv = lv + 0.01
        lb, ub = cp_bounds_single(H, roi, lv, uv, cfg)
        exact = cp(m, roi, lv, uv)
        assert lb <= exact <= ub
        ub1, ub2, lb1, lb2 = eqs_3_4(m, roi, lv, uv, cfg)
        area = (roi[2] - roi[0]) * (roi[3] - roi[1])
        assert max(lb1, lb2, 0) <= lb and ub <= min(ub1, ub2, area)
