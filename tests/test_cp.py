"""Exact CP kernel and MASK_AGG unit tests (paper §2.1)."""
import numpy as np
import pytest

from repro.core.cp import OBJECT_ROI, CPTerm, cp, intersect_threshold

# The paper's Figure 3 toy mask (5x5): mask[y][x], rows top to bottom.
FIG3 = np.array(
    [
        [0.1, 0.2, 0.4, 0.1, 0.1],
        [0.4, 0.8, 0.5, 0.1, 0.1],
        [0.5, 0.9, 0.5, 0.1, 0.1],
        [0.1, 0.9, 0.6, 0.1, 0.1],
        [0.3, 0.3, 0.5, 0.1, 0.1],
    ],
    dtype=np.float32,
)


class TestCP:
    def test_fig3_paper_example(self):
        """Figure 3: '# pixels in the ROI with values in (0.85, 1.0) is 2'.

        The purple-box ROI covers the two 0.9 pixels (column 2, rows 3-4
        in the paper's 1-indexed drawing)."""
        roi = (0, 1, 3, 4)  # rows 2-4, cols 1-3 in the paper's box
        assert cp(FIG3, roi, 0.85, 1.0) == 2

    def test_full_mask_roi_none(self):
        assert cp(FIG3, None, 0.0, 1.0) == 25

    def test_full_mask_equals_full_roi(self):
        assert cp(FIG3, (0, 0, 5, 5), 0.3, 0.6) == cp(FIG3, None, 0.3, 0.6)

    def test_half_open_value_range(self):
        # lv inclusive, uv exclusive
        assert cp(FIG3, None, 0.9, 1.0) == 2
        assert cp(FIG3, None, 0.8, 0.9) == 1
        assert cp(FIG3, None, 0.8, 1.0) == 3

    def test_single_pixel_roi(self):
        assert cp(FIG3, (1, 1, 2, 2), 0.0, 1.0) == 1
        assert cp(FIG3, (1, 1, 2, 2), 0.8, 1.0) == 1
        assert cp(FIG3, (0, 0, 1, 1), 0.8, 1.0) == 0

    def test_empty_value_range(self):
        assert cp(FIG3, None, 0.5, 0.5) == 0

    @pytest.mark.parametrize("lv,uv", [(0.0, 1.0), (0.1, 0.5), (0.5, 0.9), (0.85, 1.0)])
    def test_additive_over_disjoint_regions(self, lv, uv):
        """CP is finitely additive over disjoint spatial regions (Fig. 5)."""
        left = cp(FIG3, (0, 0, 2, 5), lv, uv)
        right = cp(FIG3, (2, 0, 5, 5), lv, uv)
        assert left + right == cp(FIG3, (0, 0, 5, 5), lv, uv)

    @pytest.mark.parametrize("y_split", [1, 2, 3, 4])
    def test_additive_over_row_splits(self, y_split):
        top = cp(FIG3, (0, 0, 5, y_split), 0.4, 1.0)
        bottom = cp(FIG3, (0, y_split, 5, 5), 0.4, 1.0)
        assert top + bottom == cp(FIG3, None, 0.4, 1.0)

    def test_scalar_output_supports_arithmetic(self):
        v = cp(FIG3, None, 0.85, 1.0)
        assert isinstance(v, int)
        assert v / cp(FIG3, None, 0.0, 1.0) == pytest.approx(2 / 25)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_loop(self, seed):
        g = np.random.default_rng(seed)
        m = (g.random((9, 7)) * 0.999).astype(np.float32)
        x1, y1 = int(g.integers(0, 6)), int(g.integers(0, 8))
        x2, y2 = int(g.integers(x1 + 1, 8)), int(g.integers(y1 + 1, 10))
        lv, uv = 0.25, 0.75
        naive = sum(
            1
            for yy in range(y1, y2)
            for xx in range(x1, x2)
            if lv <= m[yy, xx] < uv
        )
        assert cp(m, (x1, y1, x2, y2), lv, uv) == naive


class TestCPTerm:
    def test_resolve_constant(self):
        assert CPTerm(0.5, 1.0, (1, 2, 3, 4)).resolve_roi(5, 5) == (1, 2, 3, 4)

    def test_resolve_full(self):
        assert CPTerm(0.5, 1.0, None).resolve_roi(7, 5) == (0, 0, 7, 5)

    def test_resolve_object(self):
        assert CPTerm(0.5, 1.0, OBJECT_ROI).resolve_roi(5, 5, (1, 1, 4, 4)) == (1, 1, 4, 4)

    def test_object_without_bbox_raises(self):
        with pytest.raises(ValueError):
            CPTerm(0.5, 1.0, OBJECT_ROI).resolve_roi(5, 5)

    def test_unknown_symbolic_roi_raises(self):
        with pytest.raises(ValueError):
            CPTerm(0.5, 1.0, "foreground").resolve_roi(5, 5)

    @pytest.mark.parametrize(
        "roi", [(-1, 0, 2, 2), (0, 0, 6, 5), (3, 3, 3, 4), (2, 2, 1, 3)]
    )
    def test_out_of_bounds_roi_raises(self, roi):
        with pytest.raises(ValueError):
            CPTerm(0.5, 1.0, roi).resolve_roi(5, 5)


class TestIntersectThreshold:
    def test_single_mask_identity_above_threshold(self):
        m = FIG3
        out = intersect_threshold([m], 0.5)
        assert np.all(out[m >= 0.5] == m[m >= 0.5])
        assert np.all(out[m < 0.5] == 0.0)

    def test_two_masks_min_where_both_pass(self):
        a = np.full((3, 3), 0.9, dtype=np.float32)
        b = np.full((3, 3), 0.7, dtype=np.float32)
        b[0, 0] = 0.1
        out = intersect_threshold([a, b], 0.5)
        assert out[0, 0] == 0.0
        assert np.all(out[1:] == 0.7)

    def test_cp_of_intersection_counts_all_pass_pixels(self):
        """CP(INTERSECT(m_i >= t), roi, (t, 1)) == |{p: all m_i[p] >= t}|."""
        g = np.random.default_rng(1)
        masks = [(g.random((8, 8)) * 0.999).astype(np.float32) for _ in range(3)]
        t = 0.4
        out = intersect_threshold(masks, t)
        expected = int(np.all(np.stack(masks) >= t, axis=0).sum())
        assert cp(out, None, t, 1.0) == expected

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            intersect_threshold([], 0.5)

    def test_threshold_is_inclusive(self):
        m = np.full((2, 2), 0.5, dtype=np.float32)
        out = intersect_threshold([m, m], 0.5)
        assert np.all(out == 0.5)
