import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from coilsim import coilopt

from coilsim.coilopt import (
    NoBracket,
    OptimalityResult,
    UniformRegion,
    optimal_spacing,
    optimality_polynomial,
    scan_positions,
    second_derivative_center,
    solve_optimal_ratio,
    uniform_region,
)
from coilsim.magnetics import HelmholtzPair, ZeroCenterField, pair_field, uniformity
from oracles import scan_positions_ref, second_derivative_center_fd

TABLE2 = HelmholtzPair(side=0.8404, spacing=0.4576, turns=24, current=2.94)


class TestPolynomial:
    def test_constant_term(self):
        assert optimality_polynomial(0.0) == 6.0

    def test_near_zero_at_published_ratio(self):
        assert abs(optimality_polynomial(1.8365)) < 0.05

    def test_root_bracketed(self):
        assert optimality_polynomial(1.8) > 0.0
        assert optimality_polynomial(1.9) < 0.0


class TestSolveOptimalRatio:
    def test_published_value(self):
        r = solve_optimal_ratio()
        assert r.n == pytest.approx(1.8365, abs=1e-3)
        assert abs(r.residual) < 1e-12

    def test_cubic_substitution(self):
        n = solve_optimal_ratio().n
        m = n * n
        assert abs(-5.0 * m**3 + 11.0 * m**2 + 18.0 * m + 6.0) < 1e-10

    def test_bracket_invariance(self):
        a = solve_optimal_ratio(1.0, 3.0).n
        b = solve_optimal_ratio(0.5, 5.0).n
        assert a == pytest.approx(b, abs=1e-10)

    def test_no_bracket_detected(self):
        with pytest.raises(NoBracket):
            solve_optimal_ratio(0.1, 0.5)

    def test_curvature_much_smaller_at_root(self):
        n_star = solve_optimal_ratio().n
        d = 0.5
        at_root = second_derivative_center(HelmholtzPair(n_star * d, d, 10, 1.0))
        off = second_derivative_center(HelmholtzPair(1.1 * n_star * d, d, 10, 1.0))
        assert abs(off) >= 1e3 * abs(at_root)


class TestSecondDerivative:
    def test_vanishes_at_solved_root(self):
        n_star = solve_optimal_ratio().n
        d = TABLE2.spacing
        at_root = second_derivative_center(HelmholtzPair(n_star * d, d, 24, 2.94))
        ref = second_derivative_center(HelmholtzPair(1.5 * d, d, 24, 2.94))
        assert abs(at_root) < 1e-6 * abs(ref)

    def test_matches_finite_difference(self):
        # well away from the root the comparison is sharp; at the published
        # 4-digit ratio the value itself is ~1e-4 of scale, so the central
        # difference carries ~1e-3 relative cancellation noise
        d = TABLE2.spacing
        for n, tol in ((1.2, 1e-4), (1.8365, 2e-3), (2.5, 1e-4)):
            pair = HelmholtzPair(n * d, d, 24, 2.94)
            cf = second_derivative_center(pair)
            fd = second_derivative_center_fd(pair)
            assert fd == pytest.approx(cf, rel=tol)

    def test_sign_flips_across_optimum(self):
        d = 0.4
        low = second_derivative_center(HelmholtzPair(1.7 * d, d, 5, 2.0))
        high = second_derivative_center(HelmholtzPair(2.0 * d, d, 5, 2.0))
        assert low > 0.0 > high


class TestOptimalSpacing:
    def test_table_geometry(self):
        assert optimal_spacing(0.8404) == pytest.approx(0.4576, abs=5e-4)

    def test_scale_invariance_exact(self):
        assert optimal_spacing(2 * 0.8404) == 2 * optimal_spacing(0.8404)

    def test_unit_side(self):
        assert optimal_spacing(1.0) == pytest.approx(0.5445, abs=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_spacing(0.0)


class TestUniformRegion:
    def test_five_percent_extent(self):
        region = uniform_region(TABLE2, 5.0)
        assert region.extent_x_over_d == pytest.approx(0.515, rel=0.10)
        # the 5% region spans ~467 mm across
        width_mm = 2 * region.extent_x_over_d * TABLE2.spacing * 1000
        assert width_mm == pytest.approx(467.0, rel=0.10)

    def test_monotone_in_threshold(self):
        extents = [
            uniform_region(TABLE2, thr, resolution=2e-3).extent_x_over_d
            for thr in (0.1, 0.5, 1.0, 5.0, 10.0, 20.0)
        ]
        assert all(a <= b for a, b in zip(extents, extents[1:]))
        assert extents[0] < extents[-1]

    def test_x_and_y_extents_agree(self):
        region = uniform_region(TABLE2, 5.0, resolution=2e-3)
        assert region.extent_y_over_d == pytest.approx(region.extent_x_over_d, rel=0.02)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            uniform_region(TABLE2, 0.0)
        with pytest.raises(ValueError):
            uniform_region(TABLE2, 5.0, resolution=0.0)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            uniform_region(TABLE2, math.nan)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf])
    def test_rejects_nonfinite_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution must be finite"):
            uniform_region(TABLE2, 5.0, resolution=resolution)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("threshold", [0.01, 0.5, 5.0, 1e6])
    def test_matches_whole_scan_for_any_block(self, monkeypatch, block, threshold):
        # one uniformity call over every position, then the first exceedance
        def whole_scan(axis):
            positions = list(scan_positions_ref(4e-3, 4e-3, 1.5 * max(TABLE2.spacing, TABLE2.side)))
            pts = np.zeros((len(positions), 3))
            pts[:, axis] = positions
            over = np.flatnonzero(np.abs(uniformity(TABLE2, pts)) > threshold)
            k = over[0] if over.size else len(positions)
            return (positions[k - 1] if k else 0.0) / TABLE2.spacing

        monkeypatch.setattr(coilopt, "SCAN_BLOCK", block)
        region = uniform_region(TABLE2, threshold, resolution=4e-3)
        assert (region.extent_x_over_d, region.extent_y_over_d) == (whole_scan(0), whole_scan(1))

    def test_center_reference_taken_once_per_call(self, monkeypatch):
        # the origin is the only all-zero row a scan evaluates: its |bz| is
        # the reference, taken in the first pair_field call of each scan,
        # whether the edge lies in the second block, at the first position,
        # nowhere in range, or the range holds no position at all
        origin_rows = []

        def counted(pair, pts):
            origin_rows[-1].append(int((np.asarray(pts) == 0.0).all(axis=1).sum()))
            return pair_field(pair, pts)

        monkeypatch.setattr(coilopt, "pair_field", counted)
        for threshold, resolution in ((1.0, 1e-3), (1e-9, 1e-3), (1e6, 4e-3), (1.0, 10.0)):
            origin_rows.append([])
            uniform_region(TABLE2, threshold, resolution)
        assert origin_rows == [[1, 0], [1], [1, 0], [1]]

    def test_zero_center_field_raised_before_any_extent(self):
        dead = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, 0.0)
        with pytest.raises(ZeroCenterField):
            uniform_region(dead, 1.0)

    @pytest.mark.parametrize("threshold, calls", [(0.1, [257]), (1.0, [257, 512])])
    def test_table2_field_calls(self, monkeypatch, threshold, calls):
        # each block of both axes is one call, the first with the origin: at
        # SCAN_FIRST_BLOCK = 128 the 0.1% edge (92 positions out) lies in the
        # first block and the 1% edge (161 out) in the second
        evaluated = []

        def counted(pair, pts):
            evaluated.append(len(pts))
            return pair_field(pair, pts)

        monkeypatch.setattr(coilopt, "pair_field", counted)
        uniform_region(TABLE2, threshold)
        assert coilopt.SCAN_FIRST_BLOCK == 128 and evaluated == calls

    def test_scan_stops_near_the_edge(self, monkeypatch):
        # a whole-range scan evaluates 1,260 positions per axis to find an
        # edge a few dozen out
        evaluated = []

        def counted(pair, pts):
            evaluated.append(len(pts))
            return pair_field(pair, pts)

        monkeypatch.setattr(coilopt, "pair_field", counted)
        region = uniform_region(TABLE2, 0.1)
        extents = (region.extent_x_over_d, region.extent_y_over_d)
        edge = sum(round(e * TABLE2.spacing / 1e-3) + 1 for e in extents)
        assert evaluated and sum(evaluated) < 4 * edge

    def test_memory_bounded_at_fine_resolution(self):
        # 1.8 million positions at 1 um; a whole-scan list of them alone
        # would take ~58 MB, and its point array 43 MB more
        side = 1.2
        pair = HelmholtzPair(side=side, spacing=optimal_spacing(side), turns=1, current=1.0)
        tracemalloc.start()
        try:
            region = uniform_region(pair, 0.01, resolution=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < region.extent_x_over_d < 1.5
        assert peak < 8e6


class TestScanPositions:
    @settings(max_examples=200, deadline=None)
    @given(first=hst.floats(0.0, 1.0), step=hst.floats(1e-6, 0.1), n=hst.integers(0, 3000),
           beyond=hst.floats(0.0, 0.999), count=hst.integers(0, 3100))
    @example(first=0.0, step=1e-6, n=10_000, beyond=0.0, count=10_001)
    @example(first=1e-3, step=1e-3, n=1259, beyond=0.5, count=4097)
    def test_bits_of_repeated_addition(self, first, step, n, beyond, count):
        last = first + (n + beyond) * step
        ref = np.array(list(islice(scan_positions_ref(first, step, last), count)), dtype=float)
        got = scan_positions(first, step, last, count)
        assert got.dtype == np.float64
        assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()

    def test_blocks_continue_the_walk(self):
        # a block started from the last position reached, as uniform_region
        # walks, carries on the same additions as one walk over the range
        whole = scan_positions(0.0, 1e-3, 1.26, 2000)
        parts, reached = [], 0.0
        for size in (64, 128, 256, 512, 1024):
            walk = scan_positions(reached, 1e-3, 1.26, size + 1)
            parts.append(walk[1:])
            reached = walk[-1]
        assert np.concatenate(parts).view(np.uint64).tolist() == whole[1:].view(np.uint64).tolist()
