import math

import numpy as np
import pytest

from coilsim.magnetics import (
    MU0,
    GridSpec,
    HelmholtzPair,
    PointOnWire,
    ZeroCenterField,
    field_map,
    onaxis_field,
    pair_field,
    segment_field,
    uniformity,
    write_field_map_csv,
)

from oracles import (
    pair_field_numeric,
    segment_field_scalar,
    square_loop_field_numeric,
    wire_field_numeric,
)

TABLE2 = HelmholtzPair(side=0.8404, spacing=0.4576, turns=24, current=2.94)


def pt(x, y, z) -> np.ndarray:
    return np.array([[x, y, z]], dtype=float)


def loop_field(side, z_offset, current, turns, points) -> np.ndarray:
    """Square loop in the plane z = z_offset, counterclockwise seen from +z,
    summed side by side from zero the way pair_field sums each loop."""
    s = 0.5 * side
    corners = ((s, -s, z_offset), (s, s, z_offset), (-s, s, z_offset), (-s, -s, z_offset))
    b = np.zeros(np.shape(points))
    for i in range(4):
        b += segment_field(corners[i], corners[(i + 1) % 4], current, points, turns)
    return b


class TestSegmentField:
    def test_infinite_wire_limit(self):
        # point at perpendicular distance a from the midpoint of a segment
        # much longer than a; the finite-length correction is (a/L)^2, so
        # +/-1000 m leaves 5e-9 relative and +/-10 km gets below 1e-9
        expected = MU0 * 1.0 / (2.0 * math.pi * 0.1)  # 2.0e-6 T
        assert expected == pytest.approx(2.0e-6)
        b = segment_field((0, -1000.0, 0), (0, 1000.0, 0), 1.0, pt(0.1, 0.0, 0.0))
        assert abs(np.linalg.norm(b) - expected) / expected < 5.1e-9
        b_long = segment_field((0, -10_000.0, 0), (0, 10_000.0, 0), 1.0, pt(0.1, 0.0, 0.0))
        assert abs(np.linalg.norm(b_long) - expected) / expected < 1e-9

    def test_reversal_negates_exactly(self):
        start, end = (0.1, -0.4, 0.2), (-0.3, 0.5, -0.1)
        q = np.array([[0.25, 0.1, -0.3], [-0.7, 0.2, 0.05]])
        b = segment_field(start, end, 1.7, q, turns=3)
        br = segment_field(end, start, 1.7, q, turns=3)
        assert np.array_equal(br, -b)

    def test_matches_line_integral_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p0 = rng.uniform(-1, 1, 3)
            p1 = rng.uniform(-1, 1, 3)
            q = rng.uniform(-1, 1, 3)
            b = segment_field(p0, p1, 2.5, q[None, :], turns=2)[0]
            ref = wire_field_numeric(p0, p1, q, 2.5, turns=2, subdivisions=200_000)
            assert np.linalg.norm(b - ref) / np.linalg.norm(ref) < 1e-6

    def test_matches_per_point_evaluation_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            p0 = tuple(rng.uniform(-1, 1, 3).tolist())
            p1 = tuple(rng.uniform(-1, 1, 3).tolist())
            q = rng.uniform(-1, 1, (50, 3))
            b = segment_field(p0, p1, 2.94, q, turns=24)
            ref = [list(segment_field_scalar(p0, p1, 2.94, 24, row)) for row in q.tolist()]
            assert b.tolist() == ref

    def test_point_on_wire_rejected(self):
        q = np.array([[0.3, 0.0, 0.0], [0.0, 0.5, 0.0]])
        with pytest.raises(PointOnWire) as err:
            segment_field((0, -1, 0), (0, 1, 0), 1.0, q)
        assert err.value.point == (0.0, 0.5, 0.0)
        # on the infinite line beyond the endpoints is singular too
        with pytest.raises(PointOnWire):
            segment_field((0, -1, 0), (0, 1, 0), 1.0, pt(0.0, 2.0, 0.0))


class TestSquareLoop:
    def test_center_field_closed_form(self):
        b = loop_field(1.0, 0.0, 1.0, 1, pt(0, 0, 0))[0]
        expected = 2.0 * math.sqrt(2.0) * MU0 * 1.0 / (math.pi * 1.0)
        assert b[2] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.1314e-6, rel=1e-4)
        assert b[0] == pytest.approx(0.0, abs=1e-20)
        assert b[1] == pytest.approx(0.0, abs=1e-20)

    def test_mirror_symmetry(self):
        b = loop_field(0.8, 0.1, 2.0, 5, np.array([[0.2, 0.15, 0.3], [-0.2, -0.15, 0.3]]))
        assert b[0, 2] == pytest.approx(b[1, 2], rel=1e-12)

    def test_off_axis_matches_oracle(self):
        rng = np.random.default_rng(11)
        q = rng.uniform(-0.25, 0.25, (3, 3))
        b = loop_field(0.7, -0.05, 1.3, 4, q)
        for row, qi in zip(b, q):
            ref = square_loop_field_numeric(0.7, -0.05, 1.3, 4, qi, subdivisions=200_000)
            assert np.linalg.norm(row - ref) / np.linalg.norm(ref) < 1e-6

    def test_positive_current_gives_positive_bz(self):
        assert loop_field(1.0, 0.0, 1.0, 1, pt(0, 0, 0))[0, 2] > 0


class TestPairField:
    def test_table2_center_magnitude(self):
        bz = pair_field(TABLE2, pt(0, 0, 0))[0, 2]
        assert abs(bz) == pytest.approx(1.37e-4, rel=0.02)
        assert abs(bz) > 120e-6

    def test_even_symmetry_in_z(self):
        zs = np.array([0.05, 0.11, 0.2, 0.31])
        q = np.zeros((8, 3))
        q[:4, 2] = zs
        q[4:, 2] = -zs
        bz = pair_field(TABLE2, q)[:, 2]
        assert bz[:4] == pytest.approx(bz[4:], rel=1e-12)

    def test_doubling_current_doubles_exactly(self):
        double = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, 2 * TABLE2.current)
        q = np.array([[0.1, -0.05, 0.08], [0.0, 0.0, 0.0]])
        assert np.array_equal(pair_field(double, q), 2 * pair_field(TABLE2, q))

    def test_negating_current_negates(self):
        neg = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, -TABLE2.current)
        q = np.array([[0.07, 0.02, -0.12], [-0.3, 0.1, 0.2]])
        assert np.array_equal(pair_field(neg, q), -pair_field(TABLE2, q))

    def test_superposition_of_loops(self):
        q = np.array([[0.12, -0.07, 0.05], [0.0, 0.0, 0.0], [-0.4, 0.3, -0.2]])
        h = 0.5 * TABLE2.spacing
        parts = loop_field(TABLE2.side, +h, TABLE2.current, TABLE2.turns, q) + loop_field(
            TABLE2.side, -h, TABLE2.current, TABLE2.turns, q
        )
        assert np.array_equal(pair_field(TABLE2, q), parts)

    def test_linearity_in_current(self):
        # relative to the vector norm: transverse components nearly cancel
        # near the axis, so a per-component relative bound is meaningless
        k = 3.7
        scaled = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, k * TABLE2.current)
        q = pt(0.1, 0.04, -0.03)
        b1 = pair_field(TABLE2, q)[0]
        bk = pair_field(scaled, q)[0]
        assert np.linalg.norm(bk - k * b1) <= 1e-15 * np.linalg.norm(bk)


class TestOnAxis:
    def test_matches_pair_field(self):
        rng = np.random.default_rng(3)
        d = TABLE2.spacing
        zs = rng.uniform(-d, d, 100)
        q = np.zeros((zs.size, 3))
        q[:, 2] = zs
        full = pair_field(TABLE2, q)[:, 2]
        closed = [onaxis_field(TABLE2, z) for z in zs]
        assert closed == pytest.approx(full, rel=1e-9)

    def test_symmetric(self):
        for z in (0.01, 0.1, 0.33, 1.7):
            assert onaxis_field(TABLE2, z) == onaxis_field(TABLE2, -z)

    def test_far_field_decays_monotonically(self):
        d = TABLE2.spacing
        zs = np.linspace(d, 10 * d, 200)
        vals = [onaxis_field(TABLE2, z) for z in zs]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for z in rng.uniform(-0.4, 0.4, 3):
            ref = pair_field_numeric(
                TABLE2.side, TABLE2.spacing, TABLE2.turns, TABLE2.current,
                (0.0, 0.0, z), subdivisions=200_000,
            )
            assert onaxis_field(TABLE2, z) == pytest.approx(ref[2], rel=1e-6)


class TestUniformity:
    def test_zero_at_origin(self):
        assert uniformity(TABLE2, pt(0, 0, 0)).tolist() == [0.0]

    def test_small_negative_on_axis(self):
        h = uniformity(TABLE2, pt(0, 0, 0.1 * TABLE2.spacing))[0]
        assert h < 0.0
        assert abs(h) < 0.5

    def test_invariant_under_current_scaling(self):
        q = np.array([[0.1, 0.05, 0.02], [-0.2, 0.0, 0.1]])
        scaled = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, 5.0 * TABLE2.current)
        assert uniformity(TABLE2, q) == pytest.approx(uniformity(scaled, q), rel=1e-12)

    def test_zero_center_field_rejected(self):
        dead = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, 0.0)
        with pytest.raises(ZeroCenterField):
            uniformity(dead, pt(0.1, 0, 0))


class TestFieldMap:
    def test_single_origin_row(self):
        grid = GridSpec(x=(0, 0, 1), y=(0, 0, 1), z=(0, 0, 1))
        points, _field, h = field_map(TABLE2, grid)
        assert points.tolist() == [[0.0, 0.0, 0.0]]
        assert h.tolist() == [0.0]

    def test_z_line_symmetry(self):
        grid = GridSpec(x=(0, 0, 1), y=(0, 0, 1), z=(-0.1, 0.1, 3))
        points, field, _h = field_map(TABLE2, grid)
        assert len(points) == 3
        assert field[0, 2] == pytest.approx(field[2, 2], rel=1e-12)

    def test_plane_grid_center_is_peak(self):
        # 25-point plane around the center: bz decreases away from the axis
        ext = 0.45 * TABLE2.spacing
        grid = GridSpec(x=(-ext, ext, 5), y=(-ext, ext, 5), z=(0, 0, 1))
        points, field, h = field_map(TABLE2, grid)
        assert len(points) == 25
        center = int(np.argmax(field[:, 2]))
        assert points[center].tolist() == [0.0, 0.0, 0.0]
        assert field[0, 2] < field[center, 2]
        assert h[0] < 0.0

    def test_points_row_major_x_outermost(self):
        # lo + i*step, not linspace: on this z axis the two differ at hi
        grid = GridSpec(x=(-1.0, 1.0, 3), y=(0.0, 0.5, 2), z=(-0.2, 0.5, 8))
        step = (0.5 - -0.2) / 7
        expected = [
            [x, y, -0.2 + i * step]
            for x in (-1.0, 0.0, 1.0)
            for y in (0.0, 0.5)
            for i in range(8)
        ]
        assert grid.points().tolist() == expected

    def test_wire_point_reported(self):
        x, z = TABLE2.side / 2, TABLE2.spacing / 2
        grid = GridSpec(x=(x, x, 1), y=(0, 0, 1), z=(z, z, 1))
        with pytest.raises(PointOnWire, match=r"point \(") as err:
            field_map(TABLE2, grid)
        assert err.value.point == (x, 0.0, z)

    def test_csv_round_trip(self, tmp_path):
        grid = GridSpec(x=(0, 0, 1), y=(0, 0, 1), z=(-0.1, 0.1, 5))
        points, field, h = field_map(TABLE2, grid)
        path = tmp_path / "map.csv"
        write_field_map_csv(path, points, field, h)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_m,y_m,z_m,bx_T,by_T,bz_T,uniformity_pct"
        assert len(lines) == 6
        parsed = [float(v) for v in lines[3].split(",")]
        assert parsed[2] == points[2, 2]
        assert parsed[5] == field[2, 2]  # exact round-trip


class TestValidation:
    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            segment_field((0, 0, 0), (0, 0, 0), 1.0, pt(1, 0, 0))
        with pytest.raises(ValueError, match="turns"):
            segment_field((0, 0, 0), (1, 0, 0), 1.0, pt(0, 1, 0), turns=0)

    def test_nonfinite_endpoint_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            segment_field((math.nan, 0, 0), (1, 0, 0), 1.0, pt(0, 1, 0))
        with pytest.raises(ValueError, match="non-finite"):
            segment_field((0, 0, 0), (math.inf, 0, 0), 1.0, pt(0, 1, 0))

    def test_nonpositive_geometry_rejected(self):
        with pytest.raises(ValueError):
            HelmholtzPair(side=0.0, spacing=1.0, turns=1, current=1.0)
        with pytest.raises(ValueError):
            HelmholtzPair(side=1.0, spacing=0.0, turns=1, current=1.0)
        with pytest.raises(ValueError):
            HelmholtzPair(side=1.0, spacing=1.0, turns=0, current=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_pair_rejected(self, bad):
        with pytest.raises(ValueError, match="side"):
            HelmholtzPair(side=bad, spacing=1.0, turns=1, current=1.0)
        with pytest.raises(ValueError, match="spacing"):
            HelmholtzPair(side=1.0, spacing=bad, turns=1, current=1.0)
        with pytest.raises(ValueError, match="current"):
            HelmholtzPair(side=1.0, spacing=1.0, turns=1, current=bad)

    def test_nonfinite_point_rejected(self):
        q = np.array([[0.1, 0.0, 0.0], [math.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            pair_field(TABLE2, q)
        with pytest.raises(ValueError, match="non-finite"):
            uniformity(TABLE2, pt(0.0, math.inf, 0.0))

    def test_points_must_be_n_by_3(self):
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            pair_field(TABLE2, np.zeros(3))
