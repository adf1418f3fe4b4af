import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilsim import magnetics
from coilsim.magnetics import (
    KERNEL_CHUNK,
    MAP_BLOCK,
    MU0,
    GridSpec,
    HelmholtzPair,
    PointOnWire,
    ZeroCenterField,
    pair_field,
    segment_field,
    uniformity,
    write_field_map_csv,
)

from oracles import (
    onaxis_field,
    pair_field_numeric,
    pair_field_ref,
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


def axis_segments(rng) -> list[tuple[tuple, tuple]]:
    """A random segment along each axis in each direction, as (start, end)."""
    segments = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            p0 = rng.uniform(-1, 1, 3)
            p1 = p0.copy()
            p1[axis] += sign * rng.uniform(0.1, 1.0)
            segments.append((tuple(p0.tolist()), tuple(p1.tolist())))
    return segments


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
        q = np.array([[0.25, 0.1, -0.3], [-0.7, 0.2, 0.05]])
        for start, end in axis_segments(np.random.default_rng(3)):
            b = segment_field(start, end, 1.7, q, turns=3)
            br = segment_field(end, start, 1.7, q, turns=3)
            assert np.array_equal(br, -b)

    def test_matches_line_integral_oracle(self):
        rng = np.random.default_rng(7)
        for p0, p1 in axis_segments(rng):
            q = rng.uniform(-1, 1, 3)
            b = segment_field(p0, p1, 2.5, q[None, :], turns=2)[0]
            ref = wire_field_numeric(p0, p1, q, 2.5, turns=2, subdivisions=200_000)
            assert np.linalg.norm(b - ref) / np.linalg.norm(ref) < 1e-6

    def test_matches_per_point_evaluation_bitwise(self):
        # against the general (oblique) form, value for value
        rng = np.random.default_rng(17)
        for p0, p1 in axis_segments(rng):
            q = rng.uniform(-1, 1, (50, 3))
            b = segment_field(p0, p1, 2.94, q, turns=24)
            ref = [list(segment_field_scalar(p0, p1, 2.94, 24, row)) for row in q.tolist()]
            assert b.tolist() == ref

    def test_oblique_segment_rejected(self):
        with pytest.raises(ValueError, match=re.escape("(0.0, 0.0, 0.0) -> (1.0, 1.0, 0.0) is not parallel")):
            segment_field((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), 1.0, pt(0, 0, 1))

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

    @pytest.mark.parametrize(
        "n", [1, KERNEL_CHUNK - 1, KERNEL_CHUNK, KERNEL_CHUNK + 1, 2 * KERNEL_CHUNK + 3]
    )
    def test_chunks_match_per_segment_sum_bitwise(self, n):
        # the per-segment path pair_field had before one kernel call
        # evaluated all eight sides; the rows include exact zeros and points
        # in the loop planes, where every side gives a signed zero for bx
        h = 0.5 * TABLE2.spacing
        q = np.random.default_rng(n).uniform(-0.6, 0.6, (n, 3))
        q[::7] = 0.0
        q[1::5, :2] = 0.0
        q[2::3, 2] = h
        q[3::4, 2] = -h
        want = loop_field(TABLE2.side, +h, TABLE2.current, TABLE2.turns, q) + loop_field(
            TABLE2.side, -h, TABLE2.current, TABLE2.turns, q
        )
        got = pair_field(TABLE2, q)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("later", [5, 2 * KERNEL_CHUNK + 88], ids=["same-chunk", "later-chunk"])
    def test_point_on_wire_named_in_row_order(self, later):
        # row 0 lies on the fourth side of the upper loop, row `later` on the
        # first: the first offending row is named, with the wire it lies on
        s, h = 0.5 * TABLE2.side, 0.5 * TABLE2.spacing
        q = np.full((later + 40, 3), 0.01)
        q[0] = (0.0, -s, h)
        q[later] = (s, 0.0, h)
        with pytest.raises(PointOnWire) as got:
            pair_field(TABLE2, q)
        assert (got.value.point, got.value.segment) == ((0.0, -s, h), 3)

    def test_linearity_in_current(self):
        # relative to the vector norm: transverse components nearly cancel
        # near the axis, so a per-component relative bound is meaningless
        k = 3.7
        scaled = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, k * TABLE2.current)
        q = pt(0.1, 0.04, -0.03)
        b1 = pair_field(TABLE2, q)[0]
        bk = pair_field(scaled, q)[0]
        assert np.linalg.norm(bk - k * b1) <= 1e-15 * np.linalg.norm(bk)


# random pairs and points well inside them (fractions of side and spacing),
# away from every wire
pairs = st.builds(
    HelmholtzPair,
    side=st.floats(0.1, 2.0),
    spacing=st.floats(0.1, 2.0),
    turns=st.integers(1, 200),
    current=st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
)
fractions = st.lists(st.tuples(*[st.floats(-0.45, 0.45)] * 3), min_size=1, max_size=20)


def scaled(pair, fractions) -> np.ndarray:
    return np.array(fractions) * (pair.side, pair.side, pair.spacing)


class TestFieldProperties:
    # relative to the vector norm, as in test_linearity_in_current; inside
    # the pair |bz| is within a small factor of the center field, so the
    # rounding of eight summed sides stays far below 1e-12 of it
    @settings(max_examples=50, deadline=None)
    @given(pair=pairs, fractions=fractions, k=st.floats(0.01, 100.0))
    def test_linear_in_current(self, pair, fractions, k):
        q = scaled(pair, fractions)
        scaled_pair = HelmholtzPair(pair.side, pair.spacing, pair.turns, k * pair.current)
        b, bk = pair_field(pair, q), pair_field(scaled_pair, q)
        assert (np.linalg.norm(bk - k * b, axis=1) <= 1e-12 * np.linalg.norm(bk, axis=1)).all()

    @settings(max_examples=50, deadline=None)
    @given(pair=pairs, fractions=fractions)
    def test_linear_in_turns(self, pair, fractions):
        q = scaled(pair, fractions)
        single = HelmholtzPair(pair.side, pair.spacing, 1, pair.current)
        b1, bn = pair_field(single, q), pair_field(pair, q)
        assert (np.linalg.norm(bn - pair.turns * b1, axis=1) <= 1e-12 * np.linalg.norm(bn, axis=1)).all()

    @settings(max_examples=50, deadline=None)
    @given(pair=pairs, fractions=fractions)
    def test_bz_even_in_z_exactly(self, pair, fractions):
        # the loop at +h seen from -z is the loop at -h seen from z, side by
        # side, so only the order of the two loop sums changes
        q = scaled(pair, fractions)
        mirrored = q * (1.0, 1.0, -1.0)
        assert np.array_equal(pair_field(pair, mirrored)[:, 2], pair_field(pair, q)[:, 2])

    @settings(max_examples=50, deadline=None)
    @given(pair=pairs, fractions=fractions)
    def test_bz_even_in_x_and_y(self, pair, fractions):
        q = scaled(pair, fractions)
        bz = pair_field(pair, q)[:, 2]
        for flip in ((-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (-1.0, -1.0, 1.0)):
            assert pair_field(pair, q * flip)[:, 2] == pytest.approx(bz, rel=1e-12)


def symmetry_plane_points(pair: HelmholtzPair, n: int, seed: int) -> np.ndarray:
    """n points inside and around the pair, many of them on its symmetry
    planes (x = 0, y = 0, z = 0, x = +-y), in its loop planes and on its
    side planes (x = +-s, y = +-s) off the wires, with signed zero
    coordinates, where the sides' terms cancel to signed zeros and a
    wire's across-wire offset is an exact zero."""
    rng = np.random.default_rng(seed)
    s, h = 0.5 * pair.side, 0.5 * pair.spacing
    q = rng.uniform(-1.2, 1.2, (n, 3)) * (s, s, h)
    q[::7] = 0.0
    q[1::7, 0] = -0.0
    q[2::7, 1] = 0.0
    q[3::7, 2] = -0.0
    q[4::7, 1] = q[4::7, 0]
    q[5::7, 1] = -q[5::7, 0]
    q[6::7, 2] = rng.choice([h, -h], len(q[6::7]))
    # every other row of x = -0, y = 0 and z = -0 also on a side plane,
    # keeping its own zero coordinate and leaving the rows before it as they are
    q[8::14, 1] = rng.choice([s, -s], len(q[8::14]))
    q[9::14, 0] = rng.choice([s, -s], len(q[9::14]))
    q[10::14, :2] = rng.choice([s, -s], (len(q[10::14]), 2))
    q[::11, :2] = -0.0
    return q


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestKernelReference:
    """pair_field, which computes each corner's offsets and distances once,
    against the per-side kernel in tests/oracles.py, bit for bit."""

    def test_rows_cover_every_plane(self):
        # each plane the rows name holds points off the other planes' lines
        q = symmetry_plane_points(TABLE2, 200, 0)
        x, y, z = q.T
        s, h = 0.5 * TABLE2.side, 0.5 * TABLE2.spacing
        free = (x != 0) & (abs(x) != s) & (abs(y) != s)
        for plane in (np.signbit(x) & (x == 0) & (y != 0) & (abs(y) != s),
                      free & (y == 0), free & np.signbit(z) & (z == 0),
                      free & (y == x), free & (y == -x), free & (abs(z) == h),
                      (abs(x) == s) & (abs(y) != s), (abs(y) == s) & (abs(x) != s),
                      (abs(x) == s) & (abs(y) == s)):
            assert plane.sum() >= 5
        assert not ((abs(x) == s) | (abs(y) == s))[abs(z) == h].any()

    @pytest.mark.parametrize("n", [1, 7, KERNEL_CHUNK - 1, KERNEL_CHUNK, KERNEL_CHUNK + 1, 3 * KERNEL_CHUNK + 5])
    def test_symmetry_planes_and_chunk_edges(self, n):
        q = symmetry_plane_points(TABLE2, n, n)
        assert_same_bits(pair_field(TABLE2, q), pair_field_ref(TABLE2, q))

    @settings(max_examples=60, deadline=None)
    @given(pair=pairs, n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_any_pair(self, pair, n, seed):
        q = symmetry_plane_points(pair, n, seed)
        assert_same_bits(pair_field(pair, q), pair_field_ref(pair, q))

    def test_negative_current_and_one_turn(self):
        pair = HelmholtzPair(0.3, 0.7, 1, -1.25)
        q = symmetry_plane_points(pair, 200, 5)
        assert_same_bits(pair_field(pair, q), pair_field_ref(pair, q))

    @pytest.mark.parametrize("side", range(8))
    @pytest.mark.parametrize("where", [0, 5, KERNEL_CHUNK + 3], ids=["first", "same-chunk", "later-chunk"])
    def test_point_on_wire_order(self, side, where):
        # a point on the line of `side` at row `where`, and one on each
        # later side's line in the rows just before it (wrapping to the last
        # chunk): both name the first of them in row order
        s, h = 0.5 * TABLE2.side, 0.5 * TABLE2.spacing
        on_side = [(s, 0.1, h), (-0.1, s, h), (-s, -0.1, h), (0.1, -s, h),
                   (s, -0.1, -h), (0.1, s, -h), (-s, 0.1, -h), (-0.1, -s, -h)]
        q = symmetry_plane_points(TABLE2, 2 * KERNEL_CHUNK, side)
        q[where] = on_side[side]
        for k in range(side + 1, 8):
            q[where - k] = on_side[k]
        with pytest.raises(PointOnWire) as want:
            pair_field_ref(TABLE2, q)
        with pytest.raises(PointOnWire) as got:
            pair_field(TABLE2, q)
        assert (got.value.point, got.value.segment) == (want.value.point, want.value.segment)

    def test_wire_table_is_built_once_per_pair(self, monkeypatch):
        pair = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, TABLE2.current)
        calls = []
        build = magnetics._wire_table
        monkeypatch.setattr(magnetics, "_wire_table", lambda *a: calls.append(1) or build(*a))
        for _ in range(3):
            pair_field(pair, pt(0.1, 0.0, 0.0))
        uniformity(pair, pt(0.0, 0.1, 0.0))
        assert len(calls) == 1


class TestOnAxis:
    """The on-axis closed form in tests/oracles.py against the package's
    segment kernel and the brute-force integral."""

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

    def test_points_and_center_in_one_call(self, monkeypatch):
        calls = []
        real = magnetics.pair_field

        def counted(pair, pts):
            calls.append(np.array(pts))
            return real(pair, pts)

        monkeypatch.setattr(magnetics, "pair_field", counted)
        q = np.array([[0.1, 0.05, 0.02], [-0.2, 0.0, 0.1]])
        h = uniformity(TABLE2, q)
        assert len(calls) == 1 and calls[0].tolist() == [[0.0, 0.0, 0.0], *q.tolist()]
        # the same bits as the points and the center evaluated apart
        center = abs(real(TABLE2, pt(0, 0, 0))[0, 2])
        assert h.tolist() == (100.0 * (np.abs(real(TABLE2, q)[:, 2]) - center) / center).tolist()

    # (N, 3) inputs that pair_field rejects: uniformity raises what
    # pair_field raises on them alone, checked before the center field, so a
    # zero-current pair reports the bad point rather than ZeroCenterField
    BAD_POINTS = {
        "nan-row": np.array([[0.1, 0.0, 0.0], [math.nan, 0.0, 0.0]]),
        "wrong-shape": np.zeros((4, 2)),
        "flat": np.zeros(3),
        "on-wire": np.array([[0.1, 0.0, 0.0], [0.4202, 0.05, 0.2288], [-0.4202, 0.0, -0.2288]]),
    }

    @pytest.mark.parametrize("current", [2.94, 0.0], ids=["live", "zero-current"])
    @pytest.mark.parametrize("case", list(BAD_POINTS))
    def test_bad_points_raise_what_pair_field_raises(self, case, current):
        pair = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, current)
        q = self.BAD_POINTS[case]
        with pytest.raises(ValueError) as want:
            pair_field(pair, q)
        with pytest.raises(ValueError) as got:
            uniformity(pair, q)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        assert isinstance(got.value, PointOnWire) == (case == "on-wire")
        if case == "on-wire":
            assert (got.value.point, got.value.segment) == (want.value.point, want.value.segment)


def read_map(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points (N, 3), field (N, 3), uniformity_pct (N,)) read back from a
    field-map CSV; its cells are reprs, so they parse back to the same bits."""
    lines = path.read_text().splitlines()
    assert lines[0] == "x_m,y_m,z_m,bx_T,by_T,bz_T,uniformity_pct"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, 7)
    return rows[:, :3], rows[:, 3:6], rows[:, 6]


class TestFieldMap:
    @pytest.fixture
    def field_map(self, tmp_path):
        """Write the map of `pair` over `grid` and read it back."""
        def run(pair, grid):
            path = tmp_path / "map.csv"
            write_field_map_csv(path, pair, grid)
            return read_map(path)
        return run

    def test_single_origin_row(self, field_map):
        grid = GridSpec(x=(0, 0, 1), y=(0, 0, 1), z=(0, 0, 1))
        points, _field, h = field_map(TABLE2, grid)
        assert points.tolist() == [[0.0, 0.0, 0.0]]
        assert h.tolist() == [0.0]

    def test_z_line_symmetry(self, field_map):
        grid = GridSpec(x=(0, 0, 1), y=(0, 0, 1), z=(-0.1, 0.1, 3))
        points, field, _h = field_map(TABLE2, grid)
        assert len(points) == 3
        assert field[0, 2] == pytest.approx(field[2, 2], rel=1e-12)

    def test_plane_grid_center_is_peak(self, field_map):
        # 25-point plane around the center: bz decreases away from the axis
        ext = 0.45 * TABLE2.spacing
        grid = GridSpec(x=(-ext, ext, 5), y=(-ext, ext, 5), z=(0, 0, 1))
        points, field, h = field_map(TABLE2, grid)
        assert len(points) == 25
        center = int(np.argmax(field[:, 2]))
        assert points[center].tolist() == [0.0, 0.0, 0.0]
        assert field[0, 2] < field[center, 2]
        assert h[0] < 0.0

    def test_points_row_major_x_outermost(self, field_map):
        # lo + i*step, not linspace: on this z axis the two differ at hi
        grid = GridSpec(x=(-1.0, 1.0, 3), y=(0.0, 0.5, 2), z=(-0.2, 0.5, 8))
        step = (0.5 - -0.2) / 7
        expected = [
            [x, y, -0.2 + i * step]
            for x in (-1.0, 0.0, 1.0)
            for y in (0.0, 0.5)
            for i in range(8)
        ]
        points, _field, _h = field_map(TABLE2, grid)
        assert points.tolist() == expected

    def test_wire_point_reported(self, tmp_path):
        x, z = TABLE2.side / 2, TABLE2.spacing / 2
        grid = GridSpec(x=(x, x, 1), y=(0, 0, 1), z=(z, z, 1))
        with pytest.raises(PointOnWire, match=r"point \(") as err:
            write_field_map_csv(tmp_path / "map.csv", TABLE2, grid)
        assert err.value.point == (x, 0.0, z)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (16, 16, MAP_BLOCK // 256), (1, 1, MAP_BLOCK + 1)],
        ids=["1", "MAP_BLOCK", "MAP_BLOCK+1"],
    )
    def test_blocks_join_to_one_kernel_call_bitwise(self, field_map, monkeypatch, shape):
        lo_hi = ((-0.15, 0.2), (-0.2, 0.15), (-0.3, 0.3))
        grid = GridSpec(*((lo, hi if n > 1 else lo, n) for (lo, hi), n in zip(lo_hi, shape)))
        axes = [GridSpec._axis(*a) for a in (grid.x, grid.y, grid.z)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        b = pair_field(TABLE2, pts)
        h = uniformity(TABLE2, pts)
        calls = []

        def counted(pair, q):
            calls.append(len(q))
            return pair_field(pair, q)

        monkeypatch.setattr(magnetics, "pair_field", counted)
        got = field_map(TABLE2, grid)
        # the center, then full blocks and the rest
        n_full, rest = divmod(len(pts), MAP_BLOCK)
        assert calls == [1] + [MAP_BLOCK] * n_full + [rest] * (rest > 0)
        for got_column, want in zip(got, (pts, b, h)):
            assert got_column.shape == want.shape
            assert np.array_equal(got_column.view(np.uint64), want.view(np.uint64))

    def test_zero_center_field_rejected_before_any_block(self, tmp_path, monkeypatch):
        # raised by the center call, before the map or its .part file is opened
        dead = HelmholtzPair(TABLE2.side, TABLE2.spacing, TABLE2.turns, 0.0)
        grid = GridSpec(x=(0, 0, 1), y=(0, 0, 1), z=(-0.1, 0.1, 5))
        calls = []

        def counted(pair, q):
            calls.append(len(q))
            return pair_field(pair, q)

        monkeypatch.setattr(magnetics, "pair_field", counted)
        with pytest.raises(ZeroCenterField):
            write_field_map_csv(tmp_path / "field_map.csv", dead, grid)
        assert calls == [1]
        assert list(tmp_path.iterdir()) == []

    def test_single_point_axis_keeps_negative_zero(self, tmp_path):
        grid = GridSpec(x=(-0.0, -0.0, 1), y=(-0.1, 0.1, 3), z=(0.0, 0.0, 1))
        path = tmp_path / "map.csv"
        write_field_map_csv(path, TABLE2, grid)
        rows = path.read_text().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [
            ["-0.0", "-0.1", "0.0"], ["-0.0", "0.0", "0.0"], ["-0.0", "0.1", "0.0"]
        ]

    def test_csv_round_trip(self, tmp_path):
        grid = GridSpec(x=(0, 0, 1), y=(0, 0, 1), z=(-0.1, 0.1, 5))
        path = tmp_path / "map.csv"
        center = write_field_map_csv(path, TABLE2, grid)
        assert center == pair_field(TABLE2, np.zeros((1, 3)))[0, 2]
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_m,y_m,z_m,bx_T,by_T,bz_T,uniformity_pct"
        assert len(lines) == 6
        parsed = [float(v) for v in lines[3].split(",")]
        assert parsed[2] == -0.1 + 2 * 0.05
        assert parsed[5] == pair_field(TABLE2, [parsed[:3]])[0, 2]  # exact round-trip


class TestValidation:
    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            segment_field((0, 0, 0), (0, 0, 0), 1.0, pt(1, 0, 0))
        with pytest.raises(ValueError, match="turns"):
            segment_field((0, 0, 0), (1, 0, 0), 1.0, pt(0, 1, 0), turns=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_segment_current_rejected(self, bad):
        with pytest.raises(ValueError, match="current must be finite"):
            segment_field((0, 0, 0), (1, 0, 0), bad, pt(0, 1, 0))

    def test_fractional_turns_rejected(self):
        with pytest.raises(ValueError, match="turns must be a positive integer"):
            segment_field((0, 0, 0), (1, 0, 0), 1.0, pt(0, 1, 0), turns=1.5)
        with pytest.raises(ValueError, match="turns must be a positive integer"):
            HelmholtzPair(side=1.0, spacing=1.0, turns=1.5, current=1.0)

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
