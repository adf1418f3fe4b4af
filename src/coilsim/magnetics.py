"""Analytic magnetostatics for straight segments and square Helmholtz pairs.

All quantities are SI: coordinates in meters, currents in amperes, flux
density in tesla.  The pair axis is z; the two loops are centered on the
z-axis at z = +/- spacing/2 with sides parallel to the x/y axes.  Arbitrary
placements are handled by transforming the query points, not the coils.

Field functions take the query points as an (N, 3) array of rows (x, y, z)
and return one result row per point: an (N, 3) array of (bx, by, bz) from
`segment_field` and `pair_field`, an (N,) array from `uniformity`.  There is
no per-point path.  Grid maps go through the same kernel in consecutive
blocks of at most MAP_BLOCK points (`field_map_blocks`), so their memory
stays bounded at any grid size; `field_map` joins the blocks.

The Biot-Savart segment law is written once, in one kernel over
(segments x points): each segment is a row of a table (canonical endpoints,
unit direction, length, signed gain N*mu0*I) whose columns broadcast as
(k, 1) against the (n,) point coordinates.  `segment_field` is its k = 1
case.  `pair_field` validates the points once and evaluates all eight sides
in one kernel call per chunk of at most KERNEL_CHUNK points, which bounds
each temporary at 8 * KERNEL_CHUNK values.

Every output is bit-for-bit what a per-point, per-segment evaluation of the
same closed form gives, so shipped CSVs do not change when the batch, chunk
or block size does.  That fixes the operation order: the kernel works
elementwise per component, with the projection t1 = r1x*lx + r1y*ly + r1z*lz
written out rather than as a matrix product, the gain multiplied left to
right, and each loop summed side by side from zero (so 0 + -0.0 gives 0.0)
before the two loops are added.  A point on a wire is reported as that
order would meet it: the first offending point of the first offending side.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from ._table import write_repr_csv

MU0 = 4.0e-7 * math.pi  # vacuum permeability, T*m/A (exact in SI-2019 sense)

# Query points closer than this to a wire line are treated as singular.
WIRE_GUARD_M = 1e-12

# Points per pair_field call in a field map: bounds the map's memory,
# whatever the grid size.
MAP_BLOCK = 4096

# Points per segment-kernel call in pair_field: with the eight sides of a
# pair, each (segments x points) temporary holds 8 * 512 = 4,096 values.
KERNEL_CHUNK = 512


class PointOnWire(ValueError):
    """Raised when a field is requested on (or within the guard distance of)
    a wire line, where the filament model is singular.  `point` is the first
    offending (x, y, z), and `segment` the index of its wire in the order the
    call evaluates them (for a pair: the loop at +spacing/2, then the other,
    each side by side counterclockwise from +z)."""

    def __init__(self, point: tuple[float, float, float], segment: int = 0):
        super().__init__(f"point {point} is within {WIRE_GUARD_M} m of a wire line")
        self.point = point
        self.segment = segment


class ZeroCenterField(ValueError):
    """Raised when uniformity is requested but the center field is ~zero."""


@dataclass(frozen=True)
class HelmholtzPair:
    """Two identical square loops at z = +/- spacing/2, series-aiding.

    Positive current circulates counterclockwise seen from +z in both
    loops, so it produces a +z field at the pair center.
    """

    side: float
    spacing: float
    turns: int
    current: float

    def __post_init__(self):
        if not (math.isfinite(self.side) and self.side > 0.0):
            raise ValueError("side must be finite and > 0")
        if not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValueError("spacing must be finite and > 0")
        if self.turns < 1:
            raise ValueError("turns must be a positive integer")
        if not math.isfinite(self.current):
            raise ValueError("current must be finite")


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be an (N, 3) array, got shape {pts.shape}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite point: {tuple(pts[np.argmin(finite)].tolist())}")
    return pts


def _segment_row(start, end, turns: int, current: float) -> list[float]:
    # one row of the kernel's segment table: the endpoints in canonical
    # order, so that reversing start/end negates the field bit-for-bit, the
    # unit direction, the length and the signed gain N*mu0*I
    sign = 1.0
    if tuple(end) < tuple(start):
        start, end = end, start
        sign = -1.0
    sx, sy, sz = start
    ex, ey, ez = end
    dx = ex - sx
    dy = ey - sy
    dz = ez - sz
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    return [sx, sy, sz, ex, ey, ez, dx / length, dy / length, dz / length, length,
            sign * turns * MU0 * current]


def _segments_field(segments: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Field of each row of the segment table `segments` (k, 11) at each of
    `pts` (n, 3); returns (k, n, 3).

    Raises PointOnWire naming the first point within WIRE_GUARD_M of the
    first such segment's line; its `segment` is that segment's row.
    """
    sx, sy, sz, ex, ey, ez, lx, ly, lz, length, gain = segments.T[:, :, None]
    x, y, z = pts.T
    r1x = x - sx
    r1y = y - sy
    r1z = z - sz
    # signed projection of q-start onto the wire direction
    t1 = r1x * lx + r1y * ly + r1z * lz
    ax = r1x - t1 * lx
    ay = r1y - t1 * ly
    az = r1z - t1 * lz
    a = np.sqrt(ax * ax + ay * ay + az * az)
    on_wire = a <= WIRE_GUARD_M
    if on_wire.any():
        k = int(np.argmax(on_wire.any(axis=1)))
        raise PointOnWire(tuple(pts[np.argmax(on_wire[k])].tolist()), segment=k)

    d1 = np.sqrt(r1x * r1x + r1y * r1y + r1z * r1z)
    r2x = x - ex
    r2y = y - ey
    r2z = z - ez
    d2 = np.sqrt(r2x * r2x + r2y * r2y + r2z * r2z)

    cos1 = t1 / d1
    cos2 = (length - t1) / d2
    scale = gain / (4.0 * math.pi * a) * (cos1 + cos2)

    # unit vector along l_hat x a_hat
    inv_a = 1.0 / a
    px = (ly * az - lz * ay) * inv_a
    py = (lz * ax - lx * az) * inv_a
    pz = (lx * ay - ly * ax) * inv_a
    return np.stack((scale * px, scale * py, scale * pz), axis=-1)


def segment_field(start, end, current: float, points, turns: int = 1) -> np.ndarray:
    """Field at each of `points` (N, 3) of a straight filament carrying
    `current` from `start` to `end` (x, y, z); returns (N, 3).

    Closed form N*mu0*I/(4*pi*a) * (cos(theta2) + cos(theta1)) along the
    direction perpendicular to the wire-point plane, where a is the
    perpendicular distance from the point to the wire line and theta1/theta2
    are the end angles.  The sign follows the right-hand rule around the
    start->end direction, and `turns` models N coincident filaments.

    Raises ValueError for coincident endpoints, turns < 1, or a non-finite
    endpoint or point, and PointOnWire if a point lies within WIRE_GUARD_M of
    the wire line.
    """
    if turns < 1:
        raise ValueError("turns must be a positive integer")
    if not all(math.isfinite(v) for v in (*start, *end)):
        raise ValueError(f"non-finite segment endpoint: {tuple(start)} -> {tuple(end)}")
    if tuple(start) == tuple(end):
        raise ValueError("segment endpoints coincide")
    segment = np.array([_segment_row(start, end, turns, current)])
    return _segments_field(segment, _as_points(points))[0]


def _pair_segments(pair: HelmholtzPair) -> np.ndarray:
    # the eight sides in loop order: the loop at +spacing/2, then the one at
    # -spacing/2, each counterclockwise from +z
    s = 0.5 * pair.side
    h = 0.5 * pair.spacing
    rows = []
    for z in (+h, -h):
        corners = ((s, -s, z), (s, s, z), (-s, s, z), (-s, -s, z))
        rows += [_segment_row(corners[i], corners[(i + 1) % 4], pair.turns, pair.current)
                 for i in range(4)]
    return np.array(rows)


def pair_field(pair: HelmholtzPair, points) -> np.ndarray:
    """Field of the Helmholtz pair at each of `points` (N, 3); returns (N, 3).

    Superposition of the loop at +spacing/2 and the loop at -spacing/2,
    each the sum of its four sides traversed counterclockwise from +z.
    """
    pts = _as_points(points)
    segments = _pair_segments(pair)
    out = np.empty(pts.shape)
    for start in range(0, len(pts), KERNEL_CHUNK):
        stop = start + KERNEL_CHUNK
        try:
            sides = _segments_field(segments, pts[start:stop])
        except PointOnWire as hit:
            raise _first_on_wire(segments, pts[stop:], hit) from None
        loops = np.zeros((2, *sides.shape[1:]))
        for i in range(4):
            loops += sides[i::4]  # side i of both loops
        out[start:stop] = loops[0] + loops[1]
    return out


def _first_on_wire(segments: np.ndarray, rest: np.ndarray, hit: PointOnWire) -> PointOnWire:
    # `hit` is the first on-wire point of one chunk; a later chunk can still
    # hold a point on an earlier segment, which a per-segment evaluation of
    # all points would report first
    for start in range(0, len(rest), KERNEL_CHUNK):
        if hit.segment == 0:
            break
        try:
            _segments_field(segments[:hit.segment], rest[start:start + KERNEL_CHUNK])
        except PointOnWire as earlier:
            hit = earlier
    return hit


def _center_ref(pair: HelmholtzPair) -> float:
    return _reference(pair_field(pair, np.zeros((1, 3)))[0, 2])


def _reference(bz0: float) -> float:
    # |bz| at the center, the reference of every uniformity value
    ref = abs(bz0)
    if ref < 1e-15:
        raise ZeroCenterField("center field magnitude below 1e-15 T")
    return ref


def _uniformity_pct(bz: np.ndarray, ref: float) -> np.ndarray:
    return 100.0 * (np.abs(bz) - ref) / ref


def uniformity(pair: HelmholtzPair, points) -> np.ndarray:
    """Relative deviation of |bz| at each of `points` (N, 3) from the center
    value, in percent; returns (N,).

    The points and the center go through one pair_field call, the center as
    an extra first row.  The points are validated before it is added, so a
    malformed or non-finite point raises ValueError, then a point on a wire
    PointOnWire, and only then a center reference below 1e-15 T
    ZeroCenterField.
    """
    pts = _as_points(points)
    bz = pair_field(pair, np.concatenate((np.zeros((1, 3)), pts)))[:, 2]
    return _uniformity_pct(bz[1:], _reference(bz[0]))


@dataclass(frozen=True)
class GridSpec:
    """Rectilinear sample grid: (lo, hi, n) per axis, n >= 1.

    n == 1 samples the single coordinate lo.  Points are ordered row-major
    with x outermost and z innermost.
    """

    x: tuple[float, float, int]
    y: tuple[float, float, int]
    z: tuple[float, float, int]

    def __post_init__(self):
        for name, (lo, hi, n) in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} axis ends must be finite")
            if n < 1:
                raise ValueError(f"{name} axis count must be >= 1")
            if n == 1 and lo != hi:
                raise ValueError(f"{name} axis with n=1 requires lo == hi")

    @staticmethod
    def _axis(lo: float, hi: float, n: int) -> np.ndarray:
        if n == 1:
            return np.array([lo], dtype=float)
        step = (hi - lo) / (n - 1)
        return lo + np.arange(n) * step

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.x[2], self.y[2], self.z[2])

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def points(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Grid points start..stop-1 in row-major order (all of them by
        default) as an (n, 3) array."""
        axes = (self._axis(*self.x), self._axis(*self.y), self._axis(*self.z))
        index = np.unravel_index(np.arange(start, self.size if stop is None else stop), self.shape)
        return np.stack([a[i] for a, i in zip(axes, index)], axis=1)


def field_map_blocks(pair: HelmholtzPair, grid: GridSpec
                     ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Field and uniformity over a grid in consecutive row-major blocks of
    at most MAP_BLOCK points.

    Yields (points (n, 3), field (n, 3), uniformity_pct (n,)) per block.
    The center reference is taken once, before the first block, so a zero
    center field raises ZeroCenterField before any block; a grid point on a
    wire line raises PointOnWire naming the point when its block is reached.
    """
    ref = _center_ref(pair)
    for start in range(0, grid.size, MAP_BLOCK):
        pts = grid.points(start, min(start + MAP_BLOCK, grid.size))
        b = pair_field(pair, pts)
        yield pts, b, _uniformity_pct(b[:, 2], ref)


def field_map(pair: HelmholtzPair, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field and uniformity over a grid, in deterministic row-major order.

    Returns (points (N, 3), field (N, 3), uniformity_pct (N,)): the blocks
    of `field_map_blocks` joined, bit-for-bit one pair_field call over all
    points.  A grid point on a wire line raises PointOnWire naming the point.
    """
    blocks = list(field_map_blocks(pair, grid))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


FIELD_MAP_HEADER = ("x_m", "y_m", "z_m", "bx_T", "by_T", "bz_T", "uniformity_pct")


def write_field_map_csv(path, blocks) -> None:
    """Write field-map blocks of (points, field, uniformity_pct), as
    `field_map_blocks` yields them, as CSV with round-trip decimal
    formatting.

    The rows go to `<path>.part`, which replaces `path` only once every
    block is written: an error in a later block (a grid point on a wire)
    leaves neither a partial map nor the temporary file behind.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        write_repr_csv(part, FIELD_MAP_HEADER, ((*p.T, *b.T, h) for p, b, h in blocks))
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
