"""Analytic magnetostatics for straight segments and square Helmholtz pairs.

All quantities are SI: coordinates in meters, currents in amperes, flux
density in tesla.  The pair axis is z; the two loops are centered on the
z-axis at z = +/- spacing/2 with sides parallel to the x/y axes.  Arbitrary
placements are handled by transforming the query points, not the coils.

Field functions take the query points as an (N, 3) array of rows (x, y, z)
and return one result row per point: an (N, 3) array of (bx, by, bz) from
`segment_field` and `pair_field`, an (N,) array from `uniformity`.  There is
no per-point path.  A grid map has one producer, `write_field_map_csv`: it
takes the center field once, then runs the grid through the same kernel in
the CSV writer's own blocks of rows and streams each to it, so its memory
stays bounded at any grid size.  The coordinates go to the writer as grid
levels with per-row level indices, so each level is formatted once.

The Biot-Savart segment law is written once, in one kernel over
(wires x points), for wires parallel to a coordinate axis, the only ones
the package builds: a wire table lists corners and, for each straight wire
between two of them, its canonical endpoints (as corner indices), its axis
and its length and signed gain N*mu0*I as (k, 1) columns.  The kernel
computes each corner's offsets to every point, their squares and its
distance once, for both wires that meet at the corner.  `segment_field` is
the case of one wire between two corners; a pair is eight sides between
eight corners, its table built once per HelmholtzPair.  `pair_field`
validates the points once and evaluates all eight sides in one kernel
call per chunk of at most KERNEL_CHUNK points.

Every pair field is bit-for-bit what a per-point, per-segment evaluation
of the general (oblique) closed form gives, so shipped CSVs do not change
when the batch, chunk or block size does.  On a wire along +axis that
form's length sqrt(d*d) is d, and its unit direction exactly 1 along the
axis and +0 across it, so every term the kernel drops is an exact +-0: the
projection t1 is the offset along the axis, a^2 the sum of the two
across-wire squares, and the cross product (0, -r_v, r_u) / a in the
(axis, u, v) frame.  Where those terms are nonzero they are the same
floats, in the same operation order; elsewhere only the sign of an exact
zero can differ.  Each loop is summed side by side from +0.0 before the
two loops are added, and adding +-0 to such a sum never changes its bits.
`segment_field` may differ from the general form in the sign of a zero.

A point on a wire is reported in row order: PointOnWire names the first
point of the call that lies within WIRE_GUARD_M of any wire, and the first
wire it lies on.  Chunks and blocks run in row order, so the first one that
raises holds that point.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _table

MU0 = 4.0e-7 * math.pi  # vacuum permeability, T*m/A (exact in SI-2019 sense)

# Query points closer than this to a wire line are treated as singular.
WIRE_GUARD_M = 1e-12

# Points per segment-kernel call in pair_field: with the eight corners and
# sides of a pair, the corner offsets, their squares and the result each
# hold 3 * 8 * 512 = 12,288 values, and each per-side term 8 * 512.
KERNEL_CHUNK = 512


class PointOnWire(ValueError):
    """Raised when a field is requested on (or within the guard distance of)
    a wire line, where the filament model is singular.  `point` is the
    first such (x, y, z) in row order, and `segment` the index of the first
    wire it lies on, in the order the call evaluates them (for a pair: the
    loop at +spacing/2, then the other, each side by side counterclockwise
    from +z)."""

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
        _check_drive(self.turns, self.current)

    @functools.cached_property
    def _wires(self) -> "_Wires":
        # the eight sides in loop order: the loop at +spacing/2, then the one
        # at -spacing/2, each counterclockwise from +z
        s = 0.5 * self.side
        h = 0.5 * self.spacing
        corners = [(x, y, z) for z in (+h, -h) for x, y in ((s, -s), (s, s), (-s, s), (-s, -s))]
        sides = [(4 * lp + i, 4 * lp + (i + 1) % 4) for lp in range(2) for i in range(4)]
        return _wire_table(corners, sides, self.turns, self.current)


def _check_drive(turns, current) -> None:
    if not (isinstance(turns, numbers.Integral) and 1 <= turns < 2**1024):
        raise ValueError("turns must be a positive integer within the float range")
    if not math.isfinite(current):
        raise ValueError("current must be finite")


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be an (N, 3) array, got shape {pts.shape}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite point: {tuple(pts[np.argmin(finite)].tolist())}")
    return pts


class _Wires(NamedTuple):
    """The kernel's wire table: k straight wires between m corners.

    Each wire runs along +axis (0, 1 or 2 for x, y or z), its endpoints in
    canonical order, so that reversing start and end negates its field
    bit-for-bit; `start`, `end` and `axis` are (k,) indices, the first two
    into `corners`, a (3, m, 1) array of x, y and z columns.  length and
    gain (the signed N*mu0*I) are (k, 1) columns.
    """

    corners: np.ndarray
    start: np.ndarray
    end: np.ndarray
    axis: np.ndarray
    length: np.ndarray
    gain: np.ndarray


def _wire_table(corners, sides, turns: int, current: float) -> _Wires:
    """The table of wires carrying `current` from corners[i] to corners[j]
    for each (i, j) of `sides`.  Raises ValueError for a wire whose
    endpoints differ in more than one coordinate."""
    index, rows = [], []
    for i, j in sides:
        along = [k for k in range(3) if corners[i][k] != corners[j][k]]
        if len(along) != 1:
            raise ValueError(f"segment {tuple(corners[i])} -> {tuple(corners[j])} is not parallel to an axis")
        k = along[0]
        i, j, sign = (i, j, 1.0) if corners[i][k] < corners[j][k] else (j, i, -1.0)
        index.append((i, j, k))
        rows.append((corners[j][k] - corners[i][k], sign * turns * MU0 * current))
    return _Wires(np.array(corners, dtype=float).T[:, :, None], *np.array(index).T,
                  *np.array(rows).T[:, :, None])


def _wires_field(wires: _Wires, pts: np.ndarray) -> np.ndarray:
    """Field of each wire of `wires` at each of `pts` (n, 3); returns
    (3, k, n): bx, by and bz of each wire at each point.

    Each corner's offsets to every point, their squares and its distance
    are computed once, for both wires that meet there.  Raises PointOnWire
    naming the first point, in row order, within WIRE_GUARD_M of any wire's
    line; its `segment` is the row of the first such wire.
    """
    offset = np.empty((*wires.corners.shape[:2], len(pts)))  # q - corner
    np.subtract(pts.T[:, None, :], wires.corners, out=offset)
    with np.errstate(over="ignore"):  # inf beyond 1e154 m, where a shorter wire's field is 0
        sq = offset * offset
    dist = np.sqrt(sq[0] + sq[1] + sq[2])
    axis, start = wires.axis, wires.start
    u, v = (axis + 1) % 3, (axis + 2) % 3  # the across-wire axes
    t1 = offset[axis, start]  # q - start along the wire
    a = np.sqrt(sq[u, start] + sq[v, start])  # and its distance from the line
    on_wire = a <= WIRE_GUARD_M
    if on_wire.any():
        i = int(np.argmax(on_wire.any(axis=0)))
        raise PointOnWire(tuple(pts[i].tolist()), segment=int(np.argmax(on_wire[:, i])))

    cos1 = t1 / dist[start]
    cos2 = (wires.length - t1) / dist[wires.end]
    scale = wires.gain / (4.0 * math.pi * a) * (cos1 + cos2)

    # along axis x a_hat, the unit vector (-r_v, r_u) / a across the wire
    inv_a = 1.0 / a
    b = np.zeros((3, *a.shape))
    wire = np.arange(len(axis))
    b[u, wire] = scale * (-offset[v, start] * inv_a)
    b[v, wire] = scale * (offset[u, start] * inv_a)
    return b


def segment_field(start, end, current: float, points, turns: int = 1) -> np.ndarray:
    """Field at each of `points` (N, 3) of a straight filament parallel to a
    coordinate axis, carrying `current` from `start` to `end` (x, y, z);
    returns (N, 3).

    Closed form N*mu0*I/(4*pi*a) * (cos(theta2) + cos(theta1)) along the
    direction perpendicular to the wire-point plane, where a is the
    perpendicular distance from the point to the wire line and theta1/theta2
    are the end angles.  The sign follows the right-hand rule around the
    start->end direction, and `turns` models N coincident filaments.

    Raises ValueError for coincident endpoints or ones that differ in more
    than one coordinate, turns not a positive integer within the float
    range, or a non-finite current, endpoint or point, and PointOnWire if a
    point lies within WIRE_GUARD_M of the wire line.
    """
    _check_drive(turns, current)
    if not all(math.isfinite(v) for v in (*start, *end)):
        raise ValueError(f"non-finite segment endpoint: {tuple(start)} -> {tuple(end)}")
    if tuple(start) == tuple(end):
        raise ValueError("segment endpoints coincide")
    wire = _wire_table((tuple(start), tuple(end)), [(0, 1)], turns, current)
    return _wires_field(wire, _as_points(points))[:, 0].T


def pair_field(pair: HelmholtzPair, points) -> np.ndarray:
    """Field of the Helmholtz pair at each of `points` (N, 3); returns (N, 3).

    Superposition of the loop at +spacing/2 and the loop at -spacing/2,
    each the sum of its four sides traversed counterclockwise from +z.
    """
    pts = _as_points(points)
    wires = pair._wires
    out = np.empty((3, len(pts)))
    for start in range(0, len(pts), KERNEL_CHUNK):
        stop = start + KERNEL_CHUNK
        sides = _wires_field(wires, pts[start:stop])
        loops = np.zeros((3, 2, sides.shape[2]))
        for i in range(4):
            loops += sides[:, i::4]  # side i of both loops
        np.add(loops[:, 0], loops[:, 1], out=out[:, start:stop])
    return out.T


def _uniformity_pct(bz: np.ndarray, bz0: float) -> np.ndarray:
    # relative to |bz0|, the center's, the reference of every uniformity value
    ref = abs(bz0)
    if ref < 1e-15:
        raise ZeroCenterField("center field magnitude below 1e-15 T")
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
    return _uniformity_pct(bz[1:], bz[0])


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
        if self.size > np.iinfo(np.intp).max // 8:  # no array holds 8-byte indices of its points
            raise ValueError("grid has more points than an array can hold")

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

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The x, y and z levels of the grid."""
        return self._axis(*self.x), self._axis(*self.y), self._axis(*self.z)

    def index(self, start: int, stop: int) -> tuple[np.ndarray, ...]:
        """The x, y and z level indices of the grid points start..stop-1
        (those of them the grid holds) in row-major order."""
        return np.unravel_index(np.arange(start, min(stop, self.size)), self.shape)


FIELD_MAP_HEADER = ("x_m", "y_m", "z_m", "bx_T", "by_T", "bz_T", "uniformity_pct")


def write_field_map_csv(path, pair: HelmholtzPair, grid: GridSpec) -> float:
    """Write the field and uniformity of `pair` over `grid` as CSV, one row
    per grid point in row-major order, with round-trip decimal formatting;
    returns the center bz, the reference of the uniformity column.

    The center is evaluated first, so a zero center field raises
    ZeroCenterField before any file is opened.  The grid then goes through
    pair_field _table.WRITE_ROWS points at a time, one write of the CSV
    writer each, its coordinates passed as grid levels and per-row level
    indices, so each level is formatted once.  The write is atomic, so an
    error in a later block (a grid point on a wire, named by PointOnWire)
    leaves no partial map behind.
    """
    bz0 = float(pair_field(pair, np.zeros((1, 3)))[0, 2])
    _uniformity_pct(np.zeros(0), bz0)  # a zero center raises before any file is opened
    axes = grid.axes()

    def blocks():
        for start in range(0, grid.size, _table.WRITE_ROWS):
            index = grid.index(start, start + _table.WRITE_ROWS)
            b = pair_field(pair, np.stack([a[i] for a, i in zip(axes, index)], axis=1))
            yield (*map(_table.Levels, axes, index), *b.T, _uniformity_pct(b[:, 2], bz0))

    _table.write_repr_csv(path, FIELD_MAP_HEADER, blocks())
    return bz0
