"""Analytic magnetostatics for straight segments and square Helmholtz pairs.

All quantities are SI: coordinates in meters, currents in amperes, flux
density in tesla.  The pair axis is z; the two loops are centered on the
z-axis at z = +/- spacing/2 with sides parallel to the x/y axes.  Arbitrary
placements are handled by transforming the query points, not the coils.

Field functions take the query points as an (N, 3) array of rows (x, y, z)
and return one result row per point: an (N, 3) array of (bx, by, bz) from
`segment_field` and `pair_field`, an (N,) array from `uniformity`.  There is
no per-point path: callers pass all their points in one call.

Every output is bit-for-bit what a per-point evaluation of the same closed
form gives, so shipped CSVs do not change when the batch size does.  That
fixes the operation order: the segment kernel works per component, with the
projection t1 = r1x*lx + r1y*ly + r1z*lz written out rather than as a
matrix product, the prefactor multiplied left to right, and each loop summed
segment by segment from zero before the two loops are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._table import write_repr_csv

MU0 = 4.0e-7 * math.pi  # vacuum permeability, T*m/A (exact in SI-2019 sense)

# Query points closer than this to a wire line are treated as singular.
WIRE_GUARD_M = 1e-12


class PointOnWire(ValueError):
    """Raised when a field is requested on (or within the guard distance of)
    a wire line, where the filament model is singular.  `point` is the first
    offending (x, y, z)."""

    def __init__(self, point: tuple[float, float, float]):
        super().__init__(f"point {point} is within {WIRE_GUARD_M} m of a wire line")
        self.point = point


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
    pts = _as_points(points)
    # evaluate with a canonical endpoint order so that reversing start/end
    # negates the result bit-for-bit
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
    lx, ly, lz = dx / length, dy / length, dz / length

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
        raise PointOnWire(tuple(pts[np.argmax(on_wire)].tolist()))

    d1 = np.sqrt(r1x * r1x + r1y * r1y + r1z * r1z)
    r2x = x - ex
    r2y = y - ey
    r2z = z - ez
    d2 = np.sqrt(r2x * r2x + r2y * r2y + r2z * r2z)

    cos1 = t1 / d1
    cos2 = (length - t1) / d2
    scale = sign * turns * MU0 * current / (4.0 * math.pi * a) * (cos1 + cos2)

    # unit vector along l_hat x a_hat
    inv_a = 1.0 / a
    px = (ly * az - lz * ay) * inv_a
    py = (lz * ax - lx * az) * inv_a
    pz = (lx * ay - ly * ax) * inv_a
    return np.stack((scale * px, scale * py, scale * pz), axis=1)


def pair_field(pair: HelmholtzPair, points) -> np.ndarray:
    """Field of the Helmholtz pair at each of `points` (N, 3); returns (N, 3).

    Superposition of the loop at +spacing/2 and the loop at -spacing/2,
    each the sum of its four sides traversed counterclockwise from +z.
    """
    s = 0.5 * pair.side
    h = 0.5 * pair.spacing
    loops = []
    for z in (+h, -h):
        corners = ((s, -s, z), (s, s, z), (-s, s, z), (-s, -s, z))
        b = np.zeros(np.shape(points))
        for i in range(4):
            b += segment_field(corners[i], corners[(i + 1) % 4], pair.current, points, pair.turns)
        loops.append(b)
    return loops[0] + loops[1]


def _onaxis_single(side: float, z_rel: float, turns: int, current: float) -> float:
    # z-component of one square loop's field on its axis, z_rel measured
    # from the loop plane
    h = 0.5 * side
    h2 = h * h
    u = z_rel * z_rel
    return (2.0 * turns * MU0 * current / math.pi) * (
        h2 / ((h2 + u) * math.sqrt(2.0 * h2 + u))
    )


def onaxis_field(pair: HelmholtzPair, z: float) -> float:
    """Closed-form bz on the pair axis at height z, tesla.

    No singularity for spacing > 0; valid for all z.
    """
    half = 0.5 * pair.spacing
    return _onaxis_single(pair.side, z - half, pair.turns, pair.current) + _onaxis_single(
        pair.side, z + half, pair.turns, pair.current
    )


def _uniformity_pct(pair: HelmholtzPair, bz: np.ndarray) -> np.ndarray:
    ref = abs(pair_field(pair, np.zeros((1, 3)))[0, 2])
    if ref < 1e-15:
        raise ZeroCenterField("center field magnitude below 1e-15 T")
    return 100.0 * (np.abs(bz) - ref) / ref


def uniformity(pair: HelmholtzPair, points) -> np.ndarray:
    """Relative deviation of |bz| at each of `points` (N, 3) from the center
    value, in percent; returns (N,).

    Raises ZeroCenterField if the center reference is below 1e-15 T.
    """
    return _uniformity_pct(pair, pair_field(pair, points)[:, 2])


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

    def points(self) -> np.ndarray:
        """All grid points as an (N, 3) array."""
        axes = np.meshgrid(self._axis(*self.x), self._axis(*self.y), self._axis(*self.z),
                           indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, 3)


def field_map(pair: HelmholtzPair, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field and uniformity over a grid, in deterministic row-major order.

    Returns (points (N, 3), field (N, 3), uniformity_pct (N,)).  A grid
    point on a wire line raises PointOnWire naming the point.
    """
    pts = grid.points()
    b = pair_field(pair, pts)
    return pts, b, _uniformity_pct(pair, b[:, 2])


FIELD_MAP_HEADER = ("x_m", "y_m", "z_m", "bx_T", "by_T", "bz_T", "uniformity_pct")


def write_field_map_csv(path, points, field, uniformity_pct) -> None:
    """Write a field map as CSV with round-trip decimal formatting."""
    table = np.column_stack((points, field, uniformity_pct))
    write_repr_csv(path, FIELD_MAP_HEADER, table.tolist())
