"""Independent brute-force references used to check closed-form results.

The field oracle integrates the line-integral law dB = N*mu0*I (dl x r)/(4pi |r|^3)
directly by the midpoint rule; it shares no code with the package's closed
forms.  `segment_field_scalar` is the one exception, a per-point reference
for the bit-for-bit behaviour of the array kernel.
"""

from __future__ import annotations

import math

import numpy as np

MU0 = 4.0e-7 * np.pi


def wire_field_numeric(p0, p1, q, current, turns=1, subdivisions=1_000_000):
    """Midpoint-rule Biot-Savart integral along the straight wire p0 -> p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    q = np.asarray(q, dtype=float)
    ts = (np.arange(subdivisions) + 0.5) / subdivisions
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    dl = (p1 - p0) / subdivisions
    r = q[None, :] - pts
    r3 = np.sum(r * r, axis=1) ** 1.5
    cross = np.cross(np.broadcast_to(dl, r.shape), r)
    db = turns * MU0 * current / (4.0 * np.pi) * cross / r3[:, None]
    return db.sum(axis=0)


def square_loop_field_numeric(side, z_offset, current, turns, q, subdivisions=1_000_000):
    """Brute-force field of the square loop (counterclockwise seen from +z)."""
    s = side / 2.0
    corners = [(s, -s), (s, s), (-s, s), (-s, -s)]
    total = np.zeros(3)
    for i in range(4):
        x0, y0 = corners[i]
        x1, y1 = corners[(i + 1) % 4]
        total += wire_field_numeric(
            (x0, y0, z_offset), (x1, y1, z_offset), q, current, turns, subdivisions
        )
    return total


def pair_field_numeric(side, spacing, turns, current, q, subdivisions=1_000_000):
    """Brute-force field of the Helmholtz pair."""
    h = spacing / 2.0
    return square_loop_field_numeric(
        side, +h, current, turns, q, subdivisions
    ) + square_loop_field_numeric(side, -h, current, turns, q, subdivisions)


def segment_field_scalar(start, end, current, turns, q):
    """Per-point evaluation of the package's segment closed form, in plain
    Python floats and the same operation order.

    Not an independent oracle: it is the reference that the array kernel
    must match bit-for-bit at every point.
    """
    sign = 1.0
    if tuple(end) < tuple(start):
        start, end = end, start
        sign = -1.0
    (sx, sy, sz), (ex, ey, ez), (qx, qy, qz) = start, end, q
    dx, dy, dz = ex - sx, ey - sy, ez - sz
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    lx, ly, lz = dx / length, dy / length, dz / length
    r1x, r1y, r1z = qx - sx, qy - sy, qz - sz
    t1 = r1x * lx + r1y * ly + r1z * lz
    ax, ay, az = r1x - t1 * lx, r1y - t1 * ly, r1z - t1 * lz
    a = math.sqrt(ax * ax + ay * ay + az * az)
    d1 = math.sqrt(r1x * r1x + r1y * r1y + r1z * r1z)
    r2x, r2y, r2z = qx - ex, qy - ey, qz - ez
    d2 = math.sqrt(r2x * r2x + r2y * r2y + r2z * r2z)
    scale = sign * turns * MU0 * current / (4.0 * math.pi * a) * (t1 / d1 + (length - t1) / d2)
    inv_a = 1.0 / a
    return (
        scale * ((ly * az - lz * ay) * inv_a),
        scale * ((lz * ax - lx * az) * inv_a),
        scale * ((lx * ay - ly * ax) * inv_a),
    )
