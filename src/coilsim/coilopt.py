"""Square-Helmholtz geometry optimization.

The uniform region around the pair center is maximized when the second axial
derivative of the center field vanishes.  With side = n * spacing that
condition reduces to a sextic in n whose unique positive root is n ~ 1.8365;
this module finds the root, evaluates the second-derivative closed form, and
measures uniform-region extents of a given pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .magnetics import MU0, HelmholtzPair, _reference, _uniformity_pct, pair_field


# Positions per axis in each pair_field call of uniform_region: the scan's
# blocks start at SCAN_FIRST_BLOCK positions and double up to SCAN_BLOCK,
# which bounds its memory.  A call holds the block on every axis whose edge
# is still to be found, and the first call the origin too.  An axis whose
# edge lies k positions out costs fewer than 2k + SCAN_FIRST_BLOCK
# evaluations, and the scan about log2(k / SCAN_FIRST_BLOCK) + 1 calls.
# A call costs some 50 us before its first point and about 0.2 us a point
# (x86-64, numpy 2.4), so a wider first block pays: at 128, the 0.1% and
# 1% edges of coils of side 0.3 to 1.2 m, 30 to 230 positions out at 1 mm,
# take one or two calls, and a scan of one of each ran about 15% faster
# than at 64 or 256.
SCAN_FIRST_BLOCK = 128
SCAN_BLOCK = 4096


class NoBracket(ValueError):
    """Raised when the bisection bracket does not straddle a sign change."""


@dataclass(frozen=True)
class OptimalityResult:
    """Root of the optimality polynomial: side = n * spacing."""

    n: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class UniformRegion:
    """Half-extents (in units of the spacing d) of the region around the
    center where |uniformity| stays within `threshold` percent."""

    threshold: float
    extent_x_over_d: float
    extent_y_over_d: float


def _sextic(n2: float) -> float:
    return ((-5.0 * n2 + 11.0) * n2 + 18.0) * n2 + 6.0


def optimality_polynomial(n: float) -> float:
    """-5 n^6 + 11 n^4 + 18 n^2 + 6, whose positive root is the optimal
    side/spacing ratio."""
    return _sextic(n * n)


def solve_optimal_ratio(lo: float = 1.0, hi: float = 3.0) -> OptimalityResult:
    """Unique positive root of the optimality polynomial by bisection.

    The default bracket [1, 3] contains the root; the result is insensitive
    to widening it.  Raises NoBracket if the endpoints do not straddle a
    sign change.
    """
    f_lo = optimality_polynomial(lo)
    f_hi = optimality_polynomial(hi)
    if f_lo == 0.0:
        return OptimalityResult(lo, 0.0, 0)
    if f_hi == 0.0:
        return OptimalityResult(hi, 0.0, 0)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoBracket(f"no sign change on [{lo}, {hi}]")

    iterations = 0
    a, fa, b = lo, f_lo, hi
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break  # interval is one ulp wide
        f_mid = optimality_polynomial(mid)
        iterations += 1
        if f_mid == 0.0:
            a = mid
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, fa):
            a, fa = mid, f_mid
        else:
            b = mid
    # report whichever endpoint evaluates closer to zero
    fa = optimality_polynomial(a)
    fb = optimality_polynomial(b)
    n, res = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    return OptimalityResult(n, res, iterations)


def second_derivative_center(pair: HelmholtzPair) -> float:
    """Closed-form second axial derivative of the center field, T/m^2.

    Evaluated with n = side/spacing.  The overall constant is kept verbatim
    even though only the zero matters; the tests check it against a
    finite-difference estimate from an independent on-axis closed form.
    """
    d = pair.spacing
    if d <= 0.0:
        raise ValueError("spacing must be > 0")
    n2 = (pair.side / d) ** 2
    poly = _sextic(n2)
    denom_poly = ((((4.0 * n2 + 16.0) * n2 + 25.0) * n2 + 19.0) * n2 + 7.0) * n2 + 1.0
    return (
        64.0
        * pair.current
        * pair.turns
        * MU0
        * n2
        * poly
        / (math.pi * d * d * math.sqrt(d * d * (2.0 * n2 + 1.0)) * denom_poly)
    )


def optimal_spacing(side: float) -> float:
    """Spacing that maximizes center uniformity for a given side length."""
    if side <= 0.0:
        raise ValueError("side must be > 0")
    return side / solve_optimal_ratio().n


def uniform_region(
    pair: HelmholtzPair, threshold: float, resolution: float = 1e-3
) -> UniformRegion:
    """Scan outward from the origin along +x and +y on the z = 0 plane and
    return the largest extent (normalized by the spacing) within which every
    sample satisfies |uniformity| <= threshold percent.

    `resolution` is the scan step in meters (default 1 mm); the positions
    are those of `scan_positions`.  Both axes step through the same blocks
    of positions, and each block of both is one pair_field call.  The first
    call also holds the origin, whose |bz| is the uniformity reference, so
    a zero center field raises ZeroCenterField before any extent is known.
    An axis drops out of the blocks once one holds its first exceedance.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be > 0")
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError("resolution must be finite and > 0")

    d = pair.spacing
    last = 1.5 * max(d, pair.side)
    axes = [0, 1]  # axes whose edge is not yet found
    ends = {}  # axis -> the last position before its first exceedance
    head = np.zeros((1, 3))  # the origin, evaluated with the first block
    reached = 0.0  # the last position evaluated
    size = SCAN_FIRST_BLOCK
    while axes:
        # `reached`, then the block
        walk = scan_positions(reached, resolution, last, min(size, SCAN_BLOCK) + 1)
        block = walk[1:]
        if not (block.size or head.size):
            break
        pts = np.zeros((len(axes), block.size, 3))
        for rows, axis in zip(pts, axes):
            rows[:, axis] = block
        bz = pair_field(pair, np.concatenate((head, pts.reshape(-1, 3))))[:, 2]
        if head.size:
            ref, head, bz = _reference(bz[0]), head[:0], bz[1:]
        over = np.abs(_uniformity_pct(bz, ref)).reshape(len(axes), -1) > threshold
        for axis, hit in zip(axes, over):
            if hit.any():
                ends[axis] = float(walk[hit.argmax()])
        axes = [axis for axis in axes if axis not in ends]
        reached = float(walk[-1])
        size *= 2
    return UniformRegion(threshold, ends.get(0, reached) / d, ends.get(1, reached) / d)


def scan_positions(first: float, step: float, last: float, count: int) -> np.ndarray:
    """The first `count` of first, first + step, ... that are <= last, as an
    array.  Each position is the previous one plus step, rounded, so the
    n-th carries the rounding of n additions rather than n * step: the bits
    of `r += step` repeated from first."""
    steps = np.full(count, float(step))
    steps[:1] = first
    positions = np.add.accumulate(steps)
    return positions[positions <= last]
