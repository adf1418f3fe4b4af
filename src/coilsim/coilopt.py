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

from .magnetics import MU0, HelmholtzPair, onaxis_field, uniformity


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


def optimality_polynomial(n: float) -> float:
    """-5 n^6 + 11 n^4 + 18 n^2 + 6, whose positive root is the optimal
    side/spacing ratio."""
    n2 = n * n
    return ((-5.0 * n2 + 11.0) * n2 + 18.0) * n2 + 6.0


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
    even though only the zero matters; see second_derivative_center_fd for an
    independent finite-difference estimate.
    """
    d = pair.spacing
    if d <= 0.0:
        raise ValueError("spacing must be > 0")
    n2 = (pair.side / d) ** 2
    poly = ((-5.0 * n2 + 11.0) * n2 + 18.0) * n2 + 6.0
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


def second_derivative_center_fd(pair: HelmholtzPair, rel_step: float = 1e-4) -> float:
    """Central finite-difference estimate of the second axial derivative of
    the on-axis field at z = 0, step rel_step * spacing."""
    h = rel_step * pair.spacing
    f0 = onaxis_field(pair, 0.0)
    fp = onaxis_field(pair, h)
    fm = onaxis_field(pair, -h)
    return (fp - 2.0 * f0 + fm) / (h * h)


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

    `resolution` is the scan step in meters (default 1 mm).
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be > 0")
    if resolution <= 0.0:
        raise ValueError("resolution must be > 0")

    d = pair.spacing
    positions = scan_positions(resolution, resolution, 1.5 * max(d, pair.side))

    def scan(axis: int) -> float:
        pts = np.zeros((len(positions), 3))
        pts[:, axis] = positions
        over = np.flatnonzero(np.abs(uniformity(pair, pts)) > threshold)
        k = over[0] if over.size else len(positions)
        return (positions[k - 1] if k else 0.0) / d

    return UniformRegion(threshold, scan(0), scan(1))


def scan_positions(first: float, step: float, last: float) -> list[float]:
    """first, first + step, ... while <= last, by repeated addition, so the
    n-th position carries the rounding of n additions rather than n * step."""
    positions = []
    r = first
    while r <= last:
        positions.append(r)
        r += step
    return positions
