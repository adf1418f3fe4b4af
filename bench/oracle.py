"""Output checks for the benchmark workloads.

Nothing here imports coilsim: the fields come from the benchmark's own numpy
form of the Biot-Savart law for a finite straight segment,

    B = mu0 I N / (4 pi) * (|r1| + |r2|) (r1 x r2) / (|r1| |r2| (|r1| |r2| + r1 . r2)),

with r1, r2 the vectors from the segment's start and end to the field point.
The package evaluates the same law through end angles, so the two agree only
to rounding, and the tolerances below are stated for that.

Each check raises CheckFailed with a reason; a check that returns has passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

MU0 = 4.0e-7 * math.pi

# Field components: |B_csv - B_oracle| <= FIELD_RTOL * |B_oracle| per component.
FIELD_RTOL = 1e-9
# Uniformity (percent, absolute): both forms round at ~1e-13 %.
UNIFORMITY_ATOL_PCT = 1e-7
# Grid coordinates, metres.
COORD_ATOL_M = 1e-12
# z-mirror symmetry of bz, relative to the largest |bz| on the grid.
MIRROR_RTOL = 1e-9
# Centre curvature at the optimal spacing, relative to B0 / d^2.
CURVATURE_RTOL = 1e-6
# Optimality-polynomial residual, relative to the sum of its term magnitudes.
POLY_RTOL = 1e-12
# Identification: final MSE must lie in [lo, hi] * sigma^2.
MSE_FLOOR_FACTORS = (0.5, 2.0)


class CheckFailed(AssertionError):
    """A workload output failed its correctness check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def pair_field(points: np.ndarray, side: float, spacing: float, turns: int, current: float) -> np.ndarray:
    """(M, 3) field of a square Helmholtz pair at (M, 3) points, tesla.

    Loops of side `side` at z = +/- spacing/2, current counter-clockwise
    seen from +z.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    s, h = 0.5 * side, 0.5 * spacing
    corners = ((s, -s), (s, s), (-s, s), (-s, -s))
    b = np.zeros_like(p)
    k = MU0 * current * turns / (4.0 * math.pi)
    for z0 in (h, -h):
        for i in range(4):
            a = np.array([*corners[i], z0])
            e = np.array([*corners[(i + 1) % 4], z0])
            r1 = p - a
            r2 = p - e
            n1 = np.linalg.norm(r1, axis=1)
            n2 = np.linalg.norm(r2, axis=1)
            dot = np.einsum("ij,ij->i", r1, r2)
            scale = k * (n1 + n2) / (n1 * n2 * (n1 * n2 + dot))
            b += scale[:, None] * np.cross(r1, r2)
    return b


def center_bz(side: float, spacing: float, turns: int, current: float) -> float:
    return float(pair_field(np.zeros((1, 3)), side, spacing, turns, current)[0, 2])


def _read_rows(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 1 and tuple(rows[0]) == header, f"{path.name}: header {rows[:1]} != {list(header)}")
    return rows[1:]


def _floats(rows: list[list[str]], path: Path) -> np.ndarray:
    try:
        arr = np.array([[float(v) for v in r] for r in rows], dtype=float)
    except ValueError as err:
        raise CheckFailed(f"{path.name}: unparsable value ({err})") from None
    return arr


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    return np.array([lo]) if n == 1 else lo + np.arange(n) * ((hi - lo) / (n - 1))


FIELD_HEADER = ("x_m", "y_m", "z_m", "bx_T", "by_T", "bz_T", "uniformity_pct")


def check_field_map(path: Path, coil: dict, axes_m: tuple, sample: np.ndarray) -> None:
    """field_map.csv: one row per grid point in x-outer, z-inner order,
    coordinates on the grid, sampled rows equal to the closed form, bz
    mirror-symmetric in z over the whole grid.

    coil: side_m, spacing_m, turns, current_a.  axes_m: three (lo, hi, n)
    in metres, z symmetric about 0.  sample: row indices to compare.
    """
    data = _floats(_read_rows(path, FIELD_HEADER), path)
    nx, ny, nz = (a[2] for a in axes_m)
    _require(data.shape == (nx * ny * nz, 7), f"{path.name}: {data.shape[0]} rows, expected {nx * ny * nz}")
    _require(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite values")

    gx, gy, gz = np.meshgrid(*(_axis(*a) for a in axes_m), indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    bad = np.abs(data[:, :3] - grid) > COORD_ATOL_M
    _require(not bad.any(), f"{path.name}: {int(bad.any(axis=1).sum())} rows off the grid")

    args = (coil["side_m"], coil["spacing_m"], coil["turns"], coil["current_a"])
    ref = pair_field(data[sample, :3], *args)
    got = data[sample, 3:6]
    tol = FIELD_RTOL * np.linalg.norm(ref, axis=1)[:, None]
    bad = np.abs(got - ref) > tol
    _require(not bad.any(), f"{path.name}: {int(bad.any(axis=1).sum())} sampled rows differ from the closed form")
    b0 = abs(center_bz(*args))
    u_ref = 100.0 * (np.abs(ref[:, 2]) - b0) / b0
    bad = np.abs(data[sample, 6] - u_ref) > UNIFORMITY_ATOL_PCT
    _require(not bad.any(), f"{path.name}: {int(bad.sum())} sampled uniformity values differ")

    bz = data[:, 5].reshape(nx, ny, nz)
    worst = float(np.max(np.abs(bz - bz[:, :, ::-1])))
    _require(worst <= MIRROR_RTOL * float(np.max(np.abs(bz))), f"{path.name}: bz not z-mirror symmetric ({worst:.3e} T)")


UNIFORMITY_HEADER = ("pos_over_d", "uniformity_pct")


def check_design(design: dict, csv_path: Path, side_m: float, sample_rng: np.random.Generator) -> None:
    """One coil design: n* solves the optimality polynomial, the centre
    curvature vanishes at spacing side/n*, uniform-region extents do not
    shrink as the threshold rises, and the optimize CSV is the +x
    uniformity scan at 1 mm steps out to 0.8 d.

    design: n, curvature, extents {threshold: (x_over_d, y_over_d)}.
    """
    n = design["n"]
    terms = np.array([5.0 * n**6, 11.0 * n**4, 18.0 * n**2, 6.0])
    residual = -terms[0] + terms[1] + terms[2] + terms[3]
    _require(n > 0.0 and abs(residual) <= POLY_RTOL * terms.sum(), f"n*={n!r}: residual {residual:.3e}")

    d = side_m / n
    b0 = center_bz(side_m, d, 1, 1.0)
    _require(abs(design["curvature"]) <= CURVATURE_RTOL * b0 / (d * d),
             f"curvature {design['curvature']:.3e} T/m^2 not ~0 against B0/d^2 = {b0 / d / d:.3e}")

    thresholds = sorted(design["extents"])
    for lo_t, hi_t in zip(thresholds, thresholds[1:]):
        for axis, (a, b) in zip("xy", zip(design["extents"][lo_t], design["extents"][hi_t])):
            _require(b >= a, f"{axis} extent shrinks from {a!r} at {lo_t}% to {b!r} at {hi_t}%")
    _require(min(design["extents"][thresholds[0]]) > 0.0, "empty uniform region")

    data = _floats(_read_rows(csv_path, UNIFORMITY_HEADER), csv_path)
    expected = 0
    r = 0.0
    while r <= 0.8 * d:  # the scan's own accumulation, so the count is exact
        expected += 1
        r += 1e-3
    _require(data.shape == (expected, 2), f"{csv_path.name}: {data.shape[0]} rows, expected {expected}")
    pos = data[:, 0] * d
    _require(bool(np.all(np.abs(pos - 1e-3 * np.arange(expected)) <= 1e-9)), f"{csv_path.name}: positions off the 1 mm scan")
    idx = np.unique(np.concatenate([[0, expected - 1], sample_rng.integers(0, expected, 16)]))
    pts = np.zeros((idx.size, 3))
    pts[:, 0] = pos[idx]
    bz = pair_field(pts, side_m, d, 1, 1.0)[:, 2]
    u_ref = 100.0 * (np.abs(bz) - abs(b0)) / abs(b0)
    bad = np.abs(data[idx, 1] - u_ref) > UNIFORMITY_ATOL_PCT
    _require(not bad.any(), f"{csv_path.name}: {int(bad.sum())} sampled uniformity values differ")


METRICS_HEADER = (
    "method", "reach_target_time_s", "mean_steady_nT", "rmse_steady_nT",
    "fluct_min_nT", "fluct_max_nT", "iters_to_converge", "final_mse",
)


def _metric_rows(path: Path, methods: tuple[str, ...]) -> dict[str, dict[str, str]]:
    rows = _read_rows(path, METRICS_HEADER)
    got = tuple(r[0] for r in rows)
    _require(got == methods, f"{path.name}: methods {got} != {methods}")
    return {r[0]: dict(zip(METRICS_HEADER, r)) for r in rows}


def _finite(raw: str, what: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise CheckFailed(f"{what}: not a number ({raw!r})") from None
    _require(math.isfinite(v), f"{what}: not finite ({raw!r})")
    return v


def check_sysid(out_dir: Path, methods: tuple[str, ...], snr_db: float, n_iters: int) -> None:
    """metrics.csv: final_mse finite and within MSE_FLOOR_FACTORS of the
    noise floor sigma^2 = 10^(-snr/10) (unit signal power), iters_to_converge
    below n_iters.  mse_curve.csv: n_iters rows of finite positive MSE."""
    sigma2 = 10.0 ** (-snr_db / 10.0)
    lo, hi = MSE_FLOOR_FACTORS
    for m, row in _metric_rows(out_dir / "metrics.csv", methods).items():
        mse = _finite(row["final_mse"], f"{m} final_mse")
        _require(lo * sigma2 <= mse <= hi * sigma2, f"{m} final_mse {mse:.4e} outside [{lo}, {hi}] x sigma^2 = {sigma2:.4e}")
        try:
            iters = int(row["iters_to_converge"])
        except ValueError:
            raise CheckFailed(f"{m} iters_to_converge: {row['iters_to_converge']!r}") from None
        _require(0 <= iters < n_iters, f"{m} iters_to_converge {iters} not below n_iters {n_iters}")
    path = out_dir / "mse_curve.csv"
    curves = _floats(_read_rows(path, ("iter",) + tuple(f"mse_{m}" for m in methods)), path)
    _require(curves.shape == (n_iters, 1 + len(methods)), f"{path.name}: {curves.shape[0]} rows, expected {n_iters}")
    _require(bool(np.all(np.isfinite(curves[:, 1:]) & (curves[:, 1:] > 0.0))), f"{path.name}: non-finite or non-positive MSE")


TRACE_HEADER = ("t_s", "target_nT", "measured_nT", "control_V")


def check_step(out_dir: Path, method: str, n_steps: int) -> None:
    """metrics.csv: steady mean and RMSE finite (a NaN reach time is a
    controller outcome).  trace.csv: n_steps finite rows, time increasing."""
    row = _metric_rows(out_dir / "metrics.csv", (method,))[method]
    _finite(row["mean_steady_nT"], "mean_steady_nT")
    _require(_finite(row["rmse_steady_nT"], "rmse_steady_nT") >= 0.0, "negative rmse")
    path = out_dir / "trace.csv"
    data = _floats(_read_rows(path, TRACE_HEADER), path)
    _require(data.shape == (n_steps, 4), f"{path.name}: {data.shape[0]} rows, expected {n_steps}")
    _require(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite values")
    _require(bool(np.all(np.diff(data[:, 0]) > 0.0)), f"{path.name}: time not increasing")
