"""Independent brute-force references used to check closed-form results.

The field oracle integrates the line-integral law dB = N*mu0*I (dl x r)/(4pi |r|^3)
directly by the midpoint rule; it shares no code with the package's closed
forms.  Two groups are exceptions, kept as references for bit-for-bit
behaviour rather than as independent oracles: `segment_field_scalar`, a
per-point reference for the array kernel, and the `run_*_batch_ref`
runners, the trial-major batch filters (one `einsum` per dot product per
step) that the time-major runners in `coilsim.control` must reproduce.
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


# ---------------------------------------------------------------------------
# trial-major batch runners
# ---------------------------------------------------------------------------


def _bias_col(x_n, fit_k, fit_b):
    return fit_k * x_n[:, 0] + fit_b


def run_lms_batch_ref(
    w0,
    mu: float,
    x: np.ndarray,
    d: np.ndarray,
    fit_k: float = 0.0,
    fit_b: float = 0.0,
    record_w_at=(),
):
    """Run independent LMS trials: x has shape (trials, n_iters, order),
    d shape (trials, n_iters).  Returns per-trial error traces and final
    weights; `record_w_at` captures weight snapshots before those steps."""
    trials, n_iters, order = x.shape
    w = np.tile(np.asarray(w0, dtype=float), (trials, 1))
    e_out = np.empty((trials, n_iters))
    snaps = {}
    record = frozenset(int(i) for i in record_w_at)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_iters):
            if n in record:
                snaps[n] = w.copy()
            x_n = x[:, n, :]
            y = np.einsum("ij,ij->i", w, x_n) + _bias_col(x_n, fit_k, fit_b)
            e = d[:, n] - y
            e_out[:, n] = e
            w += (mu * e)[:, None] * x_n
    return {"e": e_out, "w": w, "w_snapshots": snaps}


def run_svs_batch_ref(
    w0,
    alpha: float,
    beta: float,
    x: np.ndarray,
    d: np.ndarray,
    fit_k: float = 0.0,
    fit_b: float = 0.0,
):
    trials, n_iters, order = x.shape
    w = np.tile(np.asarray(w0, dtype=float), (trials, 1))
    e_out = np.empty((trials, n_iters))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_iters):
            x_n = x[:, n, :]
            y = np.einsum("ij,ij->i", w, x_n) + _bias_col(x_n, fit_k, fit_b)
            e = d[:, n] - y
            e_out[:, n] = e
            mu = beta * (1.0 / (1.0 + np.exp(np.clip(-alpha * np.abs(e), -700, 700))) - 0.5)
            w += (mu * e)[:, None] * x_n
    return {"e": e_out, "w": w}


def run_atlms_batch_ref(
    w0,
    alpha: float,
    beta: float,
    m: float,
    n_scale: float,
    x: np.ndarray,
    d: np.ndarray,
    fit_k: float = 0.0,
    fit_b: float = 0.0,
):
    trials, n_iters, order = x.shape
    w = np.tile(np.asarray(w0, dtype=float), (trials, 1))
    e_out = np.empty((trials, n_iters))
    gain = beta * (2.0 / math.pi) * m / (m + n_scale)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_iters):
            x_n = x[:, n, :]
            y = np.einsum("ij,ij->i", w, x_n) + _bias_col(x_n, fit_k, fit_b)
            e = d[:, n] - y
            e_out[:, n] = e
            mu = gain * np.arctan(alpha * e * e)
            w += (mu * e)[:, None] * x_n
    return {"e": e_out, "w": w}


def run_convex_batch_ref(
    w0,
    params,
    x: np.ndarray,
    d: np.ndarray,
    b0: float = 0.0,
    record_w_at=(),
):
    """Vectorized convex combination trials; same update order as
    convex_step."""
    trials, n_iters, order = x.shape
    w1 = np.tile(np.asarray(w0, dtype=float), (trials, 1))
    w2 = w1.copy()
    b = np.full(trials, float(b0))
    gamma = 1.0 / (1.0 + np.exp(-np.clip(b, -700, 700)))
    prev_e1 = np.zeros(trials)
    e_out = np.empty((trials, n_iters))
    e1_out = np.empty((trials, n_iters))
    e2_out = np.empty((trials, n_iters))
    snaps = {}
    record = frozenset(int(i) for i in record_w_at)
    half_beta = 0.5 * params.beta
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_iters):
            if n in record:
                snaps[n] = w1.copy()
            x_n = x[:, n, :]
            bias = _bias_col(x_n, params.fit_k, params.fit_b)
            a1 = np.einsum("ij,ij->i", w1, x_n)
            a2 = np.einsum("ij,ij->i", w2, x_n)
            xx = np.einsum("ij,ij->i", x_n, x_n)
            y1 = a1 + bias
            y2 = a2 + bias
            y = gamma * a1 + (1.0 - gamma) * a2 + bias
            d_n = d[:, n]
            e1 = d_n - y1
            e2 = d_n - y2
            e = d_n - y
            e_out[:, n] = e
            e1_out[:, n] = e1
            e2_out[:, n] = e2

            arg = -params.alpha * np.abs(e1 * prev_e1) + params.sigma * np.abs(e1)
            mu1 = params.beta * (1.0 / (1.0 + np.exp(np.clip(arg, -700, 700))) - 0.5)
            mu1 = np.clip(mu1, 0.0, half_beta)

            w1 += (2.0 * mu1 * e1 / (params.phi + xx))[:, None] * x_n
            w2 += (params.c * e2)[:, None] * x_n

            if n % params.t_o == 0:
                transfer = gamma > params.gamma_o
                if transfer.any():
                    w2[transfer] = w1[transfer]

            b += params.mu_b * np.sign(e) * (y1 - y2) * gamma * (1.0 - gamma)
            gamma = 1.0 / (1.0 + np.exp(-np.clip(b, -700, 700)))
            prev_e1 = e1
    return {
        "e": e_out,
        "e1": e1_out,
        "e2": e2_out,
        "w1": w1,
        "w2": w2,
        "b": b,
        "gamma": gamma,
        "w_snapshots": snaps,
    }
