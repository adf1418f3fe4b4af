"""Independent references used to check closed-form results.

The field oracle integrates the line-integral law dB = N*mu0*I (dl x r)/(4pi |r|^3)
directly by the midpoint rule; `onaxis_field` is the textbook on-axis closed
form of a square loop pair, and `second_derivative_center_fd` a finite
difference of it.  None of them shares code with the package's closed forms.
Three groups are exceptions, kept as references for bit-for-bit behaviour
rather than as independent oracles: `segment_field_scalar`, a per-point
reference for the array kernel; the `run_*_batch_ref` runners, batch
filters in their plainest form (one step at a time into whole error
arrays, each dot product a loop over the taps in plain order) that
`coilsim.control.run_laws_batch` must reproduce; and `sysid_signals_ref`, the
one-trial-at-a-time draw from `SeedSequence.spawn` children that the
blocked draw in `coilsim.experiments` must reproduce.  All of them lay
signals out time-major, x (n_iters, order, trials) and d (n_iters,
trials).  `run_keeping_errors` collects the error blocks of a one-law
`coilsim.control.run_laws_batch` run into whole arrays to compare with
them.
"""

from __future__ import annotations

import math

import numpy as np

from coilsim.control import run_laws_batch

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


def _onaxis_single(side, z_rel, turns, current):
    # z-component of one square loop's field on its axis, z_rel measured
    # from the loop plane
    h = 0.5 * side
    h2 = h * h
    u = z_rel * z_rel
    return (2.0 * turns * MU0 * current / math.pi) * (h2 / ((h2 + u) * math.sqrt(2.0 * h2 + u)))


def onaxis_field(pair, z):
    """Closed-form bz on the pair axis at height z, tesla; no singularity
    for spacing > 0, valid for all z."""
    half = 0.5 * pair.spacing
    return (_onaxis_single(pair.side, z - half, pair.turns, pair.current)
            + _onaxis_single(pair.side, z + half, pair.turns, pair.current))


def second_derivative_center_fd(pair, rel_step=1e-4):
    """Central finite-difference estimate of the second axial derivative of
    the on-axis field at z = 0, step rel_step * spacing."""
    h = rel_step * pair.spacing
    f0 = onaxis_field(pair, 0.0)
    fp = onaxis_field(pair, h)
    fm = onaxis_field(pair, -h)
    return (fp - 2.0 * f0 + fm) / (h * h)


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
# batch runners
# ---------------------------------------------------------------------------


def run_keeping_errors(w0, law, x, d):
    """Run run_laws_batch on the one-law mapping `law` (method -> the
    keywords of its law) with a sink that keeps every error block, and
    return the method's final state with the whole (n_iters, trials) error
    arrays added: "e", and "e1" and "e2" for convex."""
    (method,) = law
    blocks = []

    def keep(start, block):
        assert start == sum(b.shape[1] for b in blocks)
        blocks.append(block.copy())  # the runner reuses its buffer

    res = run_laws_batch(w0, law, x, d, sinks={method: keep})[method]
    return {**res, **dict(zip(("e", "e1", "e2"), np.concatenate(blocks, axis=1)))}


def _dot(w, x):
    # w[0] * x[0] + w[1] * x[1] + ..., taps added in plain order
    y = w[0] * x[0]
    for j in range(1, len(w)):
        y = y + w[j] * x[j]
    return y


def _run_filter_ref(w0, x, d, rate):
    """Independent single-filter trials: e = d - w.x, then w += rate(e) * e * x.
    Returns the errors "e" (n_iters, trials) and final weights "w" (trials,
    order)."""
    n_iters, order, trials = x.shape
    w = np.tile(np.asarray(w0, dtype=float)[:, None], (1, trials))
    e_out = np.empty((n_iters, trials))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_iters):
            e = d[n] - _dot(w, x[n])
            e_out[n] = e
            w += rate(e) * e * x[n]
    return {"e": e_out, "w": w.T}


def run_lms_batch_ref(w0, mu: float, x: np.ndarray, d: np.ndarray):
    return _run_filter_ref(w0, x, d, lambda e: mu)


def run_svs_batch_ref(w0, alpha: float, beta: float, x: np.ndarray, d: np.ndarray):
    return _run_filter_ref(
        w0, x, d, lambda e: beta * (1.0 / (1.0 + np.exp(np.clip(-alpha * np.abs(e), -700, 700))) - 0.5))


def run_atlms_batch_ref(w0, alpha: float, beta: float, m: float, n_scale: float,
                        x: np.ndarray, d: np.ndarray):
    gain = beta * (2.0 / math.pi) * m / (m + n_scale)
    return _run_filter_ref(w0, x, d, lambda e: gain * np.arctan(alpha * e * e))


def run_convex_batch_ref(w0, params, x: np.ndarray, d: np.ndarray):
    """Vectorized convex combination trials from b = 0; same update order as
    convex_step."""
    n_iters, order, trials = x.shape
    w1 = np.tile(np.asarray(w0, dtype=float)[:, None], (1, trials))
    w2 = w1.copy()
    b = np.zeros(trials)
    gamma = 1.0 / (1.0 + np.exp(-np.clip(b, -700, 700)))
    prev_e1 = np.zeros(trials)
    errors = np.empty((3, n_iters, trials))  # e, e1, e2
    half_beta = 0.5 * params.beta
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_iters):
            x_n = x[n]
            y1 = _dot(w1, x_n)
            y2 = _dot(w2, x_n)
            xx = _dot(x_n, x_n)
            y = gamma * y1 + (1.0 - gamma) * y2
            d_n = d[n]
            e1 = d_n - y1
            e2 = d_n - y2
            e = d_n - y
            errors[:, n] = e, e1, e2

            arg = -params.alpha * np.abs(e1 * prev_e1) + params.sigma * np.abs(e1)
            mu1 = params.beta * (1.0 / (1.0 + np.exp(np.clip(arg, -700, 700))) - 0.5)
            mu1 = np.clip(mu1, 0.0, half_beta)

            w1 += (2.0 * mu1 * e1 / (params.phi + xx)) * x_n
            w2 += (params.c * e2) * x_n

            if n % params.t_o == 0:
                transfer = gamma > params.gamma_o
                w2[:, transfer] = w1[:, transfer]

            b += params.mu_b * np.sign(e) * (y1 - y2) * gamma * (1.0 - gamma)
            gamma = 1.0 / (1.0 + np.exp(-np.clip(b, -700, 700)))
            prev_e1 = e1
    return {"e": errors[0], "e1": errors[1], "e2": errors[2], "w1": w1.T, "w2": w2.T,
            "b": b, "gamma": gamma}


# ---------------------------------------------------------------------------
# sysid trial signals
# ---------------------------------------------------------------------------


def sysid_signals_ref(scn, sigma, reinject=True, burst_scale=50.0, burst_len=10):
    """One trial at a time, trial t's input from the first and its noise
    from the second child of SeedSequence(seed).spawn(trials)[t]: taps x
    (n_iters, order, trials), noise eps (n_iters, trials), and targets
    d = x0*w0 + x1*w1 + ... + eps, with eps scaled by sigma and, when
    reinjecting, by burst_scale over the burst_len samples from
    scn.noise_reinjection_at."""
    n_iters, order = scn.n_iters, scn.order
    x = np.empty((n_iters, order, scn.trials))
    eps = np.empty((n_iters, scn.trials))
    for t, child in enumerate(np.random.SeedSequence(scn.seed).spawn(scn.trials)):
        inputs, noise = (np.random.default_rng(s) for s in child.spawn(2))
        u = inputs.standard_normal(n_iters + order - 1)
        for j in range(order):  # tap j lags the newest sample by j
            x[:, j, t] = u[order - 1 - j : order - 1 - j + n_iters]
        eps[:, t] = noise.standard_normal(n_iters)
    eps *= sigma
    if reinject:
        lo = scn.noise_reinjection_at
        eps[lo : lo + burst_len] *= burst_scale
    return x, _dot(scn.true_weights, x.transpose(1, 0, 2)) + eps, eps
