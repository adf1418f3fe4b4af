"""Independent references used to check closed-form results.

The field oracle integrates the line-integral law dB = N*mu0*I (dl x r)/(4pi |r|^3)
directly by the midpoint rule; `onaxis_field` is the textbook on-axis closed
form of a square loop pair, and `second_derivative_center_fd` a finite
difference of it.  None of them shares code with the package's closed forms.
Seven groups are exceptions, kept as references for bit-for-bit behaviour
rather than as independent oracles: `segment_field_scalar`, a per-point
evaluation of the general (oblique) segment form, which the package's
axis-parallel kernel must match value for value; `pair_field_ref`, that
general form per side (each side's offsets and distances computed from
its own endpoints, `segments_field_ref`) over all points at once, which
`coilsim.magnetics.pair_field` must reproduce bit for bit, on-wire errors
included; `scan_positions_ref`, the position walk
by repeated addition that `coilsim.coilopt.scan_positions` must
reproduce; the `run_*_batch_ref` runners, batch filters in their
plainest form (one step at a time into whole error arrays, each dot
product a loop over the taps in plain order) that
`coilsim.control.run_laws_batch` must reproduce; `sysid_signals_ref`, the
one-trial-at-a-time draw from `SeedSequence.spawn` children that the
blocked draw in `coilsim.experiments` must reproduce; the scalar closed
loop, `step_response_ref`, built from one call per step of the scalar
controller steps (`filter_step` with the single filters' rate closures
`lms_rate`, `svs_rate` and `atlms_rate`, `convex_step`, and their states)
and plant functions (`inverse_drive`, `drive`, `sense`), which the inline
loop of `coilsim.experiments.run_step_response` must reproduce; and
`reach_time_ref`, the sample-by-sample reach-time scan that
`coilsim.experiments.compute_metrics` must reproduce.  The batch
references lay signals out time-major, x (n_iters, order, trials) and d
(n_iters, trials).  `run_keeping_errors` collects the error blocks of a
one-law `coilsim.control.run_laws_batch` run into whole arrays to compare
with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from coilsim.control import AtlmsParams, ConvexParams, LmsParams, NonFiniteInput, SvsParams, run_laws_batch
from coilsim.experiments import DIAGNOSTICS_COLUMNS, DWELL_S
from coilsim.magnetics import PointOnWire
from coilsim.plant import PlantModel, SensorSpec, disturbance_series, sensor_noise

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
    """Per-point evaluation of the general (oblique) segment closed form,
    in plain Python floats and the package's operation order.

    Not an independent oracle: it is the reference that the axis-parallel
    array kernel must match value for value at every point, where the two
    can differ only in the sign of an exact zero.
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


def _segment_row_ref(start, end, turns: int, current: float) -> list[float]:
    # canonical endpoints, unit direction, length and signed gain N*mu0*I
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


def segments_field_ref(segments: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Field of each row of the segment table `segments` (k, 11) at each of
    `pts` (n, 3), (k, n, 3); each side computes its own offsets and
    distances.  Raises PointOnWire for the first point, in row order, within
    the guard of any segment's line, naming the first such segment."""
    sx, sy, sz, ex, ey, ez, lx, ly, lz, length, gain = segments.T[:, :, None]
    x, y, z = pts.T
    r1x = x - sx
    r1y = y - sy
    r1z = z - sz
    t1 = r1x * lx + r1y * ly + r1z * lz
    ax = r1x - t1 * lx
    ay = r1y - t1 * ly
    az = r1z - t1 * lz
    a = np.sqrt(ax * ax + ay * ay + az * az)
    on_wire = a <= 1e-12
    if on_wire.any():
        i = int(np.argmax(on_wire.any(axis=0)))
        raise PointOnWire(tuple(pts[i].tolist()), segment=int(np.argmax(on_wire[:, i])))
    d1 = np.sqrt(r1x * r1x + r1y * r1y + r1z * r1z)
    r2x = x - ex
    r2y = y - ey
    r2z = z - ez
    d2 = np.sqrt(r2x * r2x + r2y * r2y + r2z * r2z)
    cos1 = t1 / d1
    cos2 = (length - t1) / d2
    scale = gain / (4.0 * math.pi * a) * (cos1 + cos2)
    inv_a = 1.0 / a
    px = (ly * az - lz * ay) * inv_a
    py = (lz * ax - lx * az) * inv_a
    pz = (lx * ay - ly * ax) * inv_a
    return np.stack((scale * px, scale * py, scale * pz), axis=-1)


def pair_field_ref(pair, points) -> np.ndarray:
    """The pair's field at each of `points` (N, 3) from one per-side kernel
    call over all points: the loop at +spacing/2, then the other, each side
    counterclockwise from +z, each loop summed side by side from zero."""
    s = 0.5 * pair.side
    h = 0.5 * pair.spacing
    rows = []
    for z in (+h, -h):
        corners = ((s, -s, z), (s, s, z), (-s, s, z), (-s, -s, z))
        rows += [_segment_row_ref(corners[i], corners[(i + 1) % 4], pair.turns, pair.current)
                 for i in range(4)]
    sides = segments_field_ref(np.array(rows), np.asarray(points, dtype=float))
    loops = np.zeros((2, *sides.shape[1:]))
    for i in range(4):
        loops += sides[i::4]
    return loops[0] + loops[1]


def scan_positions_ref(first: float, step: float, last: float) -> Iterator[float]:
    """first, first + step, ... while <= last, by repeated addition, so the
    n-th position carries the rounding of n additions rather than n * step."""
    r = first
    while r <= last:
        yield r
        r += step


# ---------------------------------------------------------------------------
# batch runners
# ---------------------------------------------------------------------------


def run_keeping_errors(w0, law, x, d):
    """Run run_laws_batch on the one-law mapping `law` (method -> the
    parameters of its law) with a sink that keeps every error block, and
    return the method's final state with the whole (n_iters, trials) error
    arrays added: "e", and "e1" and "e2" for convex."""
    (method,) = law
    blocks = []

    def keep(start, block):
        assert start == sum(b.shape[1] for b in blocks)
        blocks.append(block.copy())  # the runner reuses its buffer

    res = run_laws_batch(w0, law, [(x, d)], sinks={method: keep})[method]
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
    convex_step below."""
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
    scn.reinjection_at."""
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
        lo = scn.reinjection_at
        eps[lo : lo + burst_len] *= burst_scale
    return x, _dot(scn.true_weights, x.transpose(1, 0, 2)) + eps, eps


# ---------------------------------------------------------------------------
# scalar controller steps, plant functions and closed loop
# ---------------------------------------------------------------------------


class DimensionMismatch(ValueError):
    """Input vector length does not match the filter order."""


def _inv1pexp(arg: float) -> float:
    # 1 / (1 + exp(arg)), guarded against overflow
    if arg > 700.0:
        return 0.0
    if arg < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(arg))


def logistic(u: float) -> float:
    """1 / (1 + exp(-u)); maps any finite u into (0, 1)."""
    return _inv1pexp(-u)


def lms_rate(mu: float) -> Callable[[float], float]:
    """Fixed-step LMS: mu(e) = mu."""
    return lambda e: mu


def svs_rate(alpha: float, beta: float) -> Callable[[float], float]:
    """Sigmoid variable step: mu(e) grows with |e| and saturates at beta/2."""
    return lambda e: beta * (_inv1pexp(-alpha * abs(e)) - 0.5)


def atlms_rate(alpha: float, beta: float, m: float, n_scale: float) -> Callable[[float], float]:
    """Arctangent step: mu(e) = beta * (2/pi) * atan(alpha * e^2) * m/(m+n),
    bounded by beta * m / (m + n)."""
    return lambda e: beta * (2.0 / math.pi) * math.atan(alpha * e * e) * m / (m + n_scale)


def _sign(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


@dataclass(slots=True)
class ConvexState:
    """Mutable state of the convex combination controller.

    gamma is kept equal to logistic(b) after every step.  y1 ... mu1 are
    the last step's values (e = gamma * e1 + (1 - gamma) * e2 with that
    step's gamma); e1 also feeds the next step's rate.
    """

    w1: list[float]
    w2: list[float]
    b: float = 0.0
    gamma: float = field(default=0.5)
    step_index: int = 0
    y1: float = 0.0
    y2: float = 0.0
    e: float = 0.0
    e1: float = 0.0
    e2: float = 0.0
    mu1: float = 0.0

    @classmethod
    def initial(cls, w1: Sequence[float], w2: Sequence[float] | None = None, b: float = 0.0) -> "ConvexState":
        w1 = [float(v) for v in w1]
        w2 = w1[:] if w2 is None else [float(v) for v in w2]
        if len(w1) != len(w2):
            raise DimensionMismatch("w1 and w2 must have the same length")
        return cls(w1=w1, w2=w2, b=b, gamma=logistic(b))


@dataclass(slots=True)
class FilterState:
    """State of a single-filter baseline controller: its weights and its
    step-size law, which maps the step's error e to the rate mu(e), and the
    last step's e and mu."""

    w: list[float]
    rate: Callable[[float], float]
    step_index: int = 0
    e: float = 0.0
    mu: float = 0.0

    @classmethod
    def initial(cls, w: Sequence[float], rate: Callable[[float], float]) -> "FilterState":
        return cls(w=[float(v) for v in w], rate=rate)


def convex_step(state: ConvexState, params: ConvexParams, x: Sequence[float], d: float) -> float:
    """Advance the convex combination controller by one sample and return
    its control signal y = gamma * y1 + (1 - gamma) * y2.

    Executes, in order: output combination, error estimation, learning-rate
    update, weight updates, conditional weight transfer, and update-factor /
    gamma refresh.  The state is mutated in place.
    """
    w1, w2, order = state.w1, state.w2, len(state.w1)
    if len(x) != order:
        raise DimensionMismatch(f"input length {len(x)} != filter order {order}")
    g = state.gamma

    y1 = 0.0
    y2 = 0.0
    xx = 0.0
    for i in range(order):
        xi = x[i]
        if not math.isfinite(xi):
            raise NonFiniteInput(f"non-finite input sample {xi!r}")
        y1 += w1[i] * xi
        y2 += w2[i] * xi
        xx += xi * xi
    if not math.isfinite(d):
        raise NonFiniteInput(f"non-finite target {d!r}")
    y = g * y1 + (1.0 - g) * y2

    e1 = d - y1
    e2 = d - y2
    e = d - y

    # adaptive rate of the slow branch, clamped to [0, beta/2]
    arg = -params.alpha * abs(e1 * state.e1) + params.sigma * abs(e1)
    mu1 = params.beta * (_inv1pexp(arg) - 0.5)
    if mu1 < 0.0:
        mu1 = 0.0
    elif mu1 > 0.5 * params.beta:
        mu1 = 0.5 * params.beta

    k1 = 2.0 * mu1 * e1 / (params.phi + xx)
    k2 = params.c * e2
    for i in range(order):
        w1[i] += k1 * x[i]
        w2[i] += k2 * x[i]

    if g > params.gamma_o and state.step_index % params.t_o == 0:
        state.w2 = w1[:]

    state.b += params.mu_b * _sign(e) * (y1 - y2) * g * (1.0 - g)
    state.gamma = logistic(state.b)
    state.step_index += 1
    state.y1, state.y2, state.e, state.e1, state.e2, state.mu1 = y1, y2, e, e1, e2, mu1
    return y


def filter_step(state: FilterState, x: Sequence[float], d: float) -> float:
    """Advance a single-filter baseline by one sample and return y = w.x:
    e = d - y, then w <- w + mu(e) * e * x with the state's step-size law."""
    w, order = state.w, len(state.w)
    if len(x) != order:
        raise DimensionMismatch(f"input length {len(x)} != filter order {order}")
    y = 0.0
    for i in range(order):
        xi = x[i]
        if not math.isfinite(xi):
            raise NonFiniteInput(f"non-finite input sample {xi!r}")
        y += w[i] * xi
    if not math.isfinite(d):
        raise NonFiniteInput(f"non-finite target {d!r}")
    e = d - y
    mu = state.rate(e)
    k = mu * e
    for i in range(order):
        w[i] += k * x[i]
    state.step_index += 1
    state.e, state.mu = e, mu
    return y


class DegenerateFit(ValueError):
    """Raised when the voltage/field fit slope is ~zero and cannot be
    inverted."""


def drive(plant: PlantModel, voltage: float) -> float:
    """Field produced for a drive voltage, nT.  Voltage is clamped to the
    actuation range; clamping is the contract, not an error."""
    v = min(max(voltage, plant.v_min), plant.v_max)
    return (plant.fit_k * v + plant.fit_b) * 1000.0


def inverse_drive(plant: PlantModel, target_field_nt: float) -> float:
    """Voltage that produces the target field, clamped to the actuation
    range.  The round trip rounds six times: for reachable f,
    |drive(inverse_drive(f)) - f| <= 5 * 2**-52 * max(|f| at either clamp
    end, 1000 * |fit_b|) (first-order bound; at most 2.6 seen).  Over the
    ascending fit's +/-3 V that is <= 4.4e-11 nT, 1.5 ulp of the largest
    reachable |f|, and 19.5% of uniform reachable f come back inexact."""
    if abs(plant.fit_k) < 1e-12:
        raise DegenerateFit("fit slope ~0; voltage cannot be inferred")
    v = (target_field_nt / 1000.0 - plant.fit_b) / plant.fit_k
    return min(max(v, plant.v_min), plant.v_max)


def sense(spec: SensorSpec, true_field_nt: float, noise_nt: float) -> float:
    """One magnetometer reading of a true field, nT.

    Adds the reading's noise (one element of sensor_noise) then rounds
    half-to-even to the quantization step; a zero step means no
    quantization.
    """
    v = true_field_nt + noise_nt
    q = spec.quantization_step_nt
    if q > 0.0:
        r = v / q
        # round-half-even, like the sensor's fixed LSB.  round() returns an
        # int, so copysign restores the -0.0 of a negative value below q/2;
        # it rejects a non-finite r, which stays q * r.
        v = math.copysign(q * round(r), v) if math.isfinite(r) else q * r
    return v


def step_response_ref(scn) -> dict[str, np.ndarray]:
    """The closed loop of a StepScenario, one scalar call per controller
    step, inverse drive, drive and reading: the record columns that
    coilsim.experiments.run_step_response must return."""
    plant = scn.resolved_plant()
    n_total = scn.n_steps()
    params = scn.params
    convex = type(params) is ConvexParams
    if convex:
        state = ConvexState.initial(scn.init_weights)
    else:
        rate = {LmsParams: lms_rate, SvsParams: svs_rate, AtlmsParams: atlms_rate}[type(params)](**vars(params))
        state = FilterState.initial(scn.init_weights, rate)
    steps = np.arange(n_total)
    times = steps * (1.0 / scn.sensor.sample_rate_hz)
    targets = scn.profile.target_at(times)
    disturbance = disturbance_series(scn.disturbance, times, scn.seed)
    noise = sensor_noise(scn.sensor, scn.seed, n_total)

    unit = scn.ctrl_unit_nt
    ambient_est_nt = 0.0
    rows = []
    for target_nt, dist_nt, noise_nt in zip(targets.tolist(), disturbance.tolist(), noise.tolist()):
        x = (1.0, ambient_est_nt / scn.x_scale_nt)
        d_ctrl = (target_nt - ambient_est_nt) / unit
        y = convex_step(state, params, x, d_ctrl) if convex else filter_step(state, x, d_ctrl)
        v = inverse_drive(plant, y * unit)
        coil_nt = drive(plant, v)
        meas_nt = sense(scn.sensor, coil_nt + dist_nt, noise_nt)
        ambient_est_nt = meas_nt - coil_nt
        row = [v, coil_nt, meas_nt]
        if convex:
            row += [y, state.y1, state.y2, state.e, state.e1, state.e2, state.gamma, state.b, state.mu1]
        rows.append(row)

    volts, coil, measured, *diagnostics = np.array(rows).T
    columns = {"t_s": times, "target_nT": targets, "measured_nT": measured, "control_V": volts,
               "true_nT": coil + disturbance, "disturbance_nT": disturbance}
    if convex:
        columns.update(zip(DIAGNOSTICS_COLUMNS, (steps, *diagnostics)))
    return columns


def reach_time_ref(times, inside) -> float:
    """times[i] - times[0] for the first i at which inside[i] holds and
    keeps holding over every sample up to times[i] + DWELL_S, scanned
    sample by sample; NaN if the scan meets no such i before an inside
    sample whose dwell ends after the record."""
    t = np.asarray(times, dtype=float)
    for i in range(t.size):
        if not inside[i]:
            continue
        t_end = t[i] + DWELL_S
        if t[-1] < t_end:
            break  # cannot confirm the dwell within the record
        j = i
        ok = True
        while j < t.size and t[j] <= t_end:
            if not inside[j]:
                ok = False
                break
            j += 1
        if ok:
            return float(t[i] - t[0])
    return math.nan
