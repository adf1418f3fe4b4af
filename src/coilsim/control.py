"""Adaptive coil controllers.

The main controller blends two adaptive filters through a coupling
coefficient gamma in (0,1): a slow, regularized branch (adaptive rate mu1,
normalized update) for accuracy and a fast fixed-rate branch for quick
convergence.  gamma is the logistic image of an update factor b, itself
adapted by a signed gradient rule, and the slow branch's weights are
periodically transferred to the fast branch once gamma exceeds a threshold.

LMS, sigmoid-variable-step (SVS), and arctangent-step (ATLMS) single-filter
baselines share the same step/state conventions.

Each step function mutates its state in place and returns it along with a
StepOutput of per-step diagnostics.  States are plain values; independent
controller instances may run in parallel, but a single state must be stepped
from one thread at a time.

Batch runners (`run_*_batch`) execute many independent trials of the same
update equations vectorized across trials; they exist for experiment-harness
speed and are pinned to the scalar steps by equivalence tests.  They take
trial-major arrays, x (trials, n_iters, order) and d (trials, n_iters), and
step through them time-major, (n_iters, order, trials): one step reads one
contiguous block, and the transposed views that the sysid harness passes
cost no copy.  LMS, SVS and ATLMS share one loop that differs only in its
step-size law; the convex runner stacks w1 and w2 so one multiply serves
both branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._table import write_repr_csv


class DimensionMismatch(ValueError):
    """Input vector length does not match the filter order."""


class NonFiniteInput(ValueError):
    """A step input contains NaN or infinity."""


class InsufficientSamples(ValueError):
    """Too few input samples to estimate the autocorrelation matrix."""


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


def _sign(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


@dataclass(frozen=True)
class ConvexParams:
    """Parameters of the convex combination controller.

    alpha    sensitivity of the slow branch's rate to error variation
    beta     intensity of the slow branch's rate (mu1 is clamped to [0, beta/2])
    sigma    regularization inside the rate's exponent
    phi      regularization of the normalized weight update
    c        fixed learning rate of the fast branch
    mu_b     learning rate of the update factor b
    gamma_o  weight-transfer threshold on gamma, in (0, 1)
    t_o      weight-transfer period in steps
    fit_k, fit_b  bias-term fit coefficients; the bias added to every output
                  is fit_k * x[0] + fit_b (x[0] = most recent sample)
    """

    alpha: float
    beta: float
    sigma: float = 0.0
    phi: float = 1.0
    c: float = 0.1
    mu_b: float = 0.1
    gamma_o: float = 0.55
    t_o: int = 2
    fit_k: float = 0.0
    fit_b: float = 0.0

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be > 0")
        if self.phi < 0.0:
            raise ValueError("phi must be >= 0")
        if self.c <= 0.0:
            raise ValueError("c must be > 0")
        if not 0.0 < self.gamma_o < 1.0:
            raise ValueError("gamma_o must lie in (0, 1)")
        if self.t_o < 1:
            raise ValueError("t_o must be >= 1")


@dataclass(slots=True)
class ConvexState:
    """Mutable state of the convex combination controller.

    gamma is kept equal to logistic(b) after every step.
    """

    w1: list[float]
    w2: list[float]
    b: float = 0.0
    gamma: float = field(default=0.5)
    prev_e1: float = 0.0
    step_index: int = 0

    @classmethod
    def initial(cls, w1: Sequence[float], w2: Sequence[float] | None = None, b: float = 0.0) -> "ConvexState":
        w1 = [float(v) for v in w1]
        w2 = w1[:] if w2 is None else [float(v) for v in w2]
        if len(w1) != len(w2):
            raise DimensionMismatch("w1 and w2 must have the same length")
        return cls(w1=w1, w2=w2, b=b, gamma=logistic(b))


@dataclass(slots=True)
class FilterState:
    """State of a single-filter baseline controller."""

    w: list[float]
    fit_k: float = 0.0
    fit_b: float = 0.0
    step_index: int = 0

    @classmethod
    def initial(cls, w: Sequence[float], fit_k: float = 0.0, fit_b: float = 0.0) -> "FilterState":
        return cls(w=[float(v) for v in w], fit_k=fit_k, fit_b=fit_b)


@dataclass(frozen=True)
class StepInput:
    """One controller input sample: x is the measured disturbance tap vector
    (x[0] = most recent), d the target value.  Units follow the scenario."""

    x: tuple[float, ...]
    d: float


@dataclass(frozen=True)
class StepOutput:
    """Per-step diagnostics.  y is the combined control signal; e always
    satisfies e = gamma * e1 + (1 - gamma) * e2 for the convex controller."""

    y: float
    y1: float
    y2: float
    e: float
    e1: float
    e2: float
    mu1: float


def _check_input(x: Sequence[float], d: float, order: int) -> None:
    if len(x) != order:
        raise DimensionMismatch(f"input length {len(x)} != filter order {order}")
    for v in x:
        if not math.isfinite(v):
            raise NonFiniteInput(f"non-finite input sample {v!r}")
    if not math.isfinite(d):
        raise NonFiniteInput(f"non-finite target {d!r}")


def convex_step(
    state: ConvexState, params: ConvexParams, inp: StepInput
) -> tuple[StepOutput, ConvexState]:
    """Advance the convex combination controller by one sample.

    Executes, in order: output combination, error estimation, learning-rate
    update, weight updates, conditional weight transfer, and update-factor /
    gamma refresh.  The state is mutated in place and returned.
    """
    w1, w2, x = state.w1, state.w2, inp.x
    _check_input(x, inp.d, len(w1))
    g = state.gamma

    bias = params.fit_k * x[0] + params.fit_b
    a1 = 0.0
    a2 = 0.0
    xx = 0.0
    for i in range(len(x)):
        xi = x[i]
        a1 += w1[i] * xi
        a2 += w2[i] * xi
        xx += xi * xi
    y1 = a1 + bias
    y2 = a2 + bias
    y = g * a1 + (1.0 - g) * a2 + bias

    e1 = inp.d - y1
    e2 = inp.d - y2
    e = inp.d - y

    # adaptive rate of the slow branch, clamped to [0, beta/2]
    arg = -params.alpha * abs(e1 * state.prev_e1) + params.sigma * abs(e1)
    mu1 = params.beta * (_inv1pexp(arg) - 0.5)
    if mu1 < 0.0:
        mu1 = 0.0
    elif mu1 > 0.5 * params.beta:
        mu1 = 0.5 * params.beta

    k1 = 2.0 * mu1 * e1 / (params.phi + xx)
    k2 = params.c * e2
    for i in range(len(x)):
        w1[i] += k1 * x[i]
        w2[i] += k2 * x[i]

    if g > params.gamma_o and state.step_index % params.t_o == 0:
        state.w2 = w1[:]

    state.b += params.mu_b * _sign(e) * (y1 - y2) * g * (1.0 - g)
    state.gamma = logistic(state.b)
    state.prev_e1 = e1
    state.step_index += 1

    return StepOutput(y, y1, y2, e, e1, e2, mu1), state


def lms_step(state: FilterState, mu: float, inp: StepInput) -> tuple[StepOutput, FilterState]:
    """Fixed-step LMS baseline: w <- w + mu * e * x."""
    w, x = state.w, inp.x
    _check_input(x, inp.d, len(w))
    bias = state.fit_k * x[0] + state.fit_b
    y = bias
    for i in range(len(x)):
        y += w[i] * x[i]
    e = inp.d - y
    k = mu * e
    for i in range(len(x)):
        w[i] += k * x[i]
    state.step_index += 1
    return StepOutput(y, y, y, e, e, e, mu), state


def svs_step(
    state: FilterState, alpha: float, beta: float, inp: StepInput
) -> tuple[StepOutput, FilterState]:
    """Sigmoid variable-step LMS: mu(n) grows with |e(n)| and saturates at
    beta/2."""
    w, x = state.w, inp.x
    _check_input(x, inp.d, len(w))
    bias = state.fit_k * x[0] + state.fit_b
    y = bias
    for i in range(len(x)):
        y += w[i] * x[i]
    e = inp.d - y
    mu = beta * (_inv1pexp(-alpha * abs(e)) - 0.5)
    k = mu * e
    for i in range(len(x)):
        w[i] += k * x[i]
    state.step_index += 1
    return StepOutput(y, y, y, e, e, e, mu), state


def atlms_step(
    state: FilterState,
    alpha: float,
    beta: float,
    m: float,
    n_scale: float,
    inp: StepInput,
) -> tuple[StepOutput, FilterState]:
    """Arctangent-step LMS: mu(n) = beta * (2/pi) * atan(alpha * e^2) * m/(m+n),
    bounded by beta * m / (m + n)."""
    w, x = state.w, inp.x
    _check_input(x, inp.d, len(w))
    bias = state.fit_k * x[0] + state.fit_b
    y = bias
    for i in range(len(x)):
        y += w[i] * x[i]
    e = inp.d - y
    mu = beta * (2.0 / math.pi) * math.atan(alpha * e * e) * m / (m + n_scale)
    k = mu * e
    for i in range(len(x)):
        w[i] += k * x[i]
    state.step_index += 1
    return StepOutput(y, y, y, e, e, e, mu), state


# ---------------------------------------------------------------------------
# convergence condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Result of checking the step-size convergence condition against input
    statistics: both rates must be positive and below 2 / lambda_max."""

    lambda_max: float
    mu_max_bound: float
    nlms_rate: float
    nlms_ok: bool
    fixed_rate: float
    fixed_ok: bool
    passed: bool
    n_samples: int


def check_convergence_condition(
    params: ConvexParams, x_samples: Sequence[Sequence[float]]
) -> ConditionReport:
    """Estimate the input autocorrelation matrix from samples and check the
    controller rates against the 2/lambda_max stability bound.

    The slow branch's effective rate is bounded by beta / (phi + min x^T x);
    the fast branch's by its fixed rate c.  Raises InsufficientSamples when
    fewer samples than the filter order are supplied.
    """
    x = np.asarray(x_samples, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch("x_samples must be a 2-D sample/tap array")
    n, order = x.shape
    if n < order:
        raise InsufficientSamples(f"need >= {order} samples, got {n}")

    rxx = (x.T @ x) / n
    lam = float(np.linalg.eigvalsh(rxx)[-1])
    bound = math.inf if lam <= 0.0 else 2.0 / lam

    min_xtx = float(np.min(np.einsum("ij,ij->i", x, x)))
    nlms_rate = params.beta / (params.phi + min_xtx)
    nlms_ok = params.beta > 0.0 and nlms_rate <= bound
    fixed_ok = 0.0 < params.c < bound

    return ConditionReport(
        lambda_max=lam,
        mu_max_bound=bound,
        nlms_rate=nlms_rate,
        nlms_ok=nlms_ok,
        fixed_rate=params.c,
        fixed_ok=fixed_ok,
        passed=nlms_ok and fixed_ok,
        n_samples=n,
    )


# ---------------------------------------------------------------------------
# batched trial runners (vectorized across independent trials)
# ---------------------------------------------------------------------------


def _tap_sum(p) -> np.ndarray:
    """Sum over the leading (tap) axis in np.einsum's order for a contiguous
    row, to which the sysid outputs are pinned: even and odd taps in two
    lanes (eights from their last pair back), then the lanes; plain tap
    order for one or two taps."""
    n = len(p)
    if n < 3:
        return p[0] if n == 1 else p[0] + p[1]
    lanes: list = [None, None]
    blocks = [j + k for j in range(0, n - n % 8, 8) for k in (6, 7, 4, 5, 2, 3, 0, 1)]
    for j in blocks + list(range(n - n % 8, n)):
        lanes[j % 2] = p[j] if lanes[j % 2] is None else p[j] + lanes[j % 2]
    return lanes[0] + lanes[1]


def _clamp(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # the bits of np.clip, NaN included, at less per-call overhead
    return np.minimum(np.maximum(v, lo), hi)


def _run_filter(w0, x, d, fit_k, fit_b, rate, record_w_at=()) -> dict:
    """Single-filter trials, e = d - (w.x + fit_k * x[0] + fit_b) and then
    w += rate(e) * e * x, stepped time-major across all trials at once
    (no copy for the transposed views experiments._sysid_signals returns)."""
    x, d = np.ascontiguousarray(x.transpose(1, 2, 0)), np.ascontiguousarray(d.T)
    n_iters, order, trials = x.shape
    w = np.repeat(np.asarray(w0, dtype=float)[:, None], trials, axis=1)
    bias = fit_k * x[:, 0] + fit_b
    e_out = np.empty((trials, n_iters))
    snaps: dict[int, np.ndarray] = {}
    record = frozenset(int(i) for i in record_w_at)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_iters):
            if n in record:
                snaps[n] = w.T.copy()
            x_n = x[n]
            e = d[n] - (_tap_sum(w * x_n) + bias[n])
            e_out[:, n] = e
            w += rate(e) * e * x_n
    return {"e": e_out, "w": w.T.copy(), "w_snapshots": snaps}


def run_lms_batch(
    w0: Sequence[float],
    mu: float,
    x: np.ndarray,
    d: np.ndarray,
    fit_k: float = 0.0,
    fit_b: float = 0.0,
    record_w_at: Sequence[int] = (),
) -> dict:
    """Run independent LMS trials: x has shape (trials, n_iters, order),
    d shape (trials, n_iters).  Returns per-trial error traces and final
    weights; `record_w_at` captures weight snapshots before those steps."""
    return _run_filter(w0, x, d, fit_k, fit_b, lambda e: mu, record_w_at)


def run_svs_batch(
    w0: Sequence[float],
    alpha: float,
    beta: float,
    x: np.ndarray,
    d: np.ndarray,
    fit_k: float = 0.0,
    fit_b: float = 0.0,
) -> dict:
    return _run_filter(w0, x, d, fit_k, fit_b, lambda e: beta * (
        1.0 / (1.0 + np.exp(_clamp(-alpha * np.abs(e), -700.0, 700.0))) - 0.5))


def run_atlms_batch(
    w0: Sequence[float],
    alpha: float,
    beta: float,
    m: float,
    n_scale: float,
    x: np.ndarray,
    d: np.ndarray,
    fit_k: float = 0.0,
    fit_b: float = 0.0,
) -> dict:
    gain = beta * (2.0 / math.pi) * m / (m + n_scale)
    return _run_filter(w0, x, d, fit_k, fit_b, lambda e: gain * np.arctan(alpha * e * e))


def run_convex_batch(
    w0: Sequence[float],
    params: ConvexParams,
    x: np.ndarray,
    d: np.ndarray,
    b0: float = 0.0,
    record_w_at: Sequence[int] = (),
) -> dict:
    """Vectorized convex combination trials; same update order as
    convex_step."""
    x, d = np.ascontiguousarray(x.transpose(1, 2, 0)), np.ascontiguousarray(d.T)
    n_iters, order, trials = x.shape
    # w[:, 0] is w1 and w[:, 1] is w2: one multiply serves both branches
    w = np.tile(np.asarray(w0, dtype=float)[:, None, None], (1, 2, trials))
    w1, w2 = w[:, 0], w[:, 1]
    xb = x[:, :, None]  # each step's taps, broadcast over the two branches
    b = np.full(trials, float(b0))
    gamma = 1.0 / (1.0 + np.exp(-_clamp(b, -700.0, 700.0)))
    prev_abs_e1 = np.zeros(trials)
    u = np.empty((2, trials))  # exponents of the slow rate's logistic and of gamma's
    k = np.empty((2, trials))
    e_out, e1_out, e2_out = (np.empty((trials, n_iters)) for _ in range(3))
    snaps: dict[int, np.ndarray] = {}
    record = frozenset(int(i) for i in record_w_at)
    block = 256
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_iters):
            if n % block == 0:  # bias and phi + x.x a block at a time: bounded memory
                xs = x[n : n + block]
                bias = params.fit_k * xs[:, 0] + params.fit_b
                den = _tap_sum([xs[:, j] * xs[:, j] for j in range(order)])
                den += params.phi
            if n in record:
                snaps[n] = w1.T.copy()
            x_n = xb[n]
            a = _tap_sum(w * x_n)
            g1 = 1.0 - gamma
            bias_n = bias[n % block]
            y12 = a + bias_n
            y = gamma * a[0] + g1 * a[1] + bias_n
            d_n = d[n]
            e12 = d_n - y12
            e1 = e12[0]
            e = d_n - y
            e_out[:, n] = e
            e1_out[:, n] = e1
            e2_out[:, n] = e12[1]

            # b first (the weight updates leave its inputs alone): one logistic pass
            abs_e1 = np.abs(e1)  # |e1 * prev_e1| == |e1| * |prev_e1| exactly
            np.add(-params.alpha * (abs_e1 * prev_abs_e1), params.sigma * abs_e1, out=u[0])
            b += params.mu_b * np.sign(e) * (y12[0] - y12[1]) * gamma * g1
            np.negative(b, out=u[1])  # clamp(-b) == -clamp(b) exactly
            s = 1.0 / (1.0 + np.exp(_clamp(u, -700.0, 700.0)))
            mu1 = _clamp(params.beta * (s[0] - 0.5), 0.0, 0.5 * params.beta)

            np.divide(2.0 * mu1 * e1, den[n % block], out=k[0])
            np.multiply(params.c, e12[1], out=k[1])
            w += k * x_n

            if n % params.t_o == 0:
                np.copyto(w2, w1, where=gamma > params.gamma_o)
            gamma = s[1]
            prev_abs_e1 = abs_e1
    return {"e": e_out, "e1": e1_out, "e2": e2_out, "w1": w1.T.copy(), "w2": w2.T.copy(),
            "b": b, "gamma": gamma, "w_snapshots": snaps}


# ---------------------------------------------------------------------------
# diagnostics export
# ---------------------------------------------------------------------------

DIAGNOSTICS_HEADER = ("n", "y", "y1", "y2", "e", "e1", "e2", "gamma", "b", "mu1")


class DiagnosticsRecorder:
    """Collects per-step convex-controller diagnostics for CSV export."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def record(self, n: int, out: StepOutput, state: ConvexState) -> None:
        self.rows.append(
            (n, out.y, out.y1, out.y2, out.e, out.e1, out.e2, state.gamma, state.b, out.mu1)
        )

    def write_csv(self, path) -> None:
        write_repr_csv(path, DIAGNOSTICS_HEADER, self.rows)
