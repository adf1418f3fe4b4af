"""Adaptive coil controllers.

The main controller blends two adaptive filters through a coupling
coefficient gamma in (0,1): a slow, regularized branch (adaptive rate mu1,
normalized update) for accuracy and a fast fixed-rate branch for quick
convergence.  gamma is the logistic image of an update factor b, itself
adapted by a signed gradient rule, and the slow branch's weights are
periodically transferred to the fast branch once gamma exceeds a threshold.

LMS, sigmoid-variable-step (SVS), and arctangent-step (ATLMS) single-filter
baselines differ only in their step-size law mu(e).  A FilterState carries
its weights and its law, built once per run by `lms_rate`, `svs_rate` or
`atlms_rate`, and `filter_step` is the one scalar step for all three.

A scalar step takes the tap vector x (a tuple of floats, x[0] the most
recent) and the target d, mutates its state in place and returns the
control signal y.  The step's other values stay on the state until the next
step overwrites them: e and mu on a FilterState; y1, y2, e, e1, e2 and mu1
on a ConvexState, whose gamma and b are then the next step's.  A caller
that wants them per step reads them off the state after each step, as the
closed loop in coilsim.experiments does.  Independent controller instances
may run in parallel, but a single state must be stepped from one thread at
a time.

Batch runners (`run_*_batch`) execute many independent trials of the same
update equations vectorized across trials; they exist for experiment-harness
speed and are pinned to the scalar steps by equivalence tests.  Each dot
product adds its taps in plain order, w0*x0 + w1*x1 + ..., the order of the
scalar steps, so the bits do not depend on a BLAS kernel.  Mirroring the
scalar side, LMS, SVS and ATLMS share one loop, `_run_filter`, that differs
only in its step-size law; the convex runner stacks w1 and w2 so one
multiply serves both branches.

Each step writes its errors into one contiguous row of a time-major
(kinds, ERROR_BLOCK, trials) buffer, and every ERROR_BLOCK steps (fewer at
the end) the runner calls `sink(start, block)` with the filled rows:
block[0] holds e and, for the convex runner, block[1] and block[2] hold e1
and e2, each (steps, trials) for the steps from `start` on.  The buffer is
reused, so a sink copies what it keeps.  The sink is required and is the
errors' only way out: a runner returns just its final state, so no
(trials, n_iters) error array exists unless a sink builds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


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
    """Parameters of the convex combination controller, whose output is
    y = gamma * w1.x + (1 - gamma) * w2.x.

    alpha    sensitivity of the slow branch's rate to error variation
    beta     intensity of the slow branch's rate (mu1 is clamped to [0, beta/2])
    sigma    regularization inside the rate's exponent
    phi      regularization of the normalized weight update
    c        fixed learning rate of the fast branch
    mu_b     learning rate of the update factor b
    gamma_o  weight-transfer threshold on gamma, in (0, 1)
    t_o      weight-transfer period in steps
    """

    alpha: float
    beta: float
    sigma: float = 0.0
    phi: float = 1.0
    c: float = 0.1
    mu_b: float = 0.1
    gamma_o: float = 0.55
    t_o: int = 2

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
    )


# ---------------------------------------------------------------------------
# batched trial runners (vectorized across independent trials)
# ---------------------------------------------------------------------------


def _plain_sum(p) -> np.ndarray:
    """p[0] + p[1] + ... over the leading (tap) axis, added left to right."""
    y = p[0]
    for j in range(1, len(p)):
        y = y + p[j]
    return y


def _clamp(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # the bits of np.clip, NaN included, at less per-call overhead
    return np.minimum(np.maximum(v, lo), hi)


# steps per error block handed to a runner's sink
ERROR_BLOCK = 256

ErrorSink = Callable[[int, np.ndarray], None]


def _run_filter(w0, x, d, rate, sink: ErrorSink) -> dict:
    """Single-filter trials, e = d - w.x and then w += rate(e) * e * x,
    one step across all trials at once."""
    n_iters, order, trials = x.shape
    w = np.repeat(np.asarray(w0, dtype=float)[:, None], trials, axis=1)
    errs = np.empty((1, ERROR_BLOCK, trials))
    for start in range(0, n_iters, ERROR_BLOCK):
        stop = min(start + ERROR_BLOCK, n_iters)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(start, stop):
                x_n = x[n]
                e = np.subtract(d[n], _plain_sum(w * x_n), out=errs[0, n - start])
                w += rate(e) * e * x_n
        sink(start, errs[:, : stop - start])
    return {"w": w.T.copy()}


def run_lms_batch(
    w0: Sequence[float],
    mu: float,
    x: np.ndarray,
    d: np.ndarray,
    *,
    sink: ErrorSink,
) -> dict:
    """Run independent LMS trials on time-major inputs of any strides: x
    has shape (n_iters, order, trials), d shape (n_iters, trials).  Hands
    the errors to `sink` and returns the final weights as "w" (trials,
    order)."""
    return _run_filter(w0, x, d, lambda e: mu, sink)


def run_svs_batch(
    w0: Sequence[float],
    alpha: float,
    beta: float,
    x: np.ndarray,
    d: np.ndarray,
    *,
    sink: ErrorSink,
) -> dict:
    return _run_filter(w0, x, d, lambda e: beta * (
        1.0 / (1.0 + np.exp(_clamp(-alpha * np.abs(e), -700.0, 700.0))) - 0.5), sink)


def run_atlms_batch(
    w0: Sequence[float],
    alpha: float,
    beta: float,
    m: float,
    n_scale: float,
    x: np.ndarray,
    d: np.ndarray,
    *,
    sink: ErrorSink,
) -> dict:
    gain = beta * (2.0 / math.pi) * m / (m + n_scale)
    return _run_filter(w0, x, d, lambda e: gain * np.arctan(alpha * e * e), sink)


def run_convex_batch(
    w0: Sequence[float],
    params: ConvexParams,
    x: np.ndarray,
    d: np.ndarray,
    *,
    sink: ErrorSink,
) -> dict:
    """Vectorized convex combination trials from b = 0; same update order
    as convex_step, on inputs laid out as run_lms_batch's.  Returns the
    final "w1", "w2" (trials, order), "b" and "gamma" (trials,)."""
    n_iters, order, trials = x.shape
    # w[:, 0] is w1 and w[:, 1] is w2: one multiply serves both branches
    w = np.tile(np.asarray(w0, dtype=float)[:, None, None], (1, 2, trials))
    w1, w2 = w[:, 0], w[:, 1]
    xb = x[:, :, None]  # each step's taps, broadcast over the two branches
    b = np.zeros(trials)
    gamma = np.full(trials, 0.5)  # logistic(0)
    prev_abs_e1 = np.zeros(trials)
    u = np.empty((2, trials))  # exponents of the slow rate's logistic and of gamma's
    k = np.empty((2, trials))
    errs = np.empty((3, ERROR_BLOCK, trials))  # e, e1, e2
    dens = np.empty((ERROR_BLOCK, trials))  # phi + x.x, a block of steps at a time
    for start in range(0, n_iters, ERROR_BLOCK):
        stop = min(start + ERROR_BLOCK, n_iters)
        with np.errstate(over="ignore", invalid="ignore"):
            xs = x[start:stop]
            den = np.multiply(xs[:, 0], xs[:, 0], out=dens[: stop - start])
            for j in range(1, order):  # in plain tap order
                den += xs[:, j] * xs[:, j]
            den += params.phi
            for n in range(start, stop):
                x_n = xb[n]
                y12 = _plain_sum(w * x_n)
                g1 = 1.0 - gamma
                y = gamma * y12[0] + g1 * y12[1]
                d_n = d[n]
                row = errs[:, n - start]
                e12 = np.subtract(d_n, y12, out=row[1:])
                e1 = e12[0]
                e = np.subtract(d_n, y, out=row[0])

                # b first (the weight updates leave its inputs alone): one logistic pass
                abs_e1 = np.abs(e1)  # |e1 * prev_e1| == |e1| * |prev_e1| exactly
                np.add(-params.alpha * (abs_e1 * prev_abs_e1), params.sigma * abs_e1, out=u[0])
                b += params.mu_b * np.sign(e) * (y12[0] - y12[1]) * gamma * g1
                np.negative(b, out=u[1])  # clamp(-b) == -clamp(b) exactly
                s = 1.0 / (1.0 + np.exp(_clamp(u, -700.0, 700.0)))
                mu1 = _clamp(params.beta * (s[0] - 0.5), 0.0, 0.5 * params.beta)

                np.divide(2.0 * mu1 * e1, den[n - start], out=k[0])
                np.multiply(params.c, e12[1], out=k[1])
                w += k * x_n

                if n % params.t_o == 0:
                    np.copyto(w2, w1, where=gamma > params.gamma_o)
                gamma = s[1]
                prev_abs_e1 = abs_e1
        sink(start, errs[:, : stop - start])
    return {"w1": w1.T.copy(), "w2": w2.T.copy(), "b": b, "gamma": gamma}

