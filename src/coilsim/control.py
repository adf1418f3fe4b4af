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

One time loop, `run_laws_batch`, runs many independent trials of any set
of the four laws together, vectorized across trials, over one stacked
(order, filters, trials) weight array: the convex w1 and w2 first, then
each single filter.  It exists for experiment-harness speed and is pinned
to the scalar steps by equivalence tests.  The work every law shares runs
once per step for all filters: w.x, d - y, k = rate * e and w += k * x,
with one row of `rate` per filter (mu for LMS, c for the fast branch,
2 * mu1 for the slow one, whose k alone is then divided by phi + x.x, and
the SVS and ATLMS rates as their laws write them), and the logistics of
mu1, gamma and the SVS rate share one pass.  Each element keeps the
operation order of the scalar step, so a law gives the same bits whichever
laws run beside it.  Each dot product adds its taps in plain order,
w0*x0 + w1*x1 + ..., so the bits do not depend on a BLAS kernel.

Each step writes its errors into one row of a time-major
(rows, ERROR_BLOCK, trials) buffer, the convex e first and then each
filter's, and every ERROR_BLOCK steps (fewer at the end) the loop calls
each method's `sink(start, block)` with a view of its filled rows:
block[0] holds e and, for convex, block[1] and block[2] hold e1 and e2,
each (steps, trials) for the steps from `start` on.  The buffer is reused,
so a sink copies what it keeps.  The sinks are required and are the
errors' only way out: the loop returns just each method's final state, so
no (trials, n_iters) error array exists unless a sink builds one.

`check_convergence_condition` tests the convex controller's rates against
the stability bound 2/lambda_max of LMS on white, unit-variance input, in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np


class DimensionMismatch(ValueError):
    """Input vector length does not match the filter order."""


class NonFiniteInput(ValueError):
    """A step input contains NaN or infinity."""


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
        # written so that NaN fails too
        if not self.beta > 0.0:
            raise ValueError("beta must be > 0")
        if not self.phi >= 0.0:
            raise ValueError("phi must be >= 0")
        if not self.c > 0.0:
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
    """Result of checking the step-size convergence condition: both rates
    must be positive and below 2 / lambda_max."""

    lambda_max: float
    mu_max_bound: float
    nlms_rate: float
    nlms_ok: bool
    fixed_rate: float
    fixed_ok: bool
    passed: bool


def check_convergence_condition(params: ConvexParams) -> ConditionReport:
    """Check the controller rates against the 2/lambda_max stability bound
    of LMS on white, unit-variance input (Feuer & Weinstein, IEEE TASSP
    33(1), 1985), whose autocorrelation matrix is R = I at any order: so
    lambda_max = 1 and the bound is 2.

    The slow branch's rate 2 * mu1 / (phi + x.x), with mu1 <= beta/2, is at
    most beta / (phi + x.x), whose supremum over x is beta / phi, at x = 0;
    inf when phi = 0.  The fast branch's rate is its fixed c.
    """
    lam = 1.0
    bound = 2.0 / lam
    nlms_rate = params.beta / params.phi if params.phi > 0.0 else math.inf
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


# steps per error block handed to a sink
ERROR_BLOCK = 128

ErrorSink = Callable[[int, np.ndarray], None]


def run_laws_batch(
    w0: Sequence[float],
    laws: Mapping[str, Mapping],
    x: np.ndarray,
    d: np.ndarray,
    *,
    sinks: Mapping[str, ErrorSink],
) -> dict[str, dict]:
    """Run independent trials of several update laws in one time loop, every
    filter from the weights w0, on time-major inputs of any strides: x has
    shape (n_iters, order, trials), d shape (n_iters, trials).

    `laws` maps each method to the keywords of its law: "lms" to mu, "svs"
    to alpha and beta, "atlms" to alpha, beta, m and n_scale, and "convex"
    to params, a ConvexParams run from b = 0.  Each method runs as if
    alone: sinks[method] gets its error blocks, and the result holds its
    final state under its name, "w" (trials, order) for a single filter and
    "w1", "w2" (trials, order), "b" and "gamma" (trials,) for convex.
    """
    n_iters, order, trials = x.shape
    singles = [m for m in laws if m != "convex"]
    convex = "convex" in laws
    top = int(convex)  # error row 0 holds the convex e
    n_conv = 2 * top  # filters 0 and 1 are the convex w1 and w2
    n_f = n_conv + len(singles)
    w = np.tile(np.asarray(w0, dtype=float)[:, None, None], (1, n_f, trials))
    xb = x[:, :, None]  # each step's taps, broadcast over the filters
    y = np.empty((top + n_f, trials))  # the convex y, then each filter's w.x
    y_f = y[top:]
    errs = np.empty((top + n_f, ERROR_BLOCK, trials))  # the rows of y, as d - y
    rate, k = np.empty((2, n_f, trials))  # each filter's k = rate * e
    xw = np.empty((order, n_f, trials))  # w * x, then k * x
    rows = {}  # method -> its error rows
    has_svs, has_atlms = "svs" in laws, "atlms" in laws
    # one row per logistic, mu1's and gamma's for convex and the SVS rate's:
    # the arguments go in and one pass turns them into the logistics
    n_log = n_conv + has_svs
    u = np.empty((n_log, trials)) if n_log else None
    for i, m in enumerate(singles):
        f, kw = n_conv + i, laws[m]
        rows[m] = slice(top + f, top + f + 1)
        if m == "lms":
            rate[f] = kw["mu"]
        elif m == "svs":
            svs_e, svs_rate, svs_u = errs[top + f], rate[f], u[-1]
            svs_a, svs_b = -kw["alpha"], kw["beta"]
        elif m == "atlms":
            at_e, at_rate, at_a = errs[top + f], rate[f], kw["alpha"]
            at_gain = kw["beta"] * (2.0 / math.pi) * kw["m"] / (kw["m"] + kw["n_scale"])
        else:
            raise ValueError(f"unknown method {m!r}")
    if convex:
        p = laws["convex"]["params"]
        rows["convex"] = slice(0, 3)  # e, e1, e2
        w1, w2 = w[:, 0], w[:, 1]
        y_c, y1, y2 = y[0], y[1], y[2]
        rate[1] = p.c
        rate1, k1 = rate[0], k[0]
        b, g1, tmp, dy, abs_e1, prev_abs_e1 = np.zeros((6, trials))
        mu_u, gamma = u[0], u[1]  # gamma's row holds -b until the logistic pass
        gamma[:] = 0.5  # logistic(0)
        transfer = np.empty(trials, dtype=bool)
        dens = np.empty((ERROR_BLOCK, trials))  # phi + x.x, a block of steps at a time
        neg_alpha, sigma, mu_b, t_o = -p.alpha, p.sigma, p.mu_b, p.t_o
        beta, half_beta = p.beta, 0.5 * p.beta
    multiply, add, subtract, divide, exp = np.multiply, np.add, np.subtract, np.divide, np.exp
    maximum, minimum, absolute, copyto = np.maximum, np.minimum, np.absolute, np.copyto

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_iters, ERROR_BLOCK):
            stop = min(start + ERROR_BLOCK, n_iters)
            if convex:
                xs = x[start:stop]
                den = np.multiply(xs[:, 0], xs[:, 0], out=dens[: stop - start])
                for j in range(1, order):  # in plain tap order
                    den += xs[:, j] * xs[:, j]
                den += p.phi
            for n in range(start, stop):
                x_n, i = xb[n], n - start
                multiply(w, x_n, out=xw)
                if order == 1:
                    copyto(y_f, xw[0])
                else:
                    add(xw[0], xw[1], out=y_f)  # the taps in plain order
                    for j in range(2, order):
                        add(y_f, xw[j], out=y_f)
                if convex:
                    subtract(1.0, gamma, out=g1)
                    multiply(gamma, y1, out=y_c)
                    add(y_c, multiply(g1, y2, out=tmp), out=y_c)
                e_all = errs[:, i]
                subtract(d[n], y, out=e_all)

                if convex:
                    e, e1 = e_all[0], e_all[1]
                    absolute(e1, out=abs_e1)  # |e1 * prev_e1| == |e1| * |prev_e1| exactly
                    multiply(multiply(abs_e1, prev_abs_e1, out=mu_u), neg_alpha, out=mu_u)
                    add(mu_u, multiply(abs_e1, sigma, out=tmp), out=mu_u)
                    # b first (the weight updates leave its inputs alone)
                    multiply(np.sign(e, out=tmp), mu_b, out=tmp)
                    multiply(tmp, subtract(y1, y2, out=dy), out=tmp)
                    multiply(multiply(tmp, gamma, out=tmp), g1, out=tmp)
                    add(b, tmp, out=b)
                    moves = n % t_o == 0  # a weight-transfer step
                    if moves:
                        np.greater(gamma, p.gamma_o, out=transfer)
                    np.negative(b, out=gamma)  # clamp(-b) == -clamp(b) exactly
                if has_svs:
                    multiply(absolute(svs_e[i], out=svs_u), svs_a, out=svs_u)
                if u is not None:  # 1 / (1 + exp(clamp(u))), row by row
                    minimum(maximum(u, -700.0, out=u), 700.0, out=u)
                    divide(1.0, add(exp(u, out=u), 1.0, out=u), out=u)
                if convex:  # 2 * mu1, mu1 clamped to [0, beta/2]
                    multiply(subtract(mu_u, 0.5, out=rate1), beta, out=rate1)
                    minimum(maximum(rate1, 0.0, out=rate1), half_beta, out=rate1)
                    multiply(rate1, 2.0, out=rate1)
                if has_svs:
                    multiply(subtract(svs_u, 0.5, out=svs_rate), svs_b, out=svs_rate)
                if has_atlms:
                    e_at = at_e[i]
                    multiply(multiply(e_at, at_a, out=at_rate), e_at, out=at_rate)
                    multiply(np.arctan(at_rate, out=at_rate), at_gain, out=at_rate)

                multiply(rate, e_all[top:], out=k)
                if convex:
                    divide(k1, den[i], out=k1)
                add(w, multiply(k, x_n, out=xw), out=w)
                if convex:
                    if moves:
                        copyto(w2, w1, where=transfer)
                    abs_e1, prev_abs_e1 = prev_abs_e1, abs_e1
            for m, r in rows.items():
                sinks[m](start, errs[r, : stop - start])

    res = {m: {"w": w[:, n_conv + i].T.copy()} for i, m in enumerate(singles)}
    if convex:
        res["convex"] = {"w1": w1.T.copy(), "w2": w2.T.copy(), "b": b, "gamma": gamma.copy()}
    return res
