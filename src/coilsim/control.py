"""Adaptive coil controllers.

The main controller blends two adaptive filters through a coupling
coefficient gamma in (0,1): a slow, regularized branch (adaptive rate mu1,
normalized update) for accuracy and a fast fixed-rate branch for quick
convergence.  gamma is the logistic image of an update factor b, itself
adapted by a signed gradient rule, and the slow branch's weights are
periodically transferred to the fast branch once gamma exceeds a threshold.

LMS, sigmoid-variable-step (SVS), and arctangent-step (ATLMS) single-filter
baselines differ only in their step-size law mu(e): LMS a fixed mu, SVS
beta * (1/(1 + exp(-alpha|e|)) - 0.5), which saturates at beta/2, and ATLMS
beta * (2/pi) * atan(alpha e^2) * m/(m + n), bounded by beta * m/(m + n).
Each law takes its parameters as a frozen dataclass that checks their
domains, and LAWS maps each method to that class.

Each law runs in two places.  The closed loop,
coilsim.experiments.run_step_response, steps one two-tap controller a
sample at a time in Python floats, inline in its time loop, each law and
the convex update written out there in full.  It raises NonFiniteInput on
a non-finite tap or target.  The scalar steps that loop was written from,
`filter_step` and `convex_step` with their states and the rate closures
of the single filters, are kept in tests/oracles.py, and the loop is
pinned to them bit for bit.

One time loop, `run_laws_batch`, runs many independent trials of any set
of the four laws together, vectorized across trials, over one stacked
(order, filters, trials) weight array: the convex w1 and w2 first, then
each single filter.  It exists for experiment-harness speed and is pinned
to the scalar steps by equivalence tests.  It takes its signals as an
iterable of time-major (x, d) blocks of consecutive steps, a whole run
being one block, so a caller can draw them as the loop goes and hold one
block at a time; the loop counts the steps across blocks, for the weight
transfer's n % t_o and the sinks' start, and any split of a run gives the
bits of the whole.  The work every law shares runs once per step for all
filters: w.x, d - y, k = rate * e and w += k * x, with one row of `rate`
per filter (mu for LMS, c for the fast branch, 2 * mu1 for the slow one,
whose k alone is then divided by phi + x.x, and the SVS and ATLMS rates as
their laws write them), and the logistics of mu1, gamma and the SVS rate
share one pass.  Each element keeps the operation order of the scalar
step, so a law gives the same bits whichever laws run beside it.  Each dot
product adds its taps in plain order, w0*x0 + w1*x1 + ..., so the bits do
not depend on a BLAS kernel.

Each step writes its errors into one row of a time-major
(rows, ERROR_BLOCK, trials) buffer, the convex e first and then each
filter's, and every ERROR_BLOCK steps (fewer at the end of a signal block)
the loop calls each method's `sink(start, block)` with a view of its
filled rows: block[0] holds e and, for convex, block[1] and block[2] hold
e1 and e2, each (steps, trials) for the steps from `start` on.  The buffer
is reused, so a sink copies what it keeps.  The sinks are required and are the
errors' only way out: the loop returns just each method's final state, so
no (trials, n_iters) error array exists unless a sink builds one.

`check_convergence_condition` tests the convex controller's rates against
the stability bound 2/lambda_max of LMS on white, unit-variance input, in
closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class NonFiniteInput(ValueError):
    """A closed-loop step's tap input or target is NaN or infinite."""


def _domain(params, *keys: str, above: bool = False) -> None:
    """Each of `keys` of params must be finite and >= 0, or > 0 if above."""
    for key in keys:
        value = getattr(params, key)
        if not (0.0 < value if above else 0.0 <= value) or value == math.inf:  # NaN fails too
            raise ValueError(f"{key} must be finite and {'>' if above else '>='} 0")


@dataclass(frozen=True)
class LmsParams:
    """The LMS filter's fixed rate."""

    mu: float

    def __post_init__(self):
        _domain(self, "mu")


@dataclass(frozen=True)
class SvsParams:
    """The SVS filter's rate law, beta * (1/(1 + exp(-alpha|e|)) - 0.5)."""

    alpha: float
    beta: float

    def __post_init__(self):
        _domain(self, "alpha", "beta")


@dataclass(frozen=True)
class AtlmsParams:
    """The ATLMS filter's rate law, beta * (2/pi) * atan(alpha e^2) * m/(m + n_scale)."""

    alpha: float
    beta: float
    m: float
    n_scale: float

    def __post_init__(self):
        _domain(self, "alpha", "beta", "n_scale")
        _domain(self, "m", above=True)


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
        if not all(map(math.isfinite, (self.alpha, self.sigma, self.mu_b))):
            raise ValueError("alpha, sigma and mu_b must be finite")
        _domain(self, "beta", above=True)
        if not self.phi >= 0.0:
            raise ValueError("phi must be >= 0")
        _domain(self, "c", above=True)
        if not 0.0 < self.gamma_o < 1.0:
            raise ValueError("gamma_o must lie in (0, 1)")
        if self.t_o < 1:
            raise ValueError("t_o must be >= 1")


LAWS = {"lms": LmsParams, "svs": SvsParams, "atlms": AtlmsParams, "convex": ConvexParams}


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


def _f64(value: float) -> np.ndarray:
    # the ufuncs of run_laws_batch's loop take their scalar operands as 0-d
    # float64 arrays and `out` by position (by keyword for maximum and
    # minimum, where numpy deprecates it by position): a Python float is
    # converted on every call, and keywords are parsed
    return np.array(value, dtype=np.float64)


def run_laws_batch(
    w0: Sequence[float],
    laws: Mapping[str, LmsParams | SvsParams | AtlmsParams | ConvexParams],
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    *,
    sinks: Mapping[str, ErrorSink],
) -> dict[str, dict]:
    """Run independent trials of several update laws in one time loop, every
    filter from the weights w0, on time-major inputs of any strides that
    come a block of steps at a time: each of `blocks` is a pair x (steps,
    order, trials), d (steps, trials) of the steps that follow the blocks
    before it, and a whole run in one block is [(x, d)].  The loop is done
    with a block before it takes the next, so a block may reuse the memory
    of the one before.

    `laws` maps each method to the parameters of its law, an instance of
    LAWS[method]; convex runs from b = 0.  Each method runs as if
    alone: sinks[method] gets its error blocks, and the result holds its
    final state under its name, "w" (trials, order) for a single filter and
    "w1", "w2" (trials, order), "b" and "gamma" (trials,) for convex.
    """
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        raise ValueError("no block of signals")
    _, order, trials = first[0].shape
    singles = [m for m in laws if m != "convex"]
    convex = "convex" in laws
    top = int(convex)  # error row 0 holds the convex e
    n_conv = 2 * top  # filters 0 and 1 are the convex w1 and w2
    n_f = n_conv + len(singles)
    w = np.tile(np.asarray(w0, dtype=float)[:, None, None], (1, n_f, trials))
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
        f, p = n_conv + i, laws[m]
        rows[m] = slice(top + f, top + f + 1)
        if m == "lms":
            rate[f] = p.mu
        elif m == "svs":
            svs_e, svs_mu, svs_u = errs[top + f], rate[f], u[-1]
            svs_a, svs_b = _f64(-p.alpha), _f64(p.beta)
        elif m == "atlms":
            at_e, at_mu, at_a = errs[top + f], rate[f], _f64(p.alpha)
            at_gain = _f64(p.beta * (2.0 / math.pi) * p.m / (p.m + p.n_scale))
        else:
            raise ValueError(f"unknown method {m!r}")
    if convex:
        p = laws["convex"]
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
        neg_alpha, sigma, mu_b, gamma_o = map(_f64, (-p.alpha, p.sigma, p.mu_b, p.gamma_o))
        beta, half_beta, t_o = _f64(p.beta), _f64(0.5 * p.beta), p.t_o
    zero, half, one, two, low, high = map(_f64, (0.0, 0.5, 1.0, 2.0, -700.0, 700.0))
    multiply, add, subtract, divide, exp = np.multiply, np.add, np.subtract, np.divide, np.exp
    maximum, minimum, absolute, copyto = np.maximum, np.minimum, np.absolute, np.copyto

    with np.errstate(over="ignore", invalid="ignore"):
        for start, x, d in _error_spans(itertools.chain([first], blocks), order, trials):
            steps = len(x)
            if convex:
                den = np.multiply(x[:, 0], x[:, 0], dens[:steps])
                for j in range(1, order):  # in plain tap order
                    den += x[:, j] * x[:, j]
                den += p.phi
            xb = x[:, :, None]  # each step's taps, broadcast over the filters
            for i in range(steps):
                x_n = xb[i]
                multiply(w, x_n, xw)
                if order == 1:
                    copyto(y_f, xw[0])
                else:
                    add(xw[0], xw[1], y_f)  # the taps in plain order
                    for j in range(2, order):
                        add(y_f, xw[j], y_f)
                if convex:
                    subtract(one, gamma, g1)
                    multiply(gamma, y1, y_c)
                    add(y_c, multiply(g1, y2, tmp), y_c)
                e_all = errs[:, i]
                subtract(d[i], y, e_all)

                if convex:
                    e, e1 = e_all[0], e_all[1]
                    absolute(e1, abs_e1)  # |e1 * prev_e1| == |e1| * |prev_e1| exactly
                    multiply(multiply(abs_e1, prev_abs_e1, mu_u), neg_alpha, mu_u)
                    add(mu_u, multiply(abs_e1, sigma, tmp), mu_u)
                    # b first (the weight updates leave its inputs alone)
                    multiply(np.sign(e, tmp), mu_b, tmp)
                    multiply(tmp, subtract(y1, y2, dy), tmp)
                    multiply(multiply(tmp, gamma, tmp), g1, tmp)
                    add(b, tmp, b)
                    moves = (start + i) % t_o == 0  # a weight-transfer step
                    if moves:
                        np.greater(gamma, gamma_o, transfer)
                    np.negative(b, gamma)  # clamp(-b) == -clamp(b) exactly
                if has_svs:
                    multiply(absolute(svs_e[i], svs_u), svs_a, svs_u)
                if u is not None:  # 1 / (1 + exp(clamp(u))), row by row
                    minimum(maximum(u, low, out=u), high, out=u)
                    divide(one, add(exp(u, u), one, u), u)
                if convex:  # 2 * mu1, mu1 clamped to [0, beta/2]
                    multiply(subtract(mu_u, half, rate1), beta, rate1)
                    minimum(maximum(rate1, zero, out=rate1), half_beta, out=rate1)
                    multiply(rate1, two, rate1)
                if has_svs:
                    multiply(subtract(svs_u, half, svs_mu), svs_b, svs_mu)
                if has_atlms:
                    e_at = at_e[i]
                    multiply(multiply(e_at, at_a, at_mu), e_at, at_mu)
                    multiply(np.arctan(at_mu, at_mu), at_gain, at_mu)

                multiply(rate, e_all[top:], k)
                if convex:
                    divide(k1, den[i], k1)
                add(w, multiply(k, x_n, xw), w)
                if convex:
                    if moves:
                        copyto(w2, w1, where=transfer)
                    abs_e1, prev_abs_e1 = prev_abs_e1, abs_e1
            for m, r in rows.items():
                sinks[m](start, errs[r, :steps])

    res = {m: {"w": w[:, n_conv + i].T.copy()} for i, m in enumerate(singles)}
    if convex:
        res["convex"] = {"w1": w1.T.copy(), "w2": w2.T.copy(), "b": b, "gamma": gamma.copy()}
    return res


def _error_spans(blocks, order: int, trials: int):
    """The blocks' steps as (start, x, d), at most ERROR_BLOCK steps each,
    start the global index of the first; no span crosses a block's edge."""
    start = 0
    for x, d in blocks:
        steps = len(x)
        if x.shape[1:] != (order, trials) or d.shape != (steps, trials):
            raise ValueError(f"a block of shapes {x.shape} and {d.shape} in a run of "
                             f"{order} taps and {trials} trials")
        for i in range(0, steps, ERROR_BLOCK):
            yield start + i, x[i : i + ERROR_BLOCK], d[i : i + ERROR_BLOCK]
        start += steps
