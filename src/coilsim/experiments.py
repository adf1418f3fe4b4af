"""Experiment harness: the system-identification convergence study and the
closed-loop step-response study, plus the metric computations they share.

Every run is reproducible: a scenario's one seed keys every stream of its
run.  A step run draws its sensor noise and Gaussian disturbance from
streams 1 and 2 of it (keyed in coilsim.plant), and the class of its
params names its law.  Sysid trial t draws from its own pair of child
streams of the seed, SeedSequence(seed, spawn_key=(t, k)) with k = 0 for
its input and k = 1 for its noise.  A sysid run draws its signals a block
of steps at a time as its loop steps through them, so its memory does not
grow with the signals.  Trial averages add the trials in index order
however the trials and steps are blocked, and every dot product adds its
taps in plain order with no BLAS call, so the bits do not depend on the
BLAS kernel or the blocking.  The sysid laws call np.exp and np.arctan,
whose bits follow numpy's SIMD dispatch; the sysid goldens are checked
under two dispatches (AVX-512 and AVX2 on x86-64), not proven for every
CPU.  The closed loop uses math.exp and math.atan.  Runs take at most
STEP_MAX steps, a sysid at most STEP_MAX trials, and a filter that
diverges gives no report: run_sysid names its method in a ValueError,
and the closed loop raises NonFiniteInput.

A step-response run returns its metrics together with its per-step record,
MetricsReport.columns: one array per column name.  The trace, sensor-log
and convex-diagnostics files of the `step` command are the column lists
TRACE_COLUMNS, SENSOR_LOG_COLUMNS and DIAGNOSTICS_COLUMNS of that record.
Those files, the MSE curves and metrics.csv are all written by
`_table.write_repr_csv`; a metrics row leaves the fields its kind of run
does not fill empty.
"""

from __future__ import annotations

import itertools
import math
import struct
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._table import write_repr_csv
from .control import ERROR_BLOCK, LAWS, AtlmsParams, ConvexParams, LmsParams, NonFiniteInput, SvsParams, run_laws_batch
from .plant import (
    DisturbanceSpec,
    PlantModel,
    SensorSpec,
    TargetProfile,
    disturbance_series,
    sensor_noise,
    snr_to_sigma,
)

METHODS = tuple(LAWS)

# the most steps of a run: 14 h at 200 Hz, and ~1.5 GB for a convex step record
STEP_MAX = 10**7


class ActuatorSaturationWarning(UserWarning):
    """More than half of the drive samples hit the actuation clamp."""


# a reach counts once the series has stayed inside the band for this long, s
DWELL_S = 0.2


@dataclass
class MetricsReport:
    """Per-run summary.  Step-response runs fill the time-domain fields and
    columns, their per-step record (see run_step_response);
    system-identification runs fill the MSE fields; unused fields are None."""

    reach_target_time_s: float | None = None
    mean_steady_nt: float | None = None
    rmse_steady_nt: float | None = None
    fluct_min_nt: float | None = None
    fluct_max_nt: float | None = None
    mse_curve: np.ndarray | None = None
    iters_to_converge: int | None = None
    final_mse: float | None = None
    columns: dict[str, np.ndarray] | None = None


def compute_metrics(
    times: Sequence[float],
    values: Sequence[float],
    target: float,
    settle_time_s: float,
    band_fraction: float,
    step_magnitude: float | None = None,
) -> MetricsReport:
    """Step-response metrics over a (time, value) series.

    Reach time is the first instant (relative to times[0]) at which the
    series enters the +/- band_fraction * step_magnitude band around the
    target and stays inside for DWELL_S; NaN if that never happens within
    the record.  Steady statistics cover samples with t - times[0] >
    settle_time_s.  The times must ascend, as a run's do.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("times and values must be equal-length 1-D sequences")
    if step_magnitude is None:
        step_magnitude = abs(target - v[0])
    band = band_fraction * abs(step_magnitude)
    inside = np.abs(v - target) <= band

    # A sample's dwell window holds when it ends by the record's last sample
    # and the band's next exit, if any, comes after it.  Within a run of
    # inside samples, starts .. ends - 1, a later sample's window ends later
    # and meets the same exit, so only the runs' first samples can be the
    # first to hold.
    t0 = t[0]
    starts, ends = np.flatnonzero(np.diff(inside, prepend=False, append=False)).reshape(-1, 2).T
    t_end = t[starts] + DWELL_S
    held = np.flatnonzero((t_end <= t[-1]) & ((ends == t.size) | (t.take(ends, mode="clip") > t_end)))
    reach = float(t[starts[held[0]]] - t0) if held.size else math.nan

    steady = v[(t - t0) > settle_time_s]
    if steady.size == 0:
        raise ValueError("no samples after the settling time")
    mean = float(np.mean(steady))
    rmse = float(np.sqrt(np.mean((steady - target) ** 2)))
    return MetricsReport(
        reach_target_time_s=reach,
        mean_steady_nt=mean,
        rmse_steady_nt=rmse,
        fluct_min_nt=float(np.min(steady)),
        fluct_max_nt=float(np.max(steady)),
    )


# ---------------------------------------------------------------------------
# system identification
# ---------------------------------------------------------------------------


# the noise burst: REINJECTION_LEN samples at REINJECTION_SCALE times the noise
REINJECTION_SCALE = 50.0
REINJECTION_LEN = 10
# sysid trials drawn and run at a time: enough trials per step to spread
# numpy's per-call cost, and a bound on the 2 * TRIAL_CHUNK Generators and
# the (TRIAL_CHUNK, SIGNAL_BLOCK) signal buffers held at once
TRIAL_CHUNK = 1024
# sysid steps drawn at a time, a whole number of error blocks
SIGNAL_BLOCK = 4 * ERROR_BLOCK
# MSE curve smoothing window, and the convergence test against the curve's tail
SMOOTHING_WINDOW = 20
TAIL_FRACTION = 0.1
THRESHOLD_FACTOR = 1.05


@dataclass(frozen=True)
class SysIdScenario:
    """White-input identification of an unknown tap vector, with measurement
    noise set by the SNR and a noise burst reinjected after stabilization."""

    snr_db: float
    order: int = 2
    n_iters: int = 5000
    reinjection_at: int = 2500
    true_weights: tuple[float, ...] = (0.8, 0.5)
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        # beyond about +/-3080 dB the noise power ratio leaves the float range
        if not abs(self.snr_db) <= 3000.0:
            raise ValueError("snr_db must be finite and within +/-3000 dB")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.reinjection_at < 0:
            raise ValueError("reinjection_at must be >= 0")
        if not self.reinjection_at < self.n_iters <= STEP_MAX:
            raise ValueError(f"n_iters must exceed reinjection_at and be <= STEP_MAX = {STEP_MAX}")
        if len(self.true_weights) != self.order:
            raise ValueError("true_weights length must equal order")
        if not all(map(math.isfinite, self.true_weights)):
            raise ValueError("true_weights must be finite")
        if not 1 <= self.trials <= STEP_MAX:  # a trial is at least one step
            raise ValueError(f"trials must be >= 1 and <= STEP_MAX = {STEP_MAX}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _sysid_blocks(scn: SysIdScenario, first: int = 0,
                  stop: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The tap inputs x (steps, order, trials) and noisy targets d (steps,
    trials) of trials first to stop (all of them by default), time-major,
    the layout the batch runner steps through, SIGNAL_BLOCK steps at a time
    (fewer at the end).  Each block is a view of buffers that the next one
    reuses, so a caller that keeps a block copies it.

    Trial t draws its input from SeedSequence(seed, spawn_key=(t, 0)) and
    its noise from spawn_key=(t, 1): the streams of
    SeedSequence(seed).spawn(trials)[t].spawn(2), each reachable by its
    index alone.  Each stream's Generator is made once and draws a block's
    samples into one row of a buffer, and a stream drawn in parts gives
    the bits of one draw of the whole.  A block's input samples are held
    once, newest first, in one (steps + order - 1, trials) array s, whose
    first order - 1 samples the next block takes over, and x is a
    zero-copy tap-delay view of it: x[n, j] is the sample j steps before
    step n's newest, tap 0 the newest, and each step's taps x[n] are one
    contiguous block of s, which keeps the runner's multiplies on numpy's
    fast path.  The clean targets are multiply-adds in plain tap order,
    x0*w0 + x1*w1 + ..., to which the scaled noise, times
    REINJECTION_SCALE over the burst's steps in the block, is added."""
    n_iters, order = scn.n_iters, scn.order
    stop = scn.trials if stop is None else stop
    trials = stop - first
    wo = np.asarray(scn.true_weights, dtype=float)
    sigma = snr_to_sigma(1.0, scn.snr_db)  # the inputs are unit-variance
    lo = scn.reinjection_at
    inputs, noises = ([np.random.default_rng(np.random.SeedSequence(scn.seed, spawn_key=(t, k)))
                       for t in range(first, stop)] for k in (0, 1))
    block = min(SIGNAL_BLOCK, n_iters)
    # trial-major, as the streams draw them: each trial's input samples,
    # oldest first, and its noise
    u = np.empty((trials, block + order - 1))
    noise = np.empty((trials, block))
    s = np.empty((block + order - 1, trials))
    d = np.empty((block, trials))
    term = np.empty_like(d) if order > 1 else None  # a tap's share of the targets
    for n0 in range(0, n_iters, block):
        steps = min(block, n_iters - n0)
        carry = order - 1 if n0 else 0  # the last block's newest samples, which this one's taps reach
        u[:, :carry] = u[:, block : block + carry]
        for t in range(trials):
            inputs[t].standard_normal(out=u[t, carry : order - 1 + steps])
            noises[t].standard_normal(out=noise[t, :steps])
        eps = noise[:, :steps]
        eps *= sigma
        eps[:, max(lo - n0, 0) : max(lo + REINJECTION_LEN - n0, 0)] *= REINJECTION_SCALE
        sb, db = s[: steps + order - 1], d[:steps]
        sb[...] = u[:, steps + order - 2 :: -1].T
        x = np.lib.stride_tricks.sliding_window_view(sb, order, axis=0)[::-1].transpose(0, 2, 1)
        np.multiply(x[:, 0], wo[0], out=db)
        for j in range(1, order):
            db += np.multiply(x[:, j], wo[j], out=term[:steps])
        db += eps.T
        yield x, db


def _smooth_causal(raw: np.ndarray, window: int) -> np.ndarray:
    window = min(window, len(raw))  # a curve shorter than the window is a cumulative mean
    c = np.cumsum(raw)
    out = np.empty_like(raw)
    out[:window] = c[:window] / np.arange(1, window + 1)
    out[window:] = (c[window:] - c[:-window]) / window
    return out


def run_sysid(scn: SysIdScenario, methods: Mapping[str, object]) -> dict[str, MetricsReport]:
    """Trial-averaged identification runs, one report per method of
    `methods` (method name -> its parameters, an instance of
    control.LAWS[method]), all on one draw of the trial signals.

    Each MSE curve is the trial average of e^2 smoothed over a causal
    SMOOTHING_WINDOW-sample window; iters_to_converge is the first iteration
    at which the smoothed curve falls to within THRESHOLD_FACTOR of its tail
    mean, and final_mse is that tail mean.  Every filter starts from zero
    weights; a filter that diverged, whose sums of e^2 are not all finite,
    raises a ValueError naming its method.  The trials run TRIAL_CHUNK at a
    time, and every method steps through a chunk in one time loop
    (control.run_laws_batch), whose signals are drawn SIGNAL_BLOCK steps at
    a time, each block when the loop asks for it.  The loop hands over the
    errors a block of steps at a time, and each block is added at once to
    its method's running sum of e^2.  So a run holds no (trials, n_iters)
    array, and the memory it needs grows with n_iters only by the per-step
    sums and curves, a few doubles per step and method.
    """
    sums = {m: np.zeros(scn.n_iters) for m in methods}
    for first in range(0, scn.trials, TRIAL_CHUNK):
        stop = min(first + TRIAL_CHUNK, scn.trials)
        rows = np.zeros((1 + stop - first, ERROR_BLOCK))
        sinks = {m: _mean_square_into(s, rows) for m, s in sums.items()}
        run_laws_batch((0.0,) * scn.order, methods, _sysid_blocks(scn, first, stop), sinks=sinks)
    for m, s in sums.items():
        if not np.isfinite(s).all():
            raise ValueError(f"{m}: non-finite mean-square error; the filter diverged")
    return {m: _mse_report(s / scn.trials) for m, s in sums.items()}


def _mean_square_into(total: np.ndarray, rows: np.ndarray):
    """An error sink that adds each block's e^2 to the per-step sums in
    total.  With the sums in row 0 of rows (1 + trials, ERROR_BLOCK) and the
    squares in the rows after, one reduce adds the trials to the sums one by
    one in index order, as np.mean(e**2, axis=0) does over a whole (trials,
    n_iters) array, so the bits hold however the trials are chunked.  It
    spans all of rows' columns: over one column numpy adds pairwise."""
    def sink(start: int, block: np.ndarray) -> None:
        steps = block.shape[1]
        rows[0, :steps] = total[start : start + steps]
        np.square(block[0].T, out=rows[1:, :steps])
        total[start : start + steps] = np.add.reduce(rows, axis=0)[:steps]
    return sink


def _mse_report(raw: np.ndarray) -> MetricsReport:
    curve = _smooth_causal(raw, SMOOTHING_WINDOW)
    tail = float(np.mean(curve[-max(1, int(len(curve) * TAIL_FRACTION)):]))
    below = np.nonzero(curve <= THRESHOLD_FACTOR * tail)[0]
    iters = int(below[0]) if below.size else len(curve)
    return MetricsReport(mse_curve=curve, iters_to_converge=iters, final_mse=tail)


# ---------------------------------------------------------------------------
# closed-loop step response
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepScenario:
    """Closed-loop field-generation run.

    The controller works in scaled field units (ctrl_unit_nt per unit) with
    two taps: a constant reference and the previous sample's normalized
    ambient estimate (the sensed field minus the known coil contribution),
    their weights starting from init_weights, two finite values; params, an
    instance of a control.LAWS class, names the law by its class.  The
    commanded field goes through the voltage fit, the ambient disturbance
    adds in, and the magnetometer closes the loop.  switch_time_s of
    pre-switch running lets the controller settle on the initial level
    first.  The sensor noise and the disturbance's Gaussian term are
    streams 1 and 2 of seed, the run's one seed (see coilsim.plant).
    """

    profile: TargetProfile
    params: LmsParams | SvsParams | AtlmsParams | ConvexParams
    sensor: SensorSpec
    duration_s: float = 20.0
    settle_time_s: float = 1.5
    band_fraction: float = 0.02
    seed: int = 0
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    v_min_v: float = PlantModel.v_min  # the drive's own range
    v_max_v: float = PlantModel.v_max
    init_weights: tuple[float, float] = (0.8, 0.5)
    ctrl_unit_nt: float = 1000.0
    x_scale_nt: float = 1e6

    def __post_init__(self):
        switch, rate = self.profile.switch_time_s, self.sensor.sample_rate_hz
        # NaN or inf whenever one of its terms is
        if not math.isfinite((switch + self.duration_s) * rate) or self.n_steps() > STEP_MAX:
            raise ValueError("switch_time_s, duration_s and sample_rate_hz must be finite, as must the run's "
                             f"sample count, which must be <= STEP_MAX = {STEP_MAX}")
        if not self.duration_s > self.settle_time_s:
            raise ValueError("duration_s must exceed settle_time_s")
        # the steady window of run_step_response's metrics, from the first
        # sample at or after the switch, must hold a sample
        dt, last = 1.0 / rate, self.n_steps() - 1
        first = max(0, math.floor(switch / dt))
        first += first * dt < switch
        if not (first <= last and last * dt - first * dt > self.settle_time_s):
            raise ValueError("no sample falls after switch_time_s + settle_time_s")
        if not self.settle_time_s >= 0.0:
            raise ValueError("settle_time_s must be >= 0")
        if not 0.0 < self.band_fraction < math.inf:
            raise ValueError("band_fraction must be > 0 and finite")
        if not isinstance(self.params, tuple(LAWS.values())):
            raise TypeError(f"params must be an instance of a control.LAWS class, not {type(self.params).__name__}")
        if not (0.0 < self.ctrl_unit_nt < math.inf and 0.0 < self.x_scale_nt < math.inf):
            raise ValueError("ctrl_unit_nt and x_scale_nt must be > 0 and finite")
        # the loop runs a two-tap controller
        if len(self.init_weights) != 2 or not all(map(math.isfinite, self.init_weights)):
            raise ValueError("init_weights must be two finite values")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.resolved_plant()  # a bad [plant] range fails here, not mid-run

    def n_steps(self) -> int:
        """The run's sample count: (switch_time_s + duration_s) *
        sample_rate_hz, rounded."""
        return int(round((self.profile.switch_time_s + self.duration_s) * self.sensor.sample_rate_hz))

    def resolved_plant(self) -> PlantModel:
        """The voltage fit of the step's direction: descending for a
        step_down, ascending otherwise."""
        cls = PlantModel.descending if self.profile.kind == "step_down" else PlantModel.ascending
        return cls(v_min=self.v_min_v, v_max=self.v_max_v)


# closed-loop steps whose inputs are turned into Python floats at a time
STEP_BLOCK = 4096

# the columns of the three files `step` writes from a run's record; the
# diagnostics exist for convex runs only
TRACE_COLUMNS = ("t_s", "target_nT", "measured_nT", "control_V")
SENSOR_LOG_COLUMNS = ("t_s", "true_nT", "disturbance_nT", "measured_nT")
DIAGNOSTICS_COLUMNS = ("n", "y", "y1", "y2", "e", "e1", "e2", "gamma", "b", "mu1")


def run_step_response(scn: StepScenario) -> MetricsReport:
    """Run the closed loop at the sensor sample rate and compute step
    metrics on the post-switch measured field.

    The targets, the disturbance and the sensor noise are computed for the
    whole run before the loop starts, the last two from streams 1 and 2 of
    the run's seed (see coilsim.plant), and the loop takes them as
    Python floats STEP_BLOCK steps at a time.  Each loop step is one inline
    block of float arithmetic: the controller's law on the taps (1, x1) and
    the target d, the inverse drive and the drive of the plant's voltage
    fit, and the magnetometer reading.  Each step-size law, the single
    filters' and the convex one's, is written out inline.  Each operation
    keeps the order of the scalar functions the loop was written from,
    `filter_step` with its rate closures, `convex_step`, `inverse_drive`,
    `drive` and `sense`, which are kept in tests/oracles.py with the
    reference loop `step_response_ref`, and the record is theirs bit for
    bit.  A non-finite tap x1 or target d raises NonFiniteInput.

    A loop step stores only what depends on feedback, as doubles: the drive
    voltage, the coil field, the measured field and, for convex, y, y1, y2,
    e, e1, e2, gamma, b and mu1 (after the step, so gamma and b are the next
    step's).  The times, targets, disturbance and true field are arrays
    computed outside the loop.

    The report's `columns` hold the run's per-step record, one array per
    name: t_s, target_nT, measured_nT, control_V, true_nT and
    disturbance_nT, and for convex the DIAGNOSTICS_COLUMNS too.  n, the step
    index, is an int array; every other column is float64.  Warns
    ActuatorSaturationWarning when the drive voltage sits at v_min or v_max
    for more than half of the steps.
    """
    plant = scn.resolved_plant()
    n_total = scn.n_steps()
    steps = np.arange(n_total)
    times = steps * (1.0 / scn.sensor.sample_rate_hz)
    targets = scn.profile.target_at(times)
    disturbance = disturbance_series(scn.disturbance, times, scn.seed)
    noise = sensor_noise(scn.sensor, scn.seed, n_total)

    p = scn.params
    convex = isinstance(p, ConvexParams)
    if convex:
        neg_alpha, beta, half_beta, sigma, phi = -p.alpha, p.beta, 0.5 * p.beta, p.sigma, p.phi
        c, mu_b, gamma_o, t_o = p.c, p.mu_b, p.gamma_o, p.t_o
        gamma, b, prev_e1, n = 0.5, 0.0, 0.0, 0  # gamma = logistic(b)
    else:  # a single filter: the parameters of its law, None for those it lacks
        svs, atlms = isinstance(p, SvsParams), isinstance(p, AtlmsParams)
        mu, alpha, beta, m, n_scale = (getattr(p, name, None) for name in ("mu", "alpha", "beta", "m", "n_scale"))
    # a single filter's weights, or the convex fast branch's; u0, u1 are the
    # slow branch's, which the fast one starts as a copy of
    w0, w1 = (float(w) for w in scn.init_weights)
    u0, u1 = w0, w1
    fit_k, fit_b, v_min, v_max = plant.fit_k, plant.fit_b, plant.v_min, plant.v_max
    q = scn.sensor.quantization_step_nt
    unit, x_scale = scn.ctrl_unit_nt, scn.x_scale_nt
    exp, atan, pi, copysign, inf = math.exp, math.atan, math.pi, math.copysign, math.inf
    ambient_est_nt = 0.0
    # one row of doubles per step: volts, coil field, measured field and,
    # for convex, y ... mu1
    width = 12 if convex else 3
    record = bytearray()
    pack = struct.Struct(f"{width}d").pack

    blocks = (zip(targets[i : i + STEP_BLOCK].tolist(), disturbance[i : i + STEP_BLOCK].tolist(),
                  noise[i : i + STEP_BLOCK].tolist()) for i in range(0, n_total, STEP_BLOCK))
    for target_nt, dist_nt, noise_nt in itertools.chain.from_iterable(blocks):
        # the taps are (1, x1): a weight or a gain times the first tap is
        # itself.  Each dot product starts from +0.0, as the scalar steps'
        # tap loops did, so a -0.0 first weight adds as +0.0.
        x1 = ambient_est_nt / x_scale
        d = (target_nt - ambient_est_nt) / unit
        if not -inf < x1 < inf:
            raise NonFiniteInput(f"non-finite input sample {x1!r}")
        if not -inf < d < inf:
            raise NonFiniteInput(f"non-finite target {d!r}")
        if convex:
            g, g1 = gamma, 1.0 - gamma
            y1 = 0.0 + u0 + u1 * x1
            y2 = 0.0 + w0 + w1 * x1
            y = g * y1 + g1 * y2
            e1 = d - y1
            e2 = d - y2
            e = d - y
            # the slow branch's rate: beta * (1 / (1 + exp(arg)) - 0.5), the
            # exponential guarded, clamped to [0, beta/2]
            arg = neg_alpha * abs(e1 * prev_e1) + sigma * abs(e1)
            mu1 = beta * ((0.0 if arg > 700.0 else 1.0 if arg < -700.0 else 1.0 / (1.0 + exp(arg))) - 0.5)
            mu1 = 0.0 if mu1 < 0.0 else half_beta if mu1 > half_beta else mu1
            k1 = 2.0 * mu1 * e1 / (phi + (1.0 + x1 * x1))
            k2 = c * e2
            u0 += k1
            u1 += k1 * x1
            w0 += k2
            w1 += k2 * x1
            if g > gamma_o and n % t_o == 0:  # weight transfer
                w0, w1 = u0, u1
            b += mu_b * (1.0 if e > 0.0 else -1.0 if e < 0.0 else 0.0) * (y1 - y2) * g * g1
            gamma = 0.0 if b < -700.0 else 1.0 if b > 700.0 else 1.0 / (1.0 + exp(-b))
            prev_e1 = e1
            n += 1
        else:
            y = 0.0 + w0 + w1 * x1
            e = d - y
            # k = mu(e) * e, with the exponential of the SVS rate guarded
            if svs:
                arg = -alpha * abs(e)
                k = beta * ((0.0 if arg > 700.0 else 1.0 if arg < -700.0 else 1.0 / (1.0 + exp(arg))) - 0.5) * e
            elif atlms:
                k = beta * (2.0 / pi) * atan(alpha * e * e) * m / (m + n_scale) * e
            else:
                k = mu * e
            w0 += k
            w1 += k * x1
        # the voltage for the commanded field, clamped, and the coil's field
        v = (y * unit / 1000.0 - fit_b) / fit_k
        v = v_min if v < v_min else v_max if v > v_max else v
        coil_nt = (fit_k * v + fit_b) * 1000.0
        # the reading: noise, then round-half-even to the quantization step;
        # copysign keeps the sign of a reading that rounds to zero
        meas_nt = coil_nt + dist_nt + noise_nt
        if q > 0.0:
            r = meas_nt / q
            meas_nt = copysign(q * round(r), meas_nt) if -inf < r < inf else q * r
        ambient_est_nt = meas_nt - coil_nt
        if convex:
            record += pack(v, coil_nt, meas_nt, y, y1, y2, e, e1, e2, gamma, b, mu1)
        else:
            record += pack(v, coil_nt, meas_nt)
    del noise  # the loop was its only reader

    volts, coil, measured, *diagnostics = np.frombuffer(record).reshape(n_total, width).T
    saturated = np.count_nonzero((volts == plant.v_min) | (volts == plant.v_max))
    if saturated > 0.5 * n_total:
        warnings.warn(
            f"{saturated}/{n_total} drive samples hit the actuation clamp",
            ActuatorSaturationWarning,
        )

    post = slice(np.searchsorted(times, scn.profile.switch_time_s), None)  # a view: the times ascend
    report = compute_metrics(
        times[post],
        measured[post],
        float(targets[-1]),
        scn.settle_time_s,
        scn.band_fraction,
        step_magnitude=scn.profile.step_magnitude(),
    )
    report.columns = {"t_s": times, "target_nT": targets, "measured_nT": measured, "control_V": volts,
                      "true_nT": coil + disturbance, "disturbance_nT": disturbance}
    if convex:
        report.columns.update(zip(DIAGNOSTICS_COLUMNS, (steps, *diagnostics)))
    return report


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

METRICS_HEADER = (
    "method",
    "reach_target_time_s",
    "mean_steady_nT",
    "rmse_steady_nT",
    "fluct_min_nT",
    "fluct_max_nT",
    "iters_to_converge",
    "final_mse",
)


def write_metrics_csv(path, rows: Sequence[tuple[str, MetricsReport]]) -> None:
    """One row per (method, report): the method, then each METRICS_HEADER
    field of the report, an unused (None) field as an empty cell."""
    names = [name for name, _ in rows]
    fields = [[getattr(r, header.lower()) for _, r in rows] for header in METRICS_HEADER[1:]]
    write_repr_csv(path, METRICS_HEADER, [[names, *fields]])


def write_mse_curves_csv(path, curves: Mapping[str, np.ndarray]) -> None:
    """Columns: iter, then one MSE column per method; the curves must have
    equal lengths."""
    cols = [np.asarray(c, dtype=float) for c in curves.values()]
    if len(set(map(len, cols))) != 1:
        raise ValueError("need at least one MSE curve, all of one length")
    write_repr_csv(path, ["iter"] + [f"mse_{n}" for n in curves], [[range(len(cols[0])), *cols]])

