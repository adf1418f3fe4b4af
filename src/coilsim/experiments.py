"""Experiment harness: the system-identification convergence study and the
closed-loop step-response study, plus the metric computations they share.

Every run is reproducible: scenarios carry a seed, and sysid trial t draws
from its own pair of child streams of that seed, SeedSequence(seed,
spawn_key=(t, k)) with k = 0 for its input and k = 1 for its noise.  Trial
averages add the trials in index order however the trials and steps are
blocked, and every dot product adds its taps in plain order with no BLAS
call, so a scenario gives the same bits on any CPU.

A step-response run returns its metrics together with its per-step record,
MetricsReport.columns: one array per column name.  The trace, sensor-log
and convex-diagnostics files of the `step` command are the column lists
TRACE_COLUMNS, SENSOR_LOG_COLUMNS and DIAGNOSTICS_COLUMNS of that record.
"""

from __future__ import annotations

import csv
import itertools
import math
import struct
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._table import write_repr_csv
from .control import (
    ERROR_BLOCK,
    ConvexParams,
    ConvexState,
    FilterState,
    atlms_rate,
    convex_step,
    filter_step,
    lms_rate,
    run_laws_batch,
    svs_rate,
)
from .plant import (
    DisturbanceSpec,
    PlantModel,
    SensorSpec,
    TargetProfile,
    disturbance_series,
    drive,
    inverse_drive,
    sense,
    sensor_noise,
    snr_to_sigma,
)

METHODS = ("lms", "svs", "atlms", "convex")

# method -> step-size law factory of the scalar single-filter step
_RATES = {"lms": lms_rate, "svs": svs_rate, "atlms": atlms_rate}


def _keywords(method: str, params) -> dict:
    """A method's parameters as keywords of its law factory and of its law
    in control.run_laws_batch; convex takes them as one ConvexParams, built
    here from a dict."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "convex":
        return {"params": params if isinstance(params, ConvexParams) else ConvexParams(**params)}
    return dict(params)


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
    target and stays inside for DWELL_S; NaN if that never happens.  Steady
    statistics cover samples with t - times[0] > settle_time_s.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("times and values must be equal-length 1-D sequences")
    if step_magnitude is None:
        step_magnitude = abs(target - v[0])
    band = band_fraction * abs(step_magnitude)
    inside = np.abs(v - target) <= band

    reach = math.nan
    t0 = t[0]
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
            reach = float(t[i] - t0)
            break

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
# sysid trials drawn per block of the signal arrays
TRIAL_BLOCK = 16
# sysid trials drawn and run at a time: enough trials per step to spread
# numpy's per-call cost, and at 5,000 steps ~80 MB of signals
TRIAL_CHUNK = 1024
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
    noise_reinjection_at: int = 2500
    true_weights: tuple[float, ...] = (0.8, 0.5)
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        # beyond about +/-3080 dB the noise power ratio leaves the float range
        if not abs(self.snr_db) <= 3000.0:
            raise ValueError("snr_db must be finite and within +/-3000 dB")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.noise_reinjection_at < 0:
            raise ValueError("noise_reinjection_at must be >= 0")
        if not self.n_iters > self.noise_reinjection_at:
            raise ValueError("n_iters must exceed noise_reinjection_at")
        if len(self.true_weights) != self.order:
            raise ValueError("true_weights length must equal order")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _sysid_signals(scn: SysIdScenario, first: int = 0,
                   stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Tap inputs x (n_iters, order, trials) and noisy targets d (n_iters,
    trials) of trials first to stop (all of them by default), time-major:
    the layout the batch runners step through.

    Trial t draws its input from SeedSequence(seed, spawn_key=(t, 0)) and
    its noise from spawn_key=(t, 1): the streams of
    SeedSequence(seed).spawn(trials)[t].spawn(2), each reachable by its
    index alone.  The input samples are held once, newest first, in one
    (n_iters + order - 1, trials) array s, and x is a zero-copy tap-delay
    view of it: x[n, j] is the sample j steps before step n's newest, tap 0
    the newest, and each step's taps x[n] are one contiguous block of s,
    which keeps the runners' multiplies on numpy's fast path.  Trials are
    drawn TRIAL_BLOCK at a time; a block's clean targets are multiply-adds
    in plain tap order, x0*w0 + x1*w1 + ..., to which its scaled and
    reinjected noise is added."""
    n_iters, order = scn.n_iters, scn.order
    stop = scn.trials if stop is None else stop
    trials = stop - first
    n_samples = n_iters + order - 1
    wo = np.asarray(scn.true_weights, dtype=float)
    sigma = snr_to_sigma(1.0, scn.snr_db)  # the inputs are unit-variance
    burst = slice(scn.noise_reinjection_at, scn.noise_reinjection_at + REINJECTION_LEN)
    s = np.empty((n_samples, trials))
    d = np.empty((n_iters, trials))
    for t0 in range(0, trials, TRIAL_BLOCK):
        t1 = min(t0 + TRIAL_BLOCK, trials)
        u = np.empty((t1 - t0, n_samples))
        noise = np.empty((t1 - t0, n_iters))
        for i in range(t1 - t0):
            for k, out in enumerate((u[i], noise[i])):
                stream = np.random.SeedSequence(scn.seed, spawn_key=(first + t0 + i, k))
                np.random.default_rng(stream).standard_normal(out=out)
        noise *= sigma
        noise[:, burst] *= REINJECTION_SCALE
        targets = u[:, order - 1 : n_samples] * wo[0]
        for j in range(1, order):
            targets += u[:, order - 1 - j : n_samples - j] * wo[j]
        targets += noise
        s[:, t0:t1] = u[:, ::-1].T
        d[:, t0:t1] = targets.T
    x = np.lib.stride_tricks.sliding_window_view(s, order, axis=0)[::-1].transpose(0, 2, 1)
    return x, d


def _smooth_causal(raw: np.ndarray, window: int) -> np.ndarray:
    window = min(window, len(raw))  # a curve shorter than the window is a cumulative mean
    c = np.cumsum(raw)
    out = np.empty_like(raw)
    out[:window] = c[:window] / np.arange(1, window + 1)
    out[window:] = (c[window:] - c[:-window]) / window
    return out


def run_sysid(scn: SysIdScenario, methods: Mapping[str, object]) -> dict[str, MetricsReport]:
    """Trial-averaged identification runs, one report per method of
    `methods` (method name -> its parameters), all on one draw of the trial
    signals.

    Each MSE curve is the trial average of e^2 smoothed over a causal
    SMOOTHING_WINDOW-sample window; iters_to_converge is the first iteration
    at which the smoothed curve falls to within THRESHOLD_FACTOR of its tail
    mean, and final_mse is that tail mean.  Every filter starts from zero
    weights.  The trials are drawn TRIAL_CHUNK at a time, and every method
    steps through a chunk in one time loop (control.run_laws_batch) before
    the next chunk is drawn.  The loop hands over the errors a block of
    steps at a time, and each block is added at once to its method's
    running sum of e^2, so neither a (trials, n_iters) error array nor more
    than a chunk of signals is held.
    """
    laws = {m: _keywords(m, p) for m, p in methods.items()}
    sums = {m: np.zeros(scn.n_iters) for m in methods}
    for first in range(0, scn.trials, TRIAL_CHUNK):
        stop = min(first + TRIAL_CHUNK, scn.trials)
        x, d = _sysid_signals(scn, first, stop)
        rows = np.zeros((1 + stop - first, ERROR_BLOCK))
        sinks = {m: _mean_square_into(s, rows) for m, s in sums.items()}
        run_laws_batch((0.0,) * scn.order, laws, x, d, sinks=sinks)
        del x, d  # so that the next chunk is drawn with this one freed
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
    ambient estimate (the sensed field minus the known coil contribution).
    The commanded field goes through the voltage fit, the ambient disturbance
    adds in, and the magnetometer closes the loop.  hold_time_s of pre-switch
    running lets the controller settle on the initial level first.
    """

    profile: TargetProfile
    method: str
    params: Mapping[str, float] | ConvexParams
    sensor: SensorSpec
    duration_s: float
    settle_time_s: float = 1.5
    band_fraction: float = 0.02
    seed: int = 0
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    v_min_v: float = 0.0
    v_max_v: float = 3.0
    init_weights: tuple[float, float] = (0.8, 0.5)
    ctrl_unit_nt: float = 1000.0
    x_scale_nt: float = 1e6

    def __post_init__(self):
        switch, rate = self.profile.switch_time_s, self.sensor.sample_rate_hz
        # NaN or inf whenever one of its terms is
        if not math.isfinite((switch + self.duration_s) * rate):
            raise ValueError("switch_time_s, duration_s and sample_rate_hz must be finite, "
                             "as must the run's sample count")
        if not self.duration_s > self.settle_time_s:
            raise ValueError("duration_s must exceed settle_time_s")
        # the steady window of run_step_response's metrics, from the first
        # sample at or after the switch, must hold a sample
        dt, last = 1.0 / rate, self.n_steps() - 1
        first = max(0, math.floor(switch / dt))
        first += first * dt < switch
        if not (first <= last and last * dt - first * dt > self.settle_time_s):
            raise ValueError("no sample falls after switch_time_s + settle_time_s")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.ctrl_unit_nt <= 0.0 or self.x_scale_nt <= 0.0:
            raise ValueError("scales must be > 0")
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
    whole run before the loop starts, the last two from the seed's two
    independent streams (see coilsim.plant), and the loop takes them as
    Python floats STEP_BLOCK steps at a time.  A loop step stores only what
    depends on feedback, as doubles: the drive voltage, the coil field, the
    measured field and, for convex, y and the eight values the controller
    step leaves on its state (after the step, so gamma and b are the next
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
    kw = _keywords(scn.method, scn.params)
    convex = scn.method == "convex"
    if convex:
        state, params = ConvexState.initial(scn.init_weights), kw["params"]
    else:
        state = FilterState.initial(scn.init_weights, _RATES[scn.method](**kw))
    steps = np.arange(n_total)
    times = steps * (1.0 / scn.sensor.sample_rate_hz)
    targets = scn.profile.target_at(times)
    disturbance = disturbance_series(scn.disturbance, times)
    noise = sensor_noise(scn.sensor, np.random.default_rng((scn.seed, 1)), n_total)

    unit = scn.ctrl_unit_nt
    ambient_est_nt = 0.0
    # one row of doubles per step: volts, coil field, measured field and,
    # for convex, y and the state's y1 ... mu1
    width = 12 if convex else 3
    record = bytearray()
    pack = struct.Struct(f"{width}d").pack

    blocks = (zip(targets[i : i + STEP_BLOCK].tolist(), disturbance[i : i + STEP_BLOCK].tolist(),
                  noise[i : i + STEP_BLOCK].tolist()) for i in range(0, n_total, STEP_BLOCK))
    for target_nt, dist_nt, noise_nt in itertools.chain.from_iterable(blocks):
        x = (1.0, ambient_est_nt / scn.x_scale_nt)
        d_ctrl = (target_nt - ambient_est_nt) / unit
        y = convex_step(state, params, x, d_ctrl) if convex else filter_step(state, x, d_ctrl)
        v = inverse_drive(plant, y * unit)
        coil_nt = drive(plant, v)
        meas_nt = sense(scn.sensor, coil_nt + dist_nt, noise_nt)
        ambient_est_nt = meas_nt - coil_nt
        if convex:
            record += pack(v, coil_nt, meas_nt, y, state.y1, state.y2, state.e, state.e1, state.e2,
                           state.gamma, state.b, state.mu1)
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


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # np.float64 is a float whose repr is np.float64(...)
    return str(v)


def write_metrics_csv(path, rows: Sequence[tuple[str, MetricsReport]]) -> None:
    """One row per (method, report)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for name, r in rows:
            writer.writerow(
                [
                    name,
                    _fmt(r.reach_target_time_s),
                    _fmt(r.mean_steady_nt),
                    _fmt(r.rmse_steady_nt),
                    _fmt(r.fluct_min_nt),
                    _fmt(r.fluct_max_nt),
                    _fmt(r.iters_to_converge),
                    _fmt(r.final_mse),
                ]
            )


def write_mse_curves_csv(path, curves: Mapping[str, np.ndarray]) -> None:
    """Columns: iter, then one MSE column per method; the curves must have
    equal lengths."""
    cols = [np.asarray(c, dtype=float) for c in curves.values()]
    if len(set(map(len, cols))) != 1:
        raise ValueError("need at least one MSE curve, all of one length")
    write_repr_csv(path, ["iter"] + [f"mse_{n}" for n in curves], [[range(len(cols[0])), *cols]])

