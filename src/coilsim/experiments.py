"""Experiment harness: the system-identification convergence study and the
closed-loop step-response study, plus the metric computations they share.

Every run is reproducible: scenarios carry a seed, trial t derives its
stream from seed XOR t, and trial averages add the trials in index order
however the trials and steps are blocked, so a scenario always gives the
same bits.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._table import write_repr_csv
from .control import (
    ConvexParams,
    ConvexState,
    DiagnosticsRecorder,
    FilterState,
    atlms_rate,
    convex_step,
    filter_step,
    lms_rate,
    run_atlms_batch,
    run_convex_batch,
    run_lms_batch,
    run_svs_batch,
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
# method -> batch runner
_RUNNERS = {"lms": run_lms_batch, "svs": run_svs_batch, "atlms": run_atlms_batch,
            "convex": run_convex_batch}


def _keywords(method: str, params) -> dict:
    """A method's parameters as keywords of its law factory and its batch
    runner; convex takes them as one ConvexParams, built here from a dict."""
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
    """Per-run summary.  Step-response runs fill the time-domain fields;
    system-identification runs fill the MSE fields; unused fields are None."""

    reach_target_time_s: float | None = None
    mean_steady_nt: float | None = None
    rmse_steady_nt: float | None = None
    fluct_min_nt: float | None = None
    fluct_max_nt: float | None = None
    mse_curve: np.ndarray | None = None
    iters_to_converge: int | None = None
    final_mse: float | None = None


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


def _sysid_signals(scn: SysIdScenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial tap matrix X (trials, n_iters, order) and noisy targets D
    (trials, n_iters).  Trial t draws from seed XOR t.

    Both are transposed views of time-major arrays, (n_iters, order,
    trials) and (n_iters, trials), the layout the batch runners step
    through.  Trials are drawn TRIAL_BLOCK at a time and written with one
    slice per tap column; each trial's clean targets are one
    matrix-vector product over its own row-major tap block, to which its
    scaled and reinjected noise is added."""
    n_iters, order, trials = scn.n_iters, scn.order, scn.trials
    wo = np.asarray(scn.true_weights, dtype=float)
    sigma = snr_to_sigma(1.0, scn.snr_db)  # the inputs are unit-variance
    burst = slice(scn.noise_reinjection_at, scn.noise_reinjection_at + REINJECTION_LEN)
    x = np.empty((n_iters, order, trials))
    d = np.empty((n_iters, trials))
    for t0 in range(0, trials, TRIAL_BLOCK):
        t1 = min(t0 + TRIAL_BLOCK, trials)
        u = np.empty((t1 - t0, n_iters + order - 1))
        targets = np.empty((t1 - t0, n_iters))  # each trial's noise, then its noisy targets
        for i in range(t1 - t0):
            rng = np.random.default_rng(scn.seed ^ (t0 + i))
            rng.standard_normal(out=u[i])
            rng.standard_normal(out=targets[i])
        targets *= sigma
        targets[:, burst] *= REINJECTION_SCALE
        for i in range(t1 - t0):
            # tap-delay rows, most recent sample first
            taps = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(u[i], order)[:, ::-1])
            targets[i] += taps @ wo
        d[:, t0:t1] = targets.T
        for j in range(order):
            x[:, j, t0:t1] = u[:, order - 1 - j : order - 1 - j + n_iters].T
    return x.transpose(2, 0, 1), d.T


def _smooth_causal(raw: np.ndarray, window: int) -> np.ndarray:
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
    weights.  The runners hand their errors over a block of steps at a
    time and each block is reduced to its part of the curve at once, so no
    (trials, n_iters) error array is held.
    """
    x, d = _sysid_signals(scn)
    reports = {}
    for m, p in methods.items():
        raw = np.empty(scn.n_iters)
        _RUNNERS[m]((0.0,) * scn.order, x=x, d=d, sink=_mean_square_into(raw), **_keywords(m, p))
        reports[m] = _mse_report(raw)
    return reports


def _mean_square_into(raw: np.ndarray):
    """A batch-runner error sink that writes each block's trial mean of e^2
    into raw.  The squares are laid out trial-major, so that the mean adds
    the trials one after another in index order, as np.mean(e**2, axis=0)
    does over a whole (trials, n_iters) array, and the bits are the same;
    over a trial-contiguous axis numpy would add them pairwise."""
    def sink(start: int, block: np.ndarray) -> None:
        raw[start : start + block.shape[1]] = np.mean(np.square(block[0].T, order="C"), axis=0)
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
        if self.duration_s <= self.settle_time_s:
            raise ValueError("duration_s must exceed settle_time_s")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.ctrl_unit_nt <= 0.0 or self.x_scale_nt <= 0.0:
            raise ValueError("scales must be > 0")

    def resolved_plant(self) -> PlantModel:
        """The voltage fit of the step's direction: descending for a
        step_down, ascending otherwise."""
        cls = PlantModel.descending if self.profile.kind == "step_down" else PlantModel.ascending
        return cls(v_min=self.v_min_v, v_max=self.v_max_v)


def run_step_response(
    scn: StepScenario,
    trace: list | None = None,
    sensor_log: list | None = None,
    diagnostics: DiagnosticsRecorder | None = None,
) -> MetricsReport:
    """Run the closed loop at the sensor sample rate and compute step
    metrics on the post-switch measured field.

    The targets, the disturbance and the sensor noise are computed for the
    whole run before the loop starts, the last two from the seed's two
    independent streams (see coilsim.plant).  A loop step builds only its
    tap tuple and the rows of the sinks it feeds: the controller step
    returns y and leaves its diagnostics on its state.

    Optional sinks collect (t, target, measured, volts) trace rows,
    (t, true, disturbance, measured) sensor-log rows, and convex per-step
    diagnostics.  Warns ActuatorSaturationWarning when inverse_drive
    returns v_min or v_max for more than half of the steps.
    """
    plant = scn.resolved_plant()
    fs = scn.sensor.sample_rate_hz
    dt = 1.0 / fs
    switch = scn.profile.switch_time_s
    n_total = int(round((switch + scn.duration_s) * fs))
    kw = _keywords(scn.method, scn.params)
    convex = scn.method == "convex"
    if convex:
        state, params = ConvexState.initial(scn.init_weights), kw["params"]
    else:
        state = FilterState.initial(scn.init_weights, _RATES[scn.method](**kw))
    times = [n * dt for n in range(n_total)]
    targets = scn.profile.target_at(np.array(times)).tolist()
    disturbance = disturbance_series(scn.disturbance, times).tolist()
    noise = sensor_noise(scn.sensor, np.random.default_rng((scn.seed, 1)), n_total).tolist()

    unit = scn.ctrl_unit_nt
    ambient_est_nt = 0.0
    saturated = 0
    measured: list[float] = []

    for n, t in enumerate(times):
        target_nt = targets[n]
        x = (1.0, ambient_est_nt / scn.x_scale_nt)
        d_ctrl = (target_nt - ambient_est_nt) / unit
        y = convex_step(state, params, x, d_ctrl) if convex else filter_step(state, x, d_ctrl)
        if diagnostics is not None:
            diagnostics.record(n, y, state)

        v = inverse_drive(plant, y * unit)
        if v == plant.v_min or v == plant.v_max:
            saturated += 1
        coil_nt = drive(plant, v)
        dist_nt = disturbance[n]
        true_nt = coil_nt + dist_nt
        meas_nt = sense(scn.sensor, true_nt, noise[n])
        ambient_est_nt = meas_nt - coil_nt

        measured.append(meas_nt)
        if trace is not None:
            trace.append((t, target_nt, meas_nt, v))
        if sensor_log is not None:
            sensor_log.append((t, true_nt, dist_nt, meas_nt))

    if saturated > 0.5 * n_total:
        warnings.warn(
            f"{saturated}/{n_total} drive samples hit the actuation clamp",
            ActuatorSaturationWarning,
        )

    post = [i for i, t in enumerate(times) if t >= switch]
    t_post = [times[i] for i in post]
    v_post = [measured[i] for i in post]
    return compute_metrics(
        t_post,
        v_post,
        targets[-1],
        scn.settle_time_s,
        scn.band_fraction,
        step_magnitude=scn.profile.step_magnitude(),
    )


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

TRACE_HEADER = ("t_s", "target_nT", "measured_nT", "control_V")


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


def write_trace_csv(path, rows: Sequence[tuple[float, float, float, float]]) -> None:
    write_repr_csv(path, TRACE_HEADER, [zip(*rows)])
