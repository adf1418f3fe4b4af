"""Experiment harness: the system-identification convergence study, the
closed-loop step-response study, the divergence probe, and stability
statistics, plus the metric computations they share.

Every run is reproducible: scenarios carry a seed, trial t derives its
stream from seed XOR t, and aggregation is order-independent.
"""

from __future__ import annotations

import math
import csv
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
    StepInput,
    atlms_step,
    convex_step,
    lms_step,
    run_atlms_batch,
    run_convex_batch,
    run_lms_batch,
    run_svs_batch,
    svs_step,
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


class ActuatorSaturationWarning(UserWarning):
    """More than half of the drive samples hit the actuation clamp."""


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
    dwell_s: float = 0.2,
) -> MetricsReport:
    """Step-response metrics over a (time, value) series.

    Reach time is the first instant (relative to times[0]) at which the
    series enters the +/- band_fraction * step_magnitude band around the
    target and stays inside for dwell_s; NaN if that never happens.  Steady
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
        t_end = t[i] + dwell_s
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
            reach = t[i] - t0
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
    init_weights: tuple[float, ...] | None = None  # None -> zeros
    reinjection_scale: float = 50.0
    reinjection_len: int = 10
    smoothing_window: int = 20
    tail_fraction: float = 0.1
    threshold_factor: float = 1.05
    signal_power: float = 1.0

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not self.n_iters > self.noise_reinjection_at:
            raise ValueError("n_iters must exceed noise_reinjection_at")
        if len(self.true_weights) != self.order:
            raise ValueError("true_weights length must equal order")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _sysid_signals(scn: SysIdScenario, reinject: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial tap matrix X (trials, n_iters, order), targets D, and the
    noise eps actually applied.  Trial t draws from seed XOR t.

    All three are transposed views of time-major arrays, (n_iters, order,
    trials) and (n_iters, trials), the layout the batch runners step
    through.  Each trial's clean targets are one matrix-vector product over
    its own row-major tap block."""
    wo = np.asarray(scn.true_weights, dtype=float)
    x = np.empty((scn.n_iters, scn.order, scn.trials))
    d = np.empty((scn.n_iters, scn.trials))
    eps = np.empty((scn.n_iters, scn.trials))
    for t in range(scn.trials):
        rng = np.random.default_rng(scn.seed ^ t)
        u = rng.standard_normal(scn.n_iters + scn.order - 1)
        # tap-delay rows, most recent sample first
        taps = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(u, scn.order)[:, ::-1])
        x[:, :, t] = taps
        d[:, t] = taps @ wo
        eps[:, t] = rng.standard_normal(scn.n_iters)
    eps *= snr_to_sigma(scn.signal_power, scn.snr_db)
    if reinject and scn.reinjection_scale != 1.0 and scn.reinjection_len > 0:
        lo = scn.noise_reinjection_at
        eps[lo : lo + scn.reinjection_len] *= scn.reinjection_scale
    d += eps
    return x.transpose(2, 0, 1), d.T, eps.T


def _smooth_causal(raw: np.ndarray, window: int) -> np.ndarray:
    c = np.cumsum(raw)
    out = np.empty_like(raw)
    out[:window] = c[:window] / np.arange(1, window + 1)
    out[window:] = (c[window:] - c[:-window]) / window
    return out


def _run_batch(method: str, params, w0: Sequence[float], x: np.ndarray, d: np.ndarray) -> dict:
    if method == "lms":
        return run_lms_batch(w0, params["mu"], x, d)
    if method == "svs":
        return run_svs_batch(w0, params["alpha"], params["beta"], x, d)
    if method == "atlms":
        return run_atlms_batch(
            w0, params["alpha"], params["beta"], params["m"], params["n_scale"], x, d
        )
    if method == "convex":
        if not isinstance(params, ConvexParams):
            params = ConvexParams(**params)
        return run_convex_batch(w0, params, x, d)
    raise ValueError(f"unknown method {method!r}")


def run_sysid(scn: SysIdScenario, methods: Mapping[str, object]) -> dict[str, MetricsReport]:
    """Trial-averaged identification runs, one report per method of
    `methods` (method name -> its parameters), all on one draw of the trial
    signals.

    Each MSE curve is the trial average of e^2 smoothed over a causal
    20-sample window; iters_to_converge is the first iteration at which the
    smoothed curve falls to within threshold_factor of its tail mean, and
    final_mse is that tail mean.
    """
    x, d = _sysid_signals(scn)[:2]
    w0 = scn.init_weights if scn.init_weights is not None else (0.0,) * scn.order
    return {m: _mse_report(scn, _run_batch(m, p, w0, x, d)["e"]) for m, p in methods.items()}


def _mse_report(scn: SysIdScenario, e: np.ndarray) -> MetricsReport:
    curve = _smooth_causal(np.mean(e**2, axis=0), scn.smoothing_window)
    tail = float(np.mean(curve[-max(1, int(len(curve) * scn.tail_fraction)):]))
    below = np.nonzero(curve <= scn.threshold_factor * tail)[0]
    iters = int(below[0]) if below.size else len(curve)
    return MetricsReport(mse_curve=curve, iters_to_converge=iters, final_mse=tail)


# ---------------------------------------------------------------------------
# divergence probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceReport:
    diverged: bool
    mse_early: float
    mse_late: float
    growth_ratio: float
    early_iter: int
    late_iter: int


def run_divergence_probe(
    scn: SysIdScenario,
    params: ConvexParams,
    early_iter: int = 50,
    late_iter: int = 500,
    growth_threshold: float = 1e3,
) -> DivergenceReport:
    """Empirical contrapositive of the step-size bound: run the convex
    controller and flag unbounded mean-square error growth.

    Any branch (combined, slow, or fast) growing by more than
    growth_threshold between the two probe iterations, or going non-finite,
    counts as divergence.
    """
    if scn.n_iters <= late_iter:
        raise ValueError("scenario too short for the probe iterations")
    x, d = _sysid_signals(scn, reinject=False)[:2]
    w0 = scn.init_weights if scn.init_weights is not None else (0.0,) * scn.order
    res = run_convex_batch(w0, params, x, d)
    worst_ratio = 0.0
    diverged = False
    mse_early_combined = mse_late_combined = math.nan
    for key in ("e", "e1", "e2"):
        err = res[key]
        with np.errstate(over="ignore"):  # a diverged branch may square to inf
            early = float(np.mean(err[:, early_iter] ** 2))
            late = float(np.mean(err[:, late_iter] ** 2))
        if key == "e":
            mse_early_combined, mse_late_combined = early, late
        if not math.isfinite(late):
            diverged = True
            worst_ratio = math.inf
            continue
        ratio = late / early if early > 0.0 else math.inf if late > 0.0 else 0.0
        worst_ratio = max(worst_ratio, ratio)
        if ratio > growth_threshold:
            diverged = True
    return DivergenceReport(
        diverged=diverged,
        mse_early=mse_early_combined,
        mse_late=mse_late_combined,
        growth_ratio=worst_ratio,
        early_iter=early_iter,
        late_iter=late_iter,
    )


# ---------------------------------------------------------------------------
# stability statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Converged-regime error decomposition, estimated across trials at one
    fixed iteration: E[e^2] = E[eps^2] + mismatch, and the lag-1 error
    product equals the mismatch-only term."""

    n_trials: int
    at_iteration: int
    mean_e2: float
    mean_eps2: float
    mismatch_term: float
    e2_identity_dev: float
    e2_identity_se: float
    e2_identity_ok: bool
    e2_floor_ok: bool
    lag_identity_dev: float
    lag_identity_se: float
    lag_identity_ok: bool
    passed: bool


def run_stability_stat(
    scn: SysIdScenario, mu: float = 0.01, at_iteration: int | None = None
) -> StabilityReport:
    """Monte-Carlo check of the converged-error decomposition for an LMS run.

    Records weights at the probe iteration and the one before it, forms the
    weight mismatch against the true taps, and checks both identities to
    within 3 standard errors across trials.
    """
    n_star = scn.n_iters - 1 if at_iteration is None else at_iteration
    if not 1 <= n_star < scn.n_iters:
        raise ValueError("probe iteration out of range")
    x, d, eps = _sysid_signals(scn, reinject=False)
    w0 = scn.init_weights if scn.init_weights is not None else (0.0,) * scn.order
    res = run_lms_batch(w0, mu, x, d, record_w_at=(n_star - 1, n_star))
    wo = np.asarray(scn.true_weights, dtype=float)

    dw_now = res["w_snapshots"][n_star] - wo
    dw_prev = res["w_snapshots"][n_star - 1] - wo
    x_now = np.ascontiguousarray(x[:, n_star, :])  # einsum's sum order depends on layout
    x_prev = np.ascontiguousarray(x[:, n_star - 1, :])
    e_now = res["e"][:, n_star]
    e_prev = res["e"][:, n_star - 1]
    eps_now = eps[:, n_star]

    t = scn.trials
    mismatch_now = np.einsum("ij,ij->i", x_now, dw_now)
    mismatch_prev = np.einsum("ij,ij->i", x_prev, dw_prev)

    delta_e2 = e_now**2 - eps_now**2 - mismatch_now**2
    se_e2 = float(np.std(delta_e2, ddof=1) / math.sqrt(t))
    dev_e2 = float(np.mean(delta_e2))
    e2_ok = abs(dev_e2) <= 3.0 * se_e2

    floor = e_now**2 - eps_now**2
    floor_ok = float(np.mean(floor)) >= -3.0 * float(np.std(floor, ddof=1) / math.sqrt(t))

    delta_lag = e_now * e_prev - mismatch_now * mismatch_prev
    se_lag = float(np.std(delta_lag, ddof=1) / math.sqrt(t))
    dev_lag = float(np.mean(delta_lag))
    lag_ok = abs(dev_lag) <= 3.0 * se_lag

    return StabilityReport(
        n_trials=t,
        at_iteration=n_star,
        mean_e2=float(np.mean(e_now**2)),
        mean_eps2=float(np.mean(eps_now**2)),
        mismatch_term=float(np.mean(mismatch_now**2)),
        e2_identity_dev=dev_e2,
        e2_identity_se=se_e2,
        e2_identity_ok=e2_ok,
        e2_floor_ok=floor_ok,
        lag_identity_dev=dev_lag,
        lag_identity_se=se_lag,
        lag_identity_ok=lag_ok,
        passed=e2_ok and floor_ok and lag_ok,
    )


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
    plant: PlantModel | None = None  # None -> fit chosen by step direction
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
        if self.plant is not None:
            return self.plant
        descending = self.profile.kind == "step_down" or (
            self.profile.kind == "from_file"
            and self.profile.samples[-1][1] < self.profile.samples[0][1]
        )
        cls = PlantModel.descending if descending else PlantModel.ascending
        return cls(v_min=self.v_min_v, v_max=self.v_max_v, sample_rate_hz=self.sensor.sample_rate_hz)


def _make_stepper(method: str, params, init_w: Sequence[float]):
    if method == "convex":
        cp = params if isinstance(params, ConvexParams) else ConvexParams(**params)
        state = ConvexState.initial(init_w)

        def step(inp: StepInput):
            return convex_step(state, cp, inp)

        return step, state
    state = FilterState.initial(init_w)
    if method == "lms":
        mu = params["mu"]
        return (lambda inp: lms_step(state, mu, inp)), state
    if method == "svs":
        a, b = params["alpha"], params["beta"]
        return (lambda inp: svs_step(state, a, b, inp)), state
    if method == "atlms":
        a, b, m, ns = params["alpha"], params["beta"], params["m"], params["n_scale"]
        return (lambda inp: atlms_step(state, a, b, m, ns, inp)), state
    raise ValueError(f"unknown method {method!r}")


def run_step_response(
    scn: StepScenario,
    trace: list | None = None,
    sensor_log: list | None = None,
    diagnostics: DiagnosticsRecorder | None = None,
) -> MetricsReport:
    """Run the closed loop at the sensor sample rate and compute step
    metrics on the post-switch measured field.

    The disturbance series and the sensor noise are drawn for the whole run
    before the loop starts, from the seed's two independent streams (see
    coilsim.plant); the loop itself draws nothing.

    Optional sinks collect (t, target, measured, volts) trace rows,
    (t, true, disturbance, measured) sensor-log rows, and convex
    per-step diagnostics.  Warns ActuatorSaturationWarning when more than
    half of the drive samples clamp.
    """
    plant = scn.resolved_plant()
    fs = scn.sensor.sample_rate_hz
    dt = 1.0 / fs
    switch = scn.profile.switch_time_s
    n_total = int(round((switch + scn.duration_s) * fs))
    step, state = _make_stepper(scn.method, scn.params, scn.init_weights)
    times = [n * dt for n in range(n_total)]
    disturbance = disturbance_series(scn.disturbance, times).tolist()
    noise = sensor_noise(scn.sensor, np.random.default_rng((scn.seed, 1)), n_total).tolist()

    unit = scn.ctrl_unit_nt
    ambient_est_nt = 0.0
    saturated = 0
    measured: list[float] = []

    for n, t in enumerate(times):
        target_nt = scn.profile.target_at(t)
        x = (1.0, ambient_est_nt / scn.x_scale_nt)
        d_ctrl = (target_nt - ambient_est_nt) / unit
        out, state = step(StepInput(x, d_ctrl))
        if diagnostics is not None:
            diagnostics.record(n, out, state)

        y_cmd_nt = out.y * unit
        raw_v = (y_cmd_nt / 1000.0 - plant.fit_b) / plant.fit_k
        if raw_v < plant.v_min or raw_v > plant.v_max:
            saturated += 1
        v = inverse_drive(plant, y_cmd_nt)
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
    target_final = scn.profile.target_at(times[-1])
    return compute_metrics(
        t_post,
        v_post,
        target_final,
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
    cols = [np.asarray(c, dtype=float).tolist() for c in curves.values()]
    if len(set(map(len, cols))) != 1:
        raise ValueError("need at least one MSE curve, all of one length")
    write_repr_csv(path, ["iter"] + [f"mse_{n}" for n in curves], zip(range(len(cols[0])), *cols))


def write_trace_csv(path, rows: Sequence[tuple[float, float, float, float]]) -> None:
    write_repr_csv(path, TRACE_HEADER, rows)
