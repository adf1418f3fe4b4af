import csv
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import oracles
from coilsim import experiments
from coilsim._table import write_repr_csv
from coilsim.config import load_preset
from coilsim.plant import TargetProfile, drive, sense, sensor_noise, snr_to_sigma
from coilsim.control import run_lms_batch
from coilsim.experiments import (
    ActuatorSaturationWarning,
    SysIdScenario,
    compute_metrics,
    run_step_response,
    run_sysid,
    write_mse_curves_csv,
)


def small_scenario(**kw) -> SysIdScenario:
    return SysIdScenario(**{"snr_db": 30.0, "n_iters": 600, "noise_reinjection_at": 300,
                            "trials": 20, "seed": 3, **kw})


@pytest.fixture(scope="module")
def table4():
    cfg = load_preset("table4-30db")
    return {m: cfg.method_params(m) for m in experiments.METHODS}


def test_converged_lms_weight_error_uncorrelated_with_noise():
    # At a converged step n, w_n depends on the noise up to step n - 1 only,
    # so E[eps_n * x_n^T (w_o - w_n)] = 0: the mean over trials lies within
    # 3 standard errors of 0.  w_{n+1} has taken in mu * e_n * x_n, which
    # biases the same statistic by about -mu * sigma^2 * E[x^T x]; the trials
    # are enough for that bias to fail the test.
    scn = small_scenario(n_iters=400, noise_reinjection_at=399, trials=2000, seed=0)
    mu, n = 0.05, 300  # LMS settles within ~1 / mu steps
    x, d, eps = oracles.sysid_signals_ref(scn, snr_to_sigma(1.0, scn.snr_db), reinject=False)
    wo = np.asarray(scn.true_weights)

    def stat(steps):
        w = run_lms_batch(np.zeros(scn.order), mu, x[:steps], d[:steps], sink=lambda *_: None)["w"]
        s = eps[n] * np.sum(x[n] * (wo[:, None] - w.T), axis=0)
        return float(np.mean(s)), float(np.std(s, ddof=1) / np.sqrt(scn.trials))

    mean, se = stat(n)  # w_n: the weights step n uses
    assert abs(mean) <= 3.0 * se
    mean, se = stat(n + 1)
    assert abs(mean) > 3.0 * se


class TestStepResponse:
    @pytest.fixture(scope="class")
    def table7_up(self):
        return load_preset("table7-up").step_scenario("lms")

    def test_drive_pinned_at_v_max_warns(self, table7_up):
        # 10 mT is far beyond the 141 uT the coil reaches at v_max
        scn = replace(table7_up, profile=TargetProfile.step_up(1e7, switch_time_s=0.5))
        with pytest.warns(ActuatorSaturationWarning, match="hit the actuation clamp"):
            run_step_response(scn)

    def test_table7_up_does_not_warn(self, table7_up):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ActuatorSaturationWarning)
            run_step_response(table7_up)

    def test_targets_evaluated_once_per_run(self, table7_up, monkeypatch):
        calls = []
        target_at = TargetProfile.target_at

        def counting(self, t):
            calls.append(np.shape(t))
            return target_at(self, t)

        monkeypatch.setattr(TargetProfile, "target_at", counting)
        report = run_step_response(table7_up)
        assert calls == [(len(report.columns["t_s"]),)]


class TestStepRecord:
    """The per-step record a run returns agrees with the scalar plant and,
    for convex, with the controller's combination rule, step for step."""

    @pytest.mark.parametrize("method", experiments.METHODS)
    @pytest.mark.parametrize("preset", ["table7-up", "location-field"])
    def test_record_matches_the_plant(self, preset, method):
        scn = load_preset(preset).step_scenario(method)
        cols = run_step_response(scn).columns
        steps = int(round((scn.profile.switch_time_s + scn.duration_s) * scn.sensor.sample_rate_hz))
        names = {"t_s", "target_nT", "measured_nT", "control_V", "true_nT", "disturbance_nT"}
        if method == "convex":
            names |= set(experiments.DIAGNOSTICS_COLUMNS)
        assert set(cols) == names
        assert {len(c) for c in cols.values()} == {steps}

        plant = scn.resolved_plant()
        volts, dist, true = (cols[k].tolist() for k in ("control_V", "disturbance_nT", "true_nT"))
        want = [drive(plant, v) + d for v, d in zip(volts, dist)]
        np.testing.assert_array_equal(bits(cols["true_nT"]), bits(want))
        noise = sensor_noise(scn.sensor, np.random.default_rng((scn.seed, 1)), steps).tolist()
        want = [sense(scn.sensor, t, z) for t, z in zip(true, noise)]
        np.testing.assert_array_equal(bits(cols["measured_nT"]), bits(want))

        if method == "convex":
            np.testing.assert_array_equal(cols["n"], np.arange(steps))
            # each step combines its errors with the gamma the step before left
            gamma = np.concatenate(([0.5], cols["gamma"][:-1]))
            e, e1, e2 = cols["e"], cols["e1"], cols["e2"]
            scale = np.abs(cols["y1"]) + np.abs(cols["y2"]) + np.abs(e)
            assert np.max(np.abs(e - (gamma * e1 + (1.0 - gamma) * e2)) / scale) <= 1e-15


class TestRunSysid:
    def test_draws_signals_once_for_all_methods(self, monkeypatch, table4):
        calls = []
        draw = experiments._sysid_signals

        def counting(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(experiments, "_sysid_signals", counting)
        reports = run_sysid(small_scenario(), table4)
        assert len(calls) == 1
        assert list(reports) == list(experiments.METHODS)

    def test_each_method_as_if_run_alone(self, table4):
        scn = small_scenario()
        together = run_sysid(scn, table4)
        for m, params in table4.items():
            alone = run_sysid(scn, {m: params})[m]
            assert alone.iters_to_converge == together[m].iters_to_converge
            assert alone.final_mse == together[m].final_mse
            np.testing.assert_array_equal(alone.mse_curve, together[m].mse_curve)

    def test_convex_params_may_be_a_dict(self, table4):
        scn = small_scenario()
        as_dict = run_sysid(scn, {"convex": asdict(table4["convex"])})["convex"]
        as_params = run_sysid(scn, {"convex": table4["convex"]})["convex"]
        np.testing.assert_array_equal(as_dict.mse_curve, as_params.mse_curve)

    @staticmethod
    def _assert_burst_only_at(scn):
        # outside the burst, the targets have the bits of the per-trial draw
        # without reinjection; inside it, those of the reinjected draw
        d = experiments._sysid_signals(scn)[1]
        sigma = snr_to_sigma(1.0, scn.snr_db)
        d_off = oracles.sysid_signals_ref(scn, sigma, reinject=False)[1]
        want = oracles.sysid_signals_ref(scn, sigma, True, experiments.REINJECTION_SCALE,
                                         experiments.REINJECTION_LEN)[1]
        burst = np.zeros(scn.n_iters, bool)
        burst[scn.noise_reinjection_at : scn.noise_reinjection_at + experiments.REINJECTION_LEN] = True
        np.testing.assert_array_equal(bits(d[~burst]), bits(d_off[~burst]))
        np.testing.assert_array_equal(bits(d[burst]), bits(want[burst]))
        assert not np.any(d[burst] == d_off[burst])

    def test_noise_burst_only_when_reinjecting(self):
        self._assert_burst_only_at(small_scenario())

    @pytest.mark.parametrize("at", [-1, -20])
    def test_negative_reinjection_index_rejected(self, at):
        # a negative index would slice the burst from the end of the run
        with pytest.raises(ValueError, match="noise_reinjection_at must be >= 0"):
            small_scenario(noise_reinjection_at=at)

    def test_reinjection_at_zero_bursts_the_first_samples(self):
        self._assert_burst_only_at(small_scenario(noise_reinjection_at=0))

    def test_signal_views_are_time_major(self):
        scn = small_scenario(order=3, true_weights=(0.8, 0.5, -0.3))
        x, d = experiments._sysid_signals(scn)
        assert x.shape == (scn.n_iters, scn.order, scn.trials)
        assert d.shape == (scn.n_iters, scn.trials) and d.flags.c_contiguous
        # each step's taps are one block of a sample array that holds each
        # input sample once: step n's tap 1 is step n - 1's tap 0
        assert all(x[n].flags.c_contiguous for n in range(scn.n_iters))
        assert np.shares_memory(x[1, 1], x[0, 0])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestSysidStreaming:
    """run_sysid reduces each block of errors to its part of the MSE curve
    as the runners hand it over; the curve must be the bits of the mean over
    the runners' full error arrays, and no such array may be held."""

    @pytest.mark.parametrize("order", [1, 2, 3, 9])
    @pytest.mark.parametrize("n_iters", [100, 256, 257, 1000])
    def test_curve_matches_full_error_arrays(self, table4, n_iters, order):
        weights = tuple(np.linspace(0.8, -0.4, order))
        scn = small_scenario(n_iters=n_iters, noise_reinjection_at=n_iters // 2,
                             order=order, true_weights=weights)
        reports = run_sysid(scn, table4)
        x, d = experiments._sysid_signals(scn)
        for m, params in table4.items():
            e = oracles.run_keeping_errors(experiments._RUNNERS[m], (0.0,) * order, x=x, d=d,
                                           **experiments._keywords(m, params))["e"]
            # trial-major, so that the mean adds the trials in index order
            want = experiments._smooth_causal(np.mean(np.ascontiguousarray(e.T) ** 2, axis=0),
                                              experiments.SMOOTHING_WINDOW)
            np.testing.assert_array_equal(bits(reports[m].mse_curve), bits(want), err_msg=m)

    def test_peak_memory_is_the_signals(self, table4):
        scn = small_scenario(n_iters=3000, noise_reinjection_at=1500, trials=200)
        # the input samples, each held once, and the targets
        signals = scn.trials * (2 * scn.n_iters + scn.order - 1) * 8
        # an untraced first call, so the trace holds only what every call allocates
        run_sysid(scn, table4)
        tracemalloc.start()
        try:
            run_sysid(scn, table4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one more (n_iters, trials) array would add half of the signals
        assert signals <= peak <= 1.25 * signals


class TestSysidSignals:
    @pytest.mark.parametrize("trials", [1, experiments.TRIAL_BLOCK, 37])
    @pytest.mark.parametrize("order", [1, 3])
    def test_blocks_match_per_trial_draw(self, trials, order):
        scn = small_scenario(trials=trials, order=order, true_weights=(0.8, 0.5, -0.3)[:order])
        want = oracles.sysid_signals_ref(scn, snr_to_sigma(1.0, scn.snr_db), True,
                                         experiments.REINJECTION_SCALE, experiments.REINJECTION_LEN)
        got = experiments._sysid_signals(scn)
        assert len(got) == 2
        for g, w in zip(got, want):
            np.testing.assert_array_equal(bits(g), bits(w))

    def test_adjacent_seeds_share_no_trial(self):
        # under seed XOR t, seed 1's trial 0 was seed 0's trial 1
        def columns(seed):
            x, d = experiments._sysid_signals(small_scenario(seed=seed, trials=8))
            return [{a[:, t].tobytes() for t in range(8)} for a in (x[:, 0], d)]

        for a, b in zip(columns(0), columns(1)):
            assert not a & b


class TestComputeMetrics:
    @pytest.mark.parametrize("level", [1.0, 0.5], ids=["reached", "never"])
    def test_fields_are_plain_floats(self, level):
        t = np.arange(400) * 0.01
        v = np.where(t < 1.0, 0.0, level)
        rep = compute_metrics(t, v, 1.0, settle_time_s=2.0, band_fraction=0.02)
        fields = (rep.reach_target_time_s, rep.mean_steady_nt, rep.rmse_steady_nt,
                  rep.fluct_min_nt, rep.fluct_max_nt)
        assert [type(f) for f in fields] == [float] * 5
        assert (rep.reach_target_time_s == 1.0) if level == 1.0 else np.isnan(rep.reach_target_time_s)


class TestCsvWriters:
    def test_rows_match_csv_writer(self, tmp_path):
        header = ("n", "a", "b", "c")
        rows = [(0, 1.5, -0.0, 1e-300), (12, float("inf"), float("nan"), -2.5e17)]
        write_repr_csv(tmp_path / "rows.csv", header, [zip(*rows)])
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([v if isinstance(v, int) else repr(v) for v in r] for r in rows)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("curves", [{}, {"lms": np.ones(3), "svs": np.ones(2)}], ids=["none", "ragged"])
    def test_mse_curves_need_one_length(self, tmp_path, curves):
        with pytest.raises(ValueError):
            write_mse_curves_csv(tmp_path / "mse.csv", curves)
