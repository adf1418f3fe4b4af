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
from coilsim.plant import SensorSpec, TargetProfile, drive, sense, sensor_noise, snr_to_sigma
from coilsim.control import run_laws_batch
from coilsim.experiments import (
    ActuatorSaturationWarning,
    StepScenario,
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
        w = run_laws_batch(np.zeros(scn.order), {"lms": {"mu": mu}}, x[:steps], d[:steps],
                           sinks={"lms": lambda *_: None})["lms"]["w"]
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

    def test_blocks_of_steps_give_the_same_record(self, monkeypatch):
        scn = load_preset("table7-up").step_scenario("convex")
        want = run_step_response(scn).columns
        monkeypatch.setattr(experiments, "STEP_BLOCK", 100)  # 18 blocks, the last of 25 steps
        got = run_step_response(scn).columns
        assert got.keys() == want.keys()
        for name, column in want.items():
            np.testing.assert_array_equal(bits(got[name]), bits(column), err_msg=name)

    def test_peak_memory_is_the_record(self, monkeypatch):
        # 22,725 steps of a convex run in 23 blocks: the loop's inputs are
        # Python floats one block at a time, so the peak stays near what
        # the report's columns hold when the run is over (1.11 times it),
        # where three lists of floats over the whole run put it 1.66 times
        monkeypatch.setattr(experiments, "STEP_BLOCK", 1024)
        scn = replace(load_preset("table7-up").step_scenario("convex"), duration_s=300.0)
        run_step_response(replace(scn, duration_s=5.0))  # untraced: what only a first call allocates
        tracemalloc.start()
        try:
            report = run_step_response(scn)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held >= sum(c.nbytes for c in report.columns.values())
        assert peak <= 1.15 * held


class TestStepRecord:
    """The per-step record a run returns agrees with the scalar plant and,
    for convex, with the controller's combination rule, step for step."""

    @pytest.mark.parametrize("method", experiments.METHODS)
    @pytest.mark.parametrize("preset", ["table7-up", "location-field"])
    def test_record_matches_the_plant(self, preset, method):
        scn = load_preset(preset).step_scenario(method)
        cols = run_step_response(scn).columns
        steps = scn.n_steps()
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


class TestStepScenarioChecks:
    @staticmethod
    def _scenario(rate, switch, duration):
        return StepScenario(profile=TargetProfile.step_up(10000.0, switch), method="lms", params={"mu": 0.05},
                            sensor=SensorSpec(sample_rate_hz=rate), duration_s=duration, settle_time_s=1.5,
                            v_min_v=-3.0)

    # at 2 Hz from 0.25 s, a 2.25 s run ends exactly settle_time_s after its
    # first post-switch sample, which is not a steady sample
    @pytest.mark.parametrize("rate, switch", [(1.0, 0.1), (1.0, 0.5), (2.0, 0.25), (3.3, 0.7), (75.0, 3.0),
                                              (75.0, 0.01)])
    def test_steady_window_check_is_the_runs(self, rate, switch):
        # a scenario is rejected exactly when its run would find no steady
        # sample: each rejected length is run with the checks bypassed
        accepted = rejected = 0
        for duration in 1.5 + np.arange(1, 40) * (0.1 / rate):
            try:
                scn = self._scenario(rate, switch, duration)
            except ValueError as err:
                assert str(err) == "no sample falls after switch_time_s + settle_time_s"
                rejected += 1
                scn = self._scenario(rate, switch, 10.0)
                object.__setattr__(scn, "duration_s", duration)
                with pytest.raises(ValueError, match="times and values|no samples after the settling time"):
                    run_step_response(scn)
            else:
                run_step_response(scn)
                accepted += 1
        assert accepted and rejected


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
    as the loop hands it over; the curve must be the bits of the mean over
    each law's full error arrays, and no such array may be held."""

    @pytest.mark.parametrize("order", [1, 2, 3, 9])
    @pytest.mark.parametrize("n_iters", [100, 256, 257, 1000])
    def test_curve_matches_full_error_arrays(self, table4, n_iters, order):
        weights = tuple(np.linspace(0.8, -0.4, order))
        scn = small_scenario(n_iters=n_iters, noise_reinjection_at=n_iters // 2,
                             order=order, true_weights=weights)
        reports = run_sysid(scn, table4)
        x, d = experiments._sysid_signals(scn)
        for m, params in table4.items():
            e = oracles.run_keeping_errors((0.0,) * order, {m: experiments._keywords(m, params)}, x, d)["e"]
            # trial-major, so that the mean adds the trials in index order
            want = experiments._smooth_causal(np.mean(np.ascontiguousarray(e.T) ** 2, axis=0),
                                              experiments.SMOOTHING_WINDOW)
            np.testing.assert_array_equal(bits(reports[m].mse_curve), bits(want), err_msg=m)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_one_step_block_adds_the_trials_in_order(self, seed):
        # over a single column numpy would add the 200 trials pairwise
        e = np.random.default_rng(seed).standard_normal((1, 1, 200))
        total = np.zeros(1)
        experiments._mean_square_into(total, np.zeros((201, experiments.ERROR_BLOCK)))(0, e)
        want = np.zeros(1)
        for t in range(200):
            want = want + e[0, 0, t] ** 2
        np.testing.assert_array_equal(bits(total), bits(want))

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


class TestSysidChunks:
    """run_sysid draws and runs TRIAL_CHUNK trials at a time: the curves
    keep their bits, and the memory a run needs does not grow with its
    trial count."""

    def test_chunks_keep_the_bits(self, table4, monkeypatch):
        scn = small_scenario(trials=37, n_iters=2 * experiments.ERROR_BLOCK + 1,
                             noise_reinjection_at=100)
        whole = run_sysid(scn, table4)
        monkeypatch.setattr(experiments, "TRIAL_CHUNK", 8)  # five chunks, the last of 5 trials
        for m, report in run_sysid(scn, table4).items():
            np.testing.assert_array_equal(bits(report.mse_curve), bits(whole[m].mse_curve), err_msg=m)
            assert (report.iters_to_converge, report.final_mse) == (whole[m].iters_to_converge,
                                                                   whole[m].final_mse)

    def test_peak_memory_does_not_grow_with_trials(self, table4, monkeypatch):
        monkeypatch.setattr(experiments, "TRIAL_CHUNK", 8)
        scenarios = {chunks: small_scenario(trials=8 * chunks, n_iters=300, noise_reinjection_at=150)
                     for chunks in (2, 4)}
        run_sysid(scenarios[2], table4)  # untraced, so the trace holds only what every call allocates
        peaks = {}
        for chunks, scn in scenarios.items():
            tracemalloc.start()
            try:
                run_sysid(scn, table4)
                peaks[chunks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # one chunk's signals are 38 kB; all the trials held at once would add 77 kB
        assert peaks[4] <= 1.05 * peaks[2]

    def test_a_trial_range_draws_those_trials(self):
        scn = small_scenario(trials=37)
        whole = experiments._sysid_signals(scn)
        for got, want in zip(experiments._sysid_signals(scn, 5, 30), whole):
            np.testing.assert_array_equal(bits(got), bits(want[..., 5:30]))


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
