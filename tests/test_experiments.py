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
from coilsim.plant import TargetProfile, snr_to_sigma
from coilsim.control import check_convergence_condition, run_convex_batch, run_lms_batch
from coilsim.experiments import (
    ActuatorSaturationWarning,
    SysIdScenario,
    compute_metrics,
    run_divergence_probe,
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
        w = run_lms_batch(np.zeros(scn.order), mu, x[:, :steps], d[:, :steps], sink=lambda *_: None)["w"]
        s = eps[:, n] * np.sum(x[:, n] * (wo - w), axis=1)
        return float(np.mean(s)), float(np.std(s, ddof=1) / np.sqrt(scn.trials))

    mean, se = stat(n)  # w_n: the weights step n uses
    assert abs(mean) <= 3.0 * se
    mean, se = stat(n + 1)
    assert abs(mean) > 3.0 * se


class TestDivergenceProbe:
    def test_flags_fast_rate_past_bound(self, table4):
        # with the weight transfer off, so that the slow branch does not
        # keep resetting the fast one
        scn = small_scenario()
        taps = experiments._sysid_signals(scn)[0].reshape(-1, scn.order)
        lam = check_convergence_condition(table4["convex"], taps).lambda_max
        params = replace(table4["convex"], c=1.5 * 2.0 / lam, t_o=10**6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_divergence_probe(scn, params)
        assert rep.diverged
        assert rep.growth_ratio == float("inf")

    def test_table4_rates_do_not_diverge(self, table4):
        rep = run_divergence_probe(small_scenario(), table4["convex"])
        assert not rep.diverged
        assert rep.growth_ratio < 10.0

    @staticmethod
    def _report_from_full_arrays(scn, params, early_iter=50, late_iter=500, growth_threshold=1e3):
        """The probe's report computed from the runner's full error arrays."""
        x, d = experiments._sysid_signals(scn, reinject=False)
        res = oracles.run_keeping_errors(run_convex_batch, (0.0,) * scn.order, params, x, d)
        worst, diverged, combined = 0.0, False, None
        for key in ("e", "e1", "e2"):
            with np.errstate(over="ignore"):
                early = float(np.mean(res[key][:, early_iter] ** 2))
                late = float(np.mean(res[key][:, late_iter] ** 2))
            if key == "e":
                combined = (early, late)
            if not np.isfinite(late):
                diverged, worst = True, float("inf")
                continue
            ratio = late / early if early > 0.0 else float("inf") if late > 0.0 else 0.0
            worst = max(worst, ratio)
            diverged = diverged or ratio > growth_threshold
        return experiments.DivergenceReport(diverged, *combined, worst, early_iter, late_iter)

    @pytest.mark.parametrize("case", ["diverging", "table4"])
    def test_report_matches_full_error_arrays(self, table4, case):
        scn = small_scenario()
        params = table4["convex"]
        if case == "diverging":
            taps = experiments._sysid_signals(scn)[0].reshape(-1, scn.order)
            lam = check_convergence_condition(params, taps).lambda_max
            params = replace(params, c=1.5 * 2.0 / lam, t_o=10**6)
        got = run_divergence_probe(scn, params)
        want = self._report_from_full_arrays(scn, params)
        assert [bits(v) for v in asdict(got).values()] == [bits(v) for v in asdict(want).values()]

    @pytest.mark.parametrize("iters", [(-1, 500), (50, 600)])
    def test_rejects_probe_iterations_outside_the_run(self, table4, iters):
        with pytest.raises(ValueError):
            run_divergence_probe(small_scenario(), table4["convex"], *iters)

    def test_peak_memory_is_the_signals(self, table4):
        # long enough that the runner's per-block buffers (~3 MB at 200
        # trials) stay a small share of the signals
        scn = small_scenario(n_iters=5000, noise_reinjection_at=2500, trials=200)
        signals = scn.trials * scn.n_iters * (scn.order + 1) * 8  # x.nbytes + d.nbytes
        tracemalloc.start()
        try:
            run_divergence_probe(scn, table4["convex"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the three full error arrays would add the signals' size again
        assert signals <= peak <= 1.25 * signals


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
        trace = []
        run_step_response(table7_up, trace=trace)
        assert calls == [(len(trace),)]
        assert {type(row[1]) for row in trace} == {float}


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
        # outside the burst, reinjection leaves the targets' bits alone;
        # inside it, the targets are the per-trial draw's
        d_on = experiments._sysid_signals(scn)[1]
        d_off = experiments._sysid_signals(scn, reinject=False)[1]
        burst = np.zeros(scn.n_iters, bool)
        burst[scn.noise_reinjection_at : scn.noise_reinjection_at + experiments.REINJECTION_LEN] = True
        np.testing.assert_array_equal(bits(d_on[:, ~burst]), bits(d_off[:, ~burst]))
        want = oracles.sysid_signals_ref(scn, snr_to_sigma(1.0, scn.snr_db), True,
                                         experiments.REINJECTION_SCALE, experiments.REINJECTION_LEN)[1]
        np.testing.assert_array_equal(bits(d_on[:, burst]), bits(want[:, burst]))
        assert not np.any(d_on[:, burst] == d_off[:, burst])

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
        assert x.shape == (scn.trials, scn.n_iters, scn.order)
        assert d.shape == (scn.trials, scn.n_iters)
        assert x.transpose(1, 2, 0).flags.c_contiguous
        assert d.T.flags.c_contiguous


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
            want = experiments._smooth_causal(np.mean(e**2, axis=0), experiments.SMOOTHING_WINDOW)
            np.testing.assert_array_equal(bits(reports[m].mse_curve), bits(want), err_msg=m)

    def test_peak_memory_is_the_signals(self, table4):
        scn = small_scenario(n_iters=3000, noise_reinjection_at=1500, trials=200)
        signals = scn.trials * scn.n_iters * (scn.order + 1) * 8  # x.nbytes + d.nbytes
        # an untraced first call, so the trace holds only what every call allocates
        run_sysid(scn, table4)
        tracemalloc.start()
        try:
            run_sysid(scn, table4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one more (trials, n_iters) array would add a third of the signals
        assert signals <= peak <= 1.25 * signals


class TestSysidSignals:
    @pytest.mark.parametrize("trials", [1, experiments.TRIAL_BLOCK, 37])
    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("reinject", [True, False])
    def test_blocks_match_per_trial_draw(self, trials, order, reinject):
        scn = small_scenario(trials=trials, order=order, true_weights=(0.8, 0.5, -0.3)[:order])
        want = oracles.sysid_signals_ref(scn, snr_to_sigma(1.0, scn.snr_db), reinject,
                                         experiments.REINJECTION_SCALE, experiments.REINJECTION_LEN)
        got = experiments._sysid_signals(scn, reinject)
        assert len(got) == 2
        for g, w in zip(got, want):
            np.testing.assert_array_equal(bits(g), bits(w))


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
