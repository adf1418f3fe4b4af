import csv
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from coilsim import experiments
from coilsim._table import write_repr_csv
from coilsim.config import load_preset
from coilsim.control import check_convergence_condition
from coilsim.experiments import (
    SysIdScenario,
    run_divergence_probe,
    run_stability_stat,
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


def test_stability_stat_passes():
    rep = run_stability_stat(small_scenario(n_iters=1000, trials=200, seed=0), mu=0.01)
    assert rep.passed
    assert rep.n_trials == 200 and rep.at_iteration == 999


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

    def test_noise_burst_only_when_reinjecting(self):
        scn = small_scenario()
        eps_on = experiments._sysid_signals(scn)[2].copy()
        eps_off = experiments._sysid_signals(scn, reinject=False)[2]
        lo = scn.noise_reinjection_at
        burst = slice(lo, lo + experiments.REINJECTION_LEN)
        np.testing.assert_array_equal(eps_on[:, burst], eps_off[:, burst] * experiments.REINJECTION_SCALE)
        eps_on[:, burst] = eps_off[:, burst]
        np.testing.assert_array_equal(eps_on, eps_off)

    def test_signal_views_are_time_major(self):
        scn = small_scenario(order=3, true_weights=(0.8, 0.5, -0.3))
        x, d, eps = experiments._sysid_signals(scn)
        assert x.shape == (scn.trials, scn.n_iters, scn.order)
        assert d.shape == eps.shape == (scn.trials, scn.n_iters)
        assert x.transpose(1, 2, 0).flags.c_contiguous
        assert d.T.flags.c_contiguous and eps.T.flags.c_contiguous


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
