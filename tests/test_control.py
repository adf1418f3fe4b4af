import math
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from coilsim.cli import EXIT_OK, main
from coilsim.config import load_preset
from coilsim.control import (
    ERROR_BLOCK,
    AtlmsParams,
    ConvexParams,
    LmsParams,
    NonFiniteInput,
    SvsParams,
    check_convergence_condition,
    run_laws_batch,
)
from coilsim.experiments import run_step_response
from oracles import (
    ConvexState,
    DimensionMismatch,
    FilterState,
    atlms_rate,
    convex_step,
    filter_step,
    lms_rate,
    logistic,
    svs_rate,
)

PARAMS = ConvexParams(alpha=500.0, beta=0.01, sigma=0.0, phi=1.0, c=0.1,
                      mu_b=0.1, gamma_o=0.55, t_o=2)
# rates at which the SVS and convex exponents cross the +-700 clamp and
# convex transfers weights
STRONG = ConvexParams(alpha=1e5, beta=0.3, sigma=11.0, phi=0.1, c=0.1, mu_b=2.0, gamma_o=0.55, t_o=3)
# method -> (its reference in tests/oracles.py, the parameters of its law in
# run_laws_batch); a reference takes them as keywords(law)
LAWS = {
    "lms": (oracles.run_lms_batch_ref, LmsParams(mu=0.05)),
    "svs": (oracles.run_svs_batch_ref, SvsParams(alpha=1e4, beta=0.15)),
    "atlms": (oracles.run_atlms_batch_ref, AtlmsParams(alpha=500.0, beta=0.01, m=900.0, n_scale=500.0)),
    "convex": (oracles.run_convex_batch_ref, STRONG),
}


def keywords(law):
    """A law's parameters as the keywords of its reference in tests/oracles.py."""
    return {"params": law} if isinstance(law, ConvexParams) else vars(law)


def random_state(rng, order=2):
    return ConvexState.initial(rng.normal(size=order), rng.normal(size=order),
                               b=rng.uniform(-3, 3))


def random_input(rng, order=2):
    return tuple(rng.normal(size=order)), rng.normal()


# (x, d, the error's message): x is checked before d, and nothing moves
NON_FINITE_INPUTS = [
    ((math.nan, 0.0), 0.0, "^non-finite input sample nan$"),
    ((0.0, -math.inf), math.nan, "^non-finite input sample -inf$"),
    ((0.0, 0.0), math.inf, "^non-finite target inf$"),
]

floats = hst.floats(-5.0, 5.0)
# weights and b of a random two-tap state; inputs small enough that the
# fast branch (c = 0.1) cannot diverge, so gamma never rounds to 0 or 1
convex_states = hst.builds(
    lambda w1, w2, b: ConvexState.initial(w1, w2, b=b),
    hst.tuples(floats, floats), hst.tuples(floats, floats), hst.floats(-20.0, 20.0),
)
step_inputs = hst.lists(
    hst.tuples(hst.tuples(hst.floats(-2.0, 2.0), hst.floats(-2.0, 2.0)), hst.floats(-10.0, 10.0)),
    min_size=1, max_size=20,
)


class TestConvexStep:
    def test_initial_gamma_half(self):
        st = ConvexState.initial([0.8, 0.5])
        assert st.b == 0.0
        assert st.gamma == 0.5

    def test_equal_weights_make_e_independent_of_gamma(self):
        states = []
        for b in (-2.0, 0.0, 3.0):
            s = ConvexState.initial([0.4, -0.2], [0.4, -0.2], b=b)
            convex_step(s, PARAMS, (0.3, -0.7), 1.2)
            states.append(s)
        assert states[0].y1 == states[0].y2
        assert states[0].e1 == states[0].e2
        assert len({s.e for s in states}) == 1

    def test_zero_error_keeps_slow_weights(self):
        s = ConvexState.initial([0.5, 0.5], [0.0, 0.0])
        # d equals y1 so e1 = 0 and the previous e1 = 0: mu1 must be exactly 0
        w1_before = list(s.w1)
        convex_step(s, PARAMS, (1.0, 1.0), 1.0)
        assert s.e1 == 0.0
        assert s.mu1 == 0.0
        assert s.w1 == w1_before

    def test_returns_y_and_leaves_the_step_on_the_state(self):
        s = ConvexState.initial([0.5, -0.25], [0.125, 0.75], b=0.5)
        g = s.gamma
        y = convex_step(s, PARAMS, (2.0, 1.0), 1.5)
        assert (s.y1, s.y2) == (0.75, 1.0)
        assert y == g * 0.75 + (1.0 - g) * 1.0
        assert (s.e, s.e1, s.e2) == (1.5 - y, 0.75, 0.5)
        assert s.step_index == 1

    @settings(max_examples=200, deadline=None)
    @given(state=convex_states, inputs=step_inputs)
    def test_gamma_stays_in_unit_interval(self, state, inputs):
        for x, d in inputs:
            convex_step(state, PARAMS, x, d)
            assert 0.0 < state.gamma < 1.0
            assert state.gamma == logistic(state.b)

    @settings(max_examples=200, deadline=None)
    @given(state=convex_states, inputs=step_inputs)
    def test_convex_error_identity(self, state, inputs):
        for x, d in inputs:
            g = state.gamma
            y = convex_step(state, PARAMS, x, d)
            assert state.e == d - y
            assert abs(state.e - (g * state.e1 + (1.0 - g) * state.e2)) <= 1e-12

    def test_weight_transfer(self):
        rng = np.random.default_rng(44)
        transfers = 0
        for _ in range(1000):
            st = random_state(rng)
            st.step_index = int(rng.integers(0, 6))
            expected = st.gamma > PARAMS.gamma_o and st.step_index % PARAMS.t_o == 0
            convex_step(st, PARAMS, *random_input(rng))
            if expected:
                transfers += 1
                assert st.w2 == st.w1
                assert st.w2 is not st.w1  # a copy, not an alias
        assert transfers > 100

    def test_degenerate_gamma_limits(self):
        rng = np.random.default_rng(45)
        for b, pick in ((40.0, "y1"), (-40.0, "y2")):
            st = random_state(rng)
            st.b = b
            st.gamma = logistic(b)
            y = convex_step(st, PARAMS, *random_input(rng))
            ref = st.y1 if pick == "y1" else st.y2
            assert abs(y - ref) <= 1e-9

    def test_b_update_sign_antisymmetry(self):
        rng = np.random.default_rng(46)
        for _ in range(1000):
            w1 = rng.normal(size=2)
            w2 = rng.normal(size=2)
            b0 = rng.uniform(-2, 2)
            x = tuple(rng.normal(size=2))
            d = rng.normal()
            st_a = ConvexState.initial(w1, w2, b=b0)
            y_a = convex_step(st_a, PARAMS, x, d)
            # same pre-step outputs, negated error: d' = 2y - d
            st_b = ConvexState.initial(w1, w2, b=b0)
            convex_step(st_b, PARAMS, x, 2.0 * y_a - d)
            assert st_b.e == pytest.approx(-st_a.e, rel=1e-9, abs=1e-12)
            da = st_a.b - b0
            db = st_b.b - b0
            assert db == pytest.approx(-da, rel=1e-9, abs=1e-15)

    def test_sign_zero_freezes_b(self):
        st = ConvexState.initial([0.5, 0.5], [0.0, 0.0], b=1.0)
        # craft d so the combined error is exactly zero
        x = (1.0, 1.0)
        g = st.gamma
        y = g * 1.0 + (1.0 - g) * 0.0
        convex_step(st, PARAMS, x, y)
        assert st.e == 0.0
        assert st.b == 1.0

    def test_dimension_mismatch(self):
        st = ConvexState.initial([0.1, 0.2])
        with pytest.raises(DimensionMismatch, match="input length 1 != filter order 2"):
            convex_step(st, PARAMS, (1.0,), 0.0)

    def test_non_finite_input(self):
        st = ConvexState.initial([0.1, 0.2])
        before = repr(st)
        for x, d, message in NON_FINITE_INPUTS:
            with pytest.raises(NonFiniteInput, match=message):
                convex_step(st, PARAMS, x, d)
        assert repr(st) == before

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ConvexParams(alpha=1.0, beta=0.0)
        with pytest.raises(ValueError):
            ConvexParams(alpha=1.0, beta=0.1, gamma_o=1.5)
        with pytest.raises(ValueError):
            ConvexParams(alpha=1.0, beta=0.1, t_o=0)
        with pytest.raises(ValueError):
            ConvexParams(alpha=1.0, beta=0.1, c=-1.0)
        for key in ("beta", "phi", "c"):
            with pytest.raises(ValueError, match=f"^{key} must be"):
                ConvexParams(**{"alpha": 1.0, "beta": 0.1, key: math.nan})
        for key in ("alpha", "sigma", "mu_b"):
            with pytest.raises(ValueError, match="^alpha, sigma and mu_b must be finite$"):
                ConvexParams(**{"alpha": 1.0, "beta": 0.1, key: math.inf})
        for key in ("beta", "c"):  # inf once passed > 0
            with pytest.raises(ValueError, match=f"^{key} must be finite and > 0$"):
                ConvexParams(**{"alpha": 1.0, "beta": 0.1, key: math.inf})


class TestBaselines:
    @pytest.mark.parametrize("method", ["lms", "svs", "atlms"])
    def test_params_validation(self, method):
        # every rate is finite and >= 0, so a zero rate is allowed; ATLMS's m
        # is finite and > 0, so that m + n_scale is too
        params = LAWS[method][1]
        for key in vars(params):
            domain, bad = ("> 0", (0.0, -1.0)) if key == "m" else (">= 0", (-1.0, -1e-300))
            for value in (math.nan, math.inf, -math.inf, *bad):
                with pytest.raises(ValueError, match=f"^{key} must be finite and {domain}$"):
                    replace(params, **{key: value})
            if key != "m":
                assert getattr(replace(params, **{key: 0.0}), key) == 0.0

    def test_lms_hand_computed_step(self):
        st = FilterState.initial([0.0, 0.0], lms_rate(0.5))
        assert filter_step(st, (1.0, 0.0), 1.0) == 0.0
        assert (st.e, st.mu) == (1.0, 0.5)
        assert st.w == [0.5, 0.0]
        assert filter_step(st, (1.0, 0.0), 1.0) == 0.5
        assert st.e == 0.5
        assert st.step_index == 2

    def test_dimension_mismatch(self):
        st = FilterState.initial([0.1, 0.2], lms_rate(0.1))
        with pytest.raises(DimensionMismatch, match="input length 3 != filter order 2"):
            filter_step(st, (1.0, 0.0, 0.0), 0.0)

    def test_non_finite_input(self):
        st = FilterState.initial([0.1, 0.2], lms_rate(0.1))
        before = repr(st)
        for x, d, message in NON_FINITE_INPUTS:
            with pytest.raises(NonFiniteInput, match=message):
                filter_step(st, x, d)
        assert repr(st) == before

    def test_lms_zero_error_keeps_weights(self):
        st = FilterState.initial([0.25, -0.5], lms_rate(0.1))
        filter_step(st, (1.0, 1.0), -0.25)
        assert st.e == 0.0
        assert st.w == [0.25, -0.5]

    def test_svs_step_size_limits(self):
        st = FilterState.initial([0.0, 0.0], svs_rate(4.0, 0.15))
        filter_step(st, (0.0, 0.0), 0.0)
        assert st.mu == 0.0
        st = FilterState.initial([0.0, 0.0], svs_rate(4.0, 0.15))
        filter_step(st, (0.0, 0.0), 1e9)
        assert st.mu == pytest.approx(0.15 / 2.0, rel=1e-12)

    def test_atlms_step_size_limits(self):
        st = FilterState.initial([0.0, 0.0], atlms_rate(500.0, 0.01, 900.0, 500.0))
        filter_step(st, (0.0, 0.0), 0.0)
        assert st.mu == 0.0
        st = FilterState.initial([0.0, 0.0], atlms_rate(500.0, 0.01, 900.0, 500.0))
        filter_step(st, (0.0, 0.0), 1e12)
        bound = 0.01 * 900.0 / (900.0 + 500.0)
        assert st.mu <= bound
        assert st.mu == pytest.approx(bound, rel=1e-6)


class TestConvergenceCondition:
    def test_white_input_bound(self):
        rep = check_convergence_condition(PARAMS)
        assert (rep.lambda_max, rep.mu_max_bound) == (1.0, 2.0)
        assert (rep.nlms_rate, rep.fixed_rate) == (PARAMS.beta / PARAMS.phi, PARAMS.c)
        assert rep.nlms_ok and rep.fixed_ok and rep.passed

    def test_zero_beta_fails_positivity(self):
        rep = check_convergence_condition(SimpleNamespace(beta=0.0, phi=1.0, c=0.1))
        assert not rep.nlms_ok
        assert not rep.passed

    def test_violation_by_ten_flagged(self):
        bound = check_convergence_condition(PARAMS).mu_max_bound
        assert not check_convergence_condition(replace(PARAMS, beta=10.0 * bound * PARAMS.phi)).nlms_ok
        assert not check_convergence_condition(replace(PARAMS, c=3.0 * bound)).fixed_ok

    def test_phi_zero_leaves_the_slow_rate_unbounded(self):
        rep = check_convergence_condition(replace(PARAMS, phi=0.0))
        assert rep.nlms_rate == math.inf
        assert not rep.nlms_ok and not rep.passed

    def test_effective_step_bounded_when_passing(self):
        rng = np.random.default_rng(14)
        rep = check_convergence_condition(PARAMS)
        assert rep.passed
        st = ConvexState.initial([0.0, 0.0])
        for _ in range(2000):
            x = tuple(rng.standard_normal(2))
            convex_step(st, PARAMS, x, rng.normal())
            eff = 2.0 * st.mu1 / (PARAMS.phi + x[0] * x[0] + x[1] * x[1])
            assert eff <= rep.nlms_rate <= rep.mu_max_bound

    def test_slow_rate_is_reached_at_zero_input(self):
        # with x = 0 the target stays the error, e1 = 2, and from the second
        # step -alpha * |e1 * prev_e1| passes the -700 clamp: mu1 = beta/2
        st = ConvexState.initial([0.0, 0.0])
        for _ in range(2):
            convex_step(st, PARAMS, (0.0, 0.0), 2.0)
        assert 2.0 * st.mu1 / PARAMS.phi == check_convergence_condition(PARAMS).nlms_rate


def tap_delay(samples, order):
    """Time-major taps (n_iters, order, trials) over a (n_iters + order - 1,
    trials) sample array, tap 0 the newest sample, as a copy."""
    n_iters = samples.shape[0] - order + 1
    return np.stack([samples[order - 1 - j : order - 1 - j + n_iters] for j in range(order)], axis=1)


class TestErrorDecrease:
    def test_mean_abs_error_drops_under_valid_rates(self):
        # converging runs: second-half |e| below first-half |e| in >= 99/100
        # seeded trials of the white-input identification task
        rng = np.random.default_rng(99)
        n_iters, trials = 1000, 100
        x = tap_delay(rng.standard_normal((n_iters + 1, trials)), 2)
        d = 0.8 * x[:, 0] + 0.5 * x[:, 1] + 0.0316 * rng.standard_normal((n_iters, trials))
        e = np.abs(oracles.run_keeping_errors([0.0, 0.0], {"convex": PARAMS}, x, d)["e"])
        first = e[: n_iters // 2].mean(axis=0)
        second = e[n_iters // 2 :].mean(axis=0)
        assert np.count_nonzero(second < first) >= 99


class TestBatchEquivalence:
    TRIALS = 3

    def _signals(self, order=2, n_iters=200, seed=0):
        rng = np.random.default_rng(seed)
        x = tap_delay(rng.standard_normal((n_iters + order - 1, self.TRIALS)), order)
        wo = np.linspace(0.8, -0.4, order)
        d = sum(w * x[:, j] for j, w in enumerate(wo)) + 0.1 * rng.standard_normal((n_iters, self.TRIALS))
        return x, d

    @staticmethod
    def _scalar_errors(x, d, t, step, state):
        """The scalar step's errors over trial t of the time-major signals."""
        errors = []
        for n in range(x.shape[0]):
            step(state, tuple(x[n, :, t]), d[n, t])
            errors.append(state.e)
        return np.array(errors)

    def _assert_filter_matches(self, law, rate, x, d):
        res = oracles.run_keeping_errors([0.0, 0.0], law, x, d)
        for t in range(self.TRIALS):
            e = self._scalar_errors(x, d, t, filter_step, FilterState.initial([0.0, 0.0], rate))
            np.testing.assert_allclose(e, res["e"][:, t], rtol=1e-10, atol=1e-14)

    def test_lms_batch_matches_scalar(self):
        # the same multiply-adds in the same order: equal bit for bit
        for order in (1, 2, 3, 9):
            x, d = self._signals(order, seed=order)
            w0 = np.linspace(-0.3, 0.4, order)
            res = oracles.run_keeping_errors(w0, {"lms": LmsParams(mu=0.05)}, x, d)
            for t in range(self.TRIALS):
                e = self._scalar_errors(x, d, t, filter_step, FilterState.initial(w0, lms_rate(0.05)))
                np.testing.assert_array_equal(bits(e), bits(res["e"][:, t]), err_msg=f"order {order}")

    def test_svs_batch_matches_scalar(self):
        x, d = self._signals(seed=5)
        self._assert_filter_matches({"svs": SvsParams(alpha=4.0, beta=0.15)}, svs_rate(4.0, 0.15), x, d)

    def test_atlms_batch_matches_scalar(self):
        x, d = self._signals(seed=6)
        self._assert_filter_matches({"atlms": LAWS["atlms"][1]}, atlms_rate(500.0, 0.01, 900.0, 500.0), x, d)

    def test_convex_batch_matches_scalar(self):
        x, d = self._signals(seed=7)
        res = oracles.run_keeping_errors([0.0, 0.0], {"convex": PARAMS}, x, d)
        for t in range(self.TRIALS):
            st = ConvexState.initial([0.0, 0.0])
            for n in range(x.shape[0]):
                convex_step(st, PARAMS, tuple(x[n, :, t]), d[n, t])
                assert st.e == pytest.approx(res["e"][n, t], rel=1e-10, abs=1e-14)
                assert st.e1 == pytest.approx(res["e1"][n, t], rel=1e-10, abs=1e-14)
            assert st.gamma == pytest.approx(res["gamma"][t], rel=1e-10)


class TestDiagnostics:
    def test_csv_export(self, tmp_path):
        # the diagnostics are the convex columns of the step record: one row
        # per step, and np.float64 cells print as the plain floats they are
        argv = ["step", "--preset", "table7-up", "--method", "convex", "--diag-csv", "diag.csv",
                "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        record = run_step_response(load_preset("table7-up").step_scenario("convex")).columns
        lines = (tmp_path / "diag.csv").read_text().splitlines()
        header = "n,y,y1,y2,e,e1,e2,gamma,b,mu1"
        assert lines[0] == header
        assert len(lines) == 1 + len(record["t_s"])
        values = [repr(float(record[k][-1])) for k in header.split(",")[1:]]
        assert lines[-1] == ",".join([str(len(record["t_s"]) - 1), *values])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_bitwise_equal(w0, law, x, d, ref: dict):
    """run_laws_batch on the one-law mapping `law`, its errors collected by
    a sink, equals ref bit for bit."""
    got = oracles.run_keeping_errors(w0, law, x, d)
    assert got.keys() == ref.keys()
    for key, want in ref.items():
        assert got[key].shape == want.shape, key
        np.testing.assert_array_equal(bits(got[key]), bits(want), err_msg=key)


class TestBatchRunnersBitwise:
    """Each law, run alone, reproduces its plain reference kept in
    tests/oracles.py bit for bit.  Both take time-major x (n_iters, order,
    trials) and d (n_iters, trials); run_laws_batch gets them either C-ordered ("c-order") or
    as the view that the sysid harness passes ("time-major"): taps over one
    sample array held newest first, and must not care."""

    TRIALS, N_ITERS = 13, 240

    @pytest.fixture(params=[1, 2, 3, 9], ids=lambda o: f"order{o}")
    def order(self, request):
        return request.param

    @pytest.fixture(params=["c-order", "time-major"])
    def signals(self, request, order):
        rng = np.random.default_rng(order)
        samples = rng.standard_normal((self.N_ITERS + order - 1, self.TRIALS))
        view = np.lib.stride_tricks.sliding_window_view(samples, order, axis=0)[::-1].transpose(0, 2, 1)
        x = np.ascontiguousarray(view)
        d = rng.standard_normal((self.N_ITERS, self.TRIALS))
        return x, d, x if request.param == "c-order" else view, d

    # "bias": the desired signal carries the offset fit_k * x0 + fit_b that
    # the controllers' deleted bias term used to model; the filters now have
    # to absorb it in their weights
    @pytest.fixture(params=[(0.0, 0.0), (0.3, -0.2)], ids=["no-bias", "bias"])
    def fit(self, request):
        return request.param

    @staticmethod
    def _with_bias(signals, fit):
        x, d, xr, _ = signals
        d = d + (fit[0] * x[:, 0] + fit[1])
        return x, d, xr, d

    def test_lms(self, signals, order, fit):
        x, d, xr, dr = self._with_bias(signals, fit)
        w0 = np.linspace(-0.3, 0.4, order)
        ref = oracles.run_lms_batch_ref(w0, 0.05, x, d)
        assert_bitwise_equal(w0, {"lms": LmsParams(mu=0.05)}, xr, dr, ref)

    @pytest.mark.parametrize("alpha", [4.0, 1e4])
    def test_svs(self, signals, order, fit, alpha):
        x, d, xr, dr = self._with_bias(signals, fit)
        w0 = np.linspace(-0.3, 0.4, order)
        ref = oracles.run_svs_batch_ref(w0, alpha, 0.15, x, d)
        if alpha > 1e3:  # -alpha * |e| crosses the -700 clamp
            assert np.any(alpha * np.abs(ref["e"]) > 700.0)
        assert_bitwise_equal(w0, {"svs": SvsParams(alpha=alpha, beta=0.15)}, xr, dr, ref)

    def test_atlms(self, signals, order, fit):
        x, d, xr, dr = self._with_bias(signals, fit)
        w0 = np.linspace(-0.3, 0.4, order)
        ref = oracles.run_atlms_batch_ref(w0, x=x, d=d, **keywords(LAWS["atlms"][1]))
        assert_bitwise_equal(w0, {"atlms": LAWS["atlms"][1]}, xr, dr, ref)

    @pytest.mark.parametrize("t_o", [1, 2, 3])
    def test_convex(self, signals, order, fit, t_o):
        x, d, xr, dr = self._with_bias(signals, fit)
        w0 = np.linspace(-0.3, 0.4, order)
        # alpha large enough that the rate's exponent hits the -700 clamp,
        # gamma_o low enough that transfers fire
        p = ConvexParams(alpha=1e5, beta=0.3, sigma=11.0, phi=0.1, c=0.1, mu_b=2.0,
                         gamma_o=0.55, t_o=t_o)
        ref = oracles.run_convex_batch_ref(w0, p, x, d)
        e1 = ref["e1"]
        assert np.any(-p.alpha * np.abs(e1[:, 1:] * e1[:, :-1]) + p.sigma * np.abs(e1[:, 1:]) < -700.0)
        no_late_transfer = replace(p, t_o=self.N_ITERS)
        assert not np.array_equal(ref["e2"], oracles.run_convex_batch_ref(w0, no_late_transfer, x, d)["e2"])
        assert_bitwise_equal(w0, {"convex": p}, xr, dr, ref)

    def test_convex_gamma_clamp(self):
        # mu_b large enough that b ends below -700 in some trials, where the
        # clamp, not exp's overflow, sets gamma
        rng = np.random.default_rng(0)
        x = rng.standard_normal((self.N_ITERS, 2, self.TRIALS))
        d = rng.standard_normal((self.N_ITERS, self.TRIALS))
        p = ConvexParams(alpha=1e5, beta=0.3, sigma=11.0, phi=0.1, c=0.1, mu_b=5e4, gamma_o=0.55, t_o=2)
        ref = oracles.run_convex_batch_ref([0.1, -0.2], p, x, d)
        assert np.any(ref["gamma"] == 1.0 / (1.0 + np.exp(700.0)))
        assert_bitwise_equal([0.1, -0.2], {"convex": p}, x, d, ref)

    def test_convex_default_rates(self, signals, order):
        x, d, xr, dr = signals
        ref = oracles.run_convex_batch_ref([0.0] * order, PARAMS, x, d)
        assert_bitwise_equal([0.0] * order, {"convex": PARAMS}, xr, dr, ref)


class TestErrorBlocks:
    """Past one ERROR_BLOCK of steps: the errors a sink collects still match
    the references bit for bit, the sink gets every step once, in order,
    and the loop returns only the final state."""

    TRIALS, N_ITERS = 5, 2 * ERROR_BLOCK + 5

    @pytest.fixture
    def signals(self):
        rng = np.random.default_rng(11)
        return rng.standard_normal((self.N_ITERS, 2, self.TRIALS)), rng.standard_normal((self.N_ITERS, self.TRIALS))

    @pytest.mark.parametrize("method", list(LAWS))
    def test_full_arrays_match_reference(self, signals, method):
        ref, law = LAWS[method]
        x, d = signals
        assert_bitwise_equal([0.1, -0.2], {method: law}, x, d, ref([0.1, -0.2], x=x, d=d, **keywords(law)))

    @pytest.mark.parametrize("method", list(LAWS))
    def test_sink_gets_each_block_in_order(self, signals, method):
        ref, law = LAWS[method]
        x, d = signals
        want = ref([0.1, -0.2], x=x, d=d, **keywords(law))
        errors = [key for key in ("e", "e1", "e2") if key in want]
        seen = []

        def sink(start, block):
            seen.append((start, block.shape))
            for k, key in enumerate(errors):
                np.testing.assert_array_equal(block[k], want[key][start : start + block.shape[1]])

        got = run_laws_batch([0.1, -0.2], {method: law}, [(x, d)], sinks={method: sink})
        assert got[method].keys() == want.keys() - set(errors)
        kinds = len(errors)
        assert seen == [(0, (kinds, ERROR_BLOCK, self.TRIALS)), (ERROR_BLOCK, (kinds, ERROR_BLOCK, self.TRIALS)),
                        (2 * ERROR_BLOCK, (kinds, 5, self.TRIALS))]

    @pytest.mark.parametrize("method", list(LAWS))
    def test_sink_is_required(self, signals, method):
        with pytest.raises(TypeError, match="sinks"):
            run_laws_batch([0.1, -0.2], {method: LAWS[method][1]}, [signals])


class TestSplitBlocks:
    """run_laws_batch takes its signals a block at a time: any split of a
    run gives, bit for bit, the errors and final states of the run in one
    block, each sink call starting at its global step index."""

    TRIALS, N_ITERS = 6, 3 * ERROR_BLOCK + 2
    EDGES = {  # where the run is split
        "error-block-minus-1": [ERROR_BLOCK - 1],
        "error-block-plus-1": [ERROR_BLOCK + 1],
        "both": [ERROR_BLOCK - 1, ERROR_BLOCK + 1],
        "ragged": [1, 2, ERROR_BLOCK + 1, ERROR_BLOCK + 1, 2 * ERROR_BLOCK - 1, 3 * ERROR_BLOCK + 1],
        "every-step": list(range(1, N_ITERS)),
    }

    @staticmethod
    def _run(w0, laws, blocks):
        kept = {m: [] for m in laws}

        def keeping(m):
            def sink(start, block):
                assert start == sum(b.shape[1] for b in kept[m])  # every step once, in order
                kept[m].append(block.copy())  # the loop reuses its buffer
            return sink

        state = run_laws_batch(w0, laws, blocks, sinks={m: keeping(m) for m in laws})
        return {m: (np.concatenate(kept[m], axis=1), state[m]) for m in laws}

    @pytest.mark.parametrize("edges", list(EDGES), ids=str)
    @pytest.mark.parametrize("order", [1, 2, 3, 9])
    @pytest.mark.parametrize("t_o", [3, 5])
    def test_split_is_the_whole_run(self, order, edges, t_o):
        rng = np.random.default_rng(order * 10 + t_o)
        samples = rng.standard_normal((self.N_ITERS + order - 1, self.TRIALS))
        x = np.lib.stride_tricks.sliding_window_view(samples, order, axis=0)[::-1].transpose(0, 2, 1)
        d = rng.standard_normal((self.N_ITERS, self.TRIALS))
        w0 = np.linspace(-0.3, 0.4, order)
        # STRONG transfers weights, every t_o steps, at steps whose index
        # within a block differs from their index in the run
        laws = {**{m: law for m, (_, law) in LAWS.items()}, "convex": replace(STRONG, t_o=t_o)}
        whole = self._run(w0, laws, [(x, d)])
        cuts = self.EDGES[edges]
        split = self._run(w0, laws, list(zip(np.split(x, cuts), np.split(d, cuts))))
        for m, (errors, state) in whole.items():
            np.testing.assert_array_equal(bits(split[m][0]), bits(errors), err_msg=m)
            assert split[m][1].keys() == state.keys()
            for key, v in state.items():
                np.testing.assert_array_equal(bits(split[m][1][key]), bits(v), err_msg=f"{m} {key}")
        # the transfers move the run: the fast branch's errors differ
        # without the late ones
        no_late = self._run(w0, {"convex": replace(STRONG, t_o=self.N_ITERS)}, [(x, d)])
        assert not np.array_equal(no_late["convex"][0][2], whole["convex"][0][2])

    def test_no_block_is_rejected(self):
        with pytest.raises(ValueError, match="no block of signals"):
            run_laws_batch([0.0], {"lms": LmsParams(mu=0.1)}, [], sinks={"lms": lambda *_: None})

    @pytest.mark.parametrize("shapes", [((4, 2, 3), (4, 2)), ((4, 1, 3), (4, 3)), ((4, 2, 3), (5, 3))],
                             ids=["trials", "order", "steps"])
    def test_a_block_of_other_shapes_is_rejected(self, shapes):
        first = (np.zeros((4, 2, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="in a run of 2 taps and 3 trials"):
            run_laws_batch([0.0, 0.0], {"lms": LmsParams(mu=0.1)}, [first, tuple(map(np.zeros, shapes))],
                           sinks={"lms": lambda *_: None})


# every non-empty subset of the laws, as listed and reversed
SUBSETS = sorted({o for r in range(1, 5) for c in combinations(LAWS, r) for o in (c, c[::-1])})


class TestOneLoop:
    """run_laws_batch steps any set of laws, in any order, together: each
    method's error blocks and final state are, bit for bit, those of its
    one-law run and of its reference in tests/oracles.py."""

    N_ITERS = ERROR_BLOCK + 5

    @staticmethod
    def _keeping(blocks):
        def sink(start, block):
            blocks.append((start, block.copy()))  # the loop reuses its buffer
        return sink

    @pytest.fixture(scope="class", params=[(o, t) for o in (1, 2, 3) for t in (1, 7, 37)],
                    ids=lambda p: f"order{p[0]}-trials{p[1]}")
    def alone(self, request):
        """The signals, and each method's blocks and state when run alone."""
        order, trials = request.param
        rng = np.random.default_rng(order * 100 + trials)
        samples = rng.standard_normal((self.N_ITERS + order - 1, trials))
        x = np.lib.stride_tricks.sliding_window_view(samples, order, axis=0)[::-1].transpose(0, 2, 1)
        d = rng.standard_normal((self.N_ITERS, trials))
        w0 = np.linspace(-0.3, 0.4, order)
        runs = {}
        for m, (ref, law) in LAWS.items():
            blocks = []
            state = run_laws_batch(w0, {m: law}, [(x, d)], sinks={m: self._keeping(blocks)})[m]
            want = ref(w0, x=np.ascontiguousarray(x), d=d, **keywords(law))
            errors = np.concatenate([b for _, b in blocks], axis=1)
            for key, e in zip(("e", "e1", "e2"), errors):
                np.testing.assert_array_equal(bits(e), bits(want[key]), err_msg=key)
            for key, v in state.items():
                np.testing.assert_array_equal(bits(v), bits(want[key]), err_msg=key)
            runs[m] = blocks, state
        return w0, x, d, runs

    @pytest.mark.parametrize("methods", SUBSETS, ids="-".join)
    def test_each_law_as_if_alone(self, alone, methods):
        w0, x, d, runs = alone
        blocks = {m: [] for m in methods}
        got = run_laws_batch(w0, {m: LAWS[m][1] for m in methods}, [(x, d)],
                             sinks={m: self._keeping(blocks[m]) for m in methods})
        assert set(got) == set(methods)
        for m in methods:
            want_blocks, want_state = runs[m]
            assert [(s, b.shape) for s, b in blocks[m]] == [(s, b.shape) for s, b in want_blocks], m
            for (_, b), (_, want) in zip(blocks[m], want_blocks):
                np.testing.assert_array_equal(bits(b), bits(want), err_msg=m)
            assert got[m].keys() == want_state.keys()
            for key, v in got[m].items():
                np.testing.assert_array_equal(bits(v), bits(want_state[key]), err_msg=f"{m} {key}")

    def test_unknown_law_is_rejected(self):
        x, d = np.zeros((4, 2, 3)), np.zeros((4, 3))
        with pytest.raises(ValueError, match="unknown method 'nlms'"):
            run_laws_batch([0.0, 0.0], {"nlms": {}}, [(x, d)], sinks={"nlms": lambda *_: None})
