import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from coilsim.control import (
    ERROR_BLOCK,
    ConditionReport,
    ConvexParams,
    ConvexState,
    DiagnosticsRecorder,
    DimensionMismatch,
    FilterState,
    InsufficientSamples,
    NonFiniteInput,
    atlms_rate,
    check_convergence_condition,
    convex_step,
    filter_step,
    lms_rate,
    logistic,
    run_atlms_batch,
    run_convex_batch,
    run_lms_batch,
    run_svs_batch,
    svs_rate,
)

PARAMS = ConvexParams(alpha=500.0, beta=0.01, sigma=0.0, phi=1.0, c=0.1,
                      mu_b=0.1, gamma_o=0.55, t_o=2)


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


class TestBaselines:
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
        rng = np.random.default_rng(10)
        x = rng.standard_normal((100_000, 2))
        rep = check_convergence_condition(PARAMS, x)
        assert rep.lambda_max == pytest.approx(1.0, rel=0.05)
        assert rep.mu_max_bound == pytest.approx(2.0, rel=0.05)
        assert rep.nlms_ok and rep.fixed_ok and rep.passed

    def test_zero_beta_fails_positivity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1000, 2))
        fake = SimpleNamespace(beta=0.0, phi=1.0, c=0.1)
        rep = check_convergence_condition(fake, x)
        assert not rep.nlms_ok
        assert not rep.passed

    def test_violation_by_ten_flagged(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10_000, 2))
        base = check_convergence_condition(PARAMS, x)
        min_xtx = PARAMS.beta / base.nlms_rate - PARAMS.phi
        bad_beta = 10.0 * base.mu_max_bound * (PARAMS.phi + min_xtx)
        bad = ConvexParams(alpha=PARAMS.alpha, beta=bad_beta, phi=PARAMS.phi, c=PARAMS.c)
        rep = check_convergence_condition(bad, x)
        assert not rep.nlms_ok
        big_c = SimpleNamespace(beta=PARAMS.beta, phi=PARAMS.phi, c=3.0 * base.mu_max_bound)
        assert not check_convergence_condition(big_c, x).fixed_ok

    def test_power_iteration_matches_eigvalsh(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5000, 4)) @ np.diag([2.0, 1.0, 0.5, 0.1])
        rep = check_convergence_condition(
            SimpleNamespace(beta=0.01, phi=1.0, c=0.1), x
        )
        rxx = x.T @ x / len(x)
        lam_ref = float(np.linalg.eigvalsh(rxx)[-1])
        assert rep.lambda_max == pytest.approx(lam_ref, rel=1e-8)

    def test_top_eigenvector_orthogonal_to_ones(self):
        # the sample correlation is [[1, -.5], [-.5, 1]] with equal diagonal
        # entries, so its top eigenvector (1, -1) is orthogonal to an
        # all-ones start vector
        x = np.array([[math.sqrt(1.5), -math.sqrt(1.5)], [math.sqrt(0.5), math.sqrt(0.5)]])
        rxx = x.T @ x / 2
        assert rxx[0, 0] == rxx[1, 1]
        assert rxx.ravel() == pytest.approx([1.0, -0.5, -0.5, 1.0], rel=1e-15)
        rep = check_convergence_condition(SimpleNamespace(beta=0.01, phi=1.0, c=2.0), x)
        assert rep.lambda_max == pytest.approx(1.5, rel=1e-15)
        assert rep.mu_max_bound == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert not rep.fixed_ok  # c = 2 exceeds 2/1.5
        assert not rep.passed

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            check_convergence_condition(PARAMS, np.ones((1, 2)))

    def test_effective_step_bounded_when_passing(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((20_000, 2))
        rep = check_convergence_condition(PARAMS, x)
        assert rep.passed
        st = ConvexState.initial([0.0, 0.0])
        for i in range(2000):
            convex_step(st, PARAMS, tuple(x[i]), rng.normal())
            eff = 2.0 * st.mu1 / (PARAMS.phi + float(x[i] @ x[i]))
            assert eff <= rep.mu_max_bound


class TestErrorDecrease:
    def test_mean_abs_error_drops_under_valid_rates(self):
        # converging runs: second-half |e| below first-half |e| in >= 99/100
        # seeded trials of the white-input identification task
        rng = np.random.default_rng(99)
        n_iters, trials = 1000, 100
        x = np.empty((trials, n_iters, 2))
        d = np.empty((trials, n_iters))
        wo = np.array([0.8, 0.5])
        for t in range(trials):
            r = np.random.default_rng(1000 + t)
            u = r.standard_normal(n_iters + 1)
            taps = np.lib.stride_tricks.sliding_window_view(u, 2)[:, ::-1]
            x[t] = taps
            d[t] = taps @ wo + 0.0316 * r.standard_normal(n_iters)
        e = np.abs(oracles.run_keeping_errors(run_convex_batch, [0.0, 0.0], PARAMS, x, d)["e"])
        first = e[:, : n_iters // 2].mean(axis=1)
        second = e[:, n_iters // 2 :].mean(axis=1)
        assert np.count_nonzero(second < first) >= 99


class TestBatchEquivalence:
    def _signals(self, trials=3, n_iters=200, seed=0):
        x = np.empty((trials, n_iters, 2))
        d = np.empty((trials, n_iters))
        for t in range(trials):
            rng = np.random.default_rng(seed + t)
            u = rng.standard_normal(n_iters + 1)
            taps = np.lib.stride_tricks.sliding_window_view(u, 2)[:, ::-1]
            x[t] = taps
            d[t] = taps @ np.array([0.8, 0.5]) + 0.1 * rng.standard_normal(n_iters)
        return x, d

    def _assert_filter_matches(self, run, args, rate, x, d):
        res = oracles.run_keeping_errors(run, [0.0, 0.0], *args, x, d)
        for t in range(x.shape[0]):
            st = FilterState.initial([0.0, 0.0], rate)
            for n in range(x.shape[1]):
                filter_step(st, tuple(x[t, n]), d[t, n])
                assert st.e == pytest.approx(res["e"][t, n], rel=1e-10, abs=1e-14)

    def test_lms_batch_matches_scalar(self):
        x, d = self._signals()
        self._assert_filter_matches(run_lms_batch, (0.05,), lms_rate(0.05), x, d)

    def test_svs_batch_matches_scalar(self):
        x, d = self._signals(seed=5)
        self._assert_filter_matches(run_svs_batch, (4.0, 0.15), svs_rate(4.0, 0.15), x, d)

    def test_atlms_batch_matches_scalar(self):
        x, d = self._signals(seed=6)
        self._assert_filter_matches(run_atlms_batch, (500.0, 0.01, 900.0, 500.0),
                                    atlms_rate(500.0, 0.01, 900.0, 500.0), x, d)

    def test_convex_batch_matches_scalar(self):
        x, d = self._signals(seed=7)
        res = oracles.run_keeping_errors(run_convex_batch, [0.0, 0.0], PARAMS, x, d)
        for t in range(x.shape[0]):
            st = ConvexState.initial([0.0, 0.0])
            for n in range(x.shape[1]):
                convex_step(st, PARAMS, tuple(x[t, n]), d[t, n])
                assert st.e == pytest.approx(res["e"][t, n], rel=1e-10, abs=1e-14)
                assert st.e1 == pytest.approx(res["e1"][t, n], rel=1e-10, abs=1e-14)
            assert st.gamma == pytest.approx(res["gamma"][t], rel=1e-10)


class TestDiagnostics:
    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(2)
        rec = DiagnosticsRecorder()
        st = ConvexState.initial([0.0, 0.0])
        for n in range(5):
            y = convex_step(st, PARAMS, *random_input(rng))
            rec.record(n, y, st)
        path = tmp_path / "diag.csv"
        rec.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,y,y1,y2,e,e1,e2,gamma,b,mu1"
        assert len(lines) == 6
        # np.float64 cells print as the plain floats they are
        values = (y, st.y1, st.y2, st.e, st.e1, st.e2, st.gamma, st.b, st.mu1)
        assert lines[-1] == ",".join(["4", *(repr(float(v)) for v in values)])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_bitwise_equal(run, args, ref: dict):
    """run(*args), its errors collected by a sink, equals ref bit for bit."""
    got = oracles.run_keeping_errors(run, *args)
    assert got.keys() == ref.keys()
    for key, want in ref.items():
        assert got[key].shape == want.shape, key
        np.testing.assert_array_equal(bits(got[key]), bits(want), err_msg=key)


class TestBatchRunnersBitwise:
    """The time-major runners reproduce the trial-major einsum runners kept
    in tests/oracles.py bit for bit.  The references always get C-ordered
    input, the layout the sysid harness used to pass; the runners get either
    that or a time-major view of the same values, and must not care."""

    TRIALS, N_ITERS = 13, 240

    @pytest.fixture(params=[1, 2, 3, 9], ids=lambda o: f"order{o}")
    def order(self, request):
        return request.param

    @pytest.fixture(params=["c-order", "time-major"])
    def signals(self, request, order):
        rng = np.random.default_rng(order)
        x = rng.standard_normal((self.TRIALS, self.N_ITERS, order))
        d = rng.standard_normal((self.TRIALS, self.N_ITERS))
        if request.param == "c-order":
            return x, d, x, d
        xt = np.ascontiguousarray(x.transpose(1, 2, 0))
        dt = np.ascontiguousarray(d.T)
        return x, d, xt.transpose(2, 0, 1), dt.T

    # "bias": the desired signal carries the offset fit_k * x0 + fit_b that
    # the controllers' deleted bias term used to model; the filters now have
    # to absorb it in their weights
    @pytest.fixture(params=[(0.0, 0.0), (0.3, -0.2)], ids=["no-bias", "bias"])
    def fit(self, request):
        return request.param

    @staticmethod
    def _with_bias(signals, fit):
        x, d, xr, dr = signals
        if fit == (0.0, 0.0):
            return signals
        d = d + (fit[0] * x[:, :, 0] + fit[1])
        return x, d, xr, d if dr.flags.c_contiguous else np.ascontiguousarray(d.T).T

    def test_lms(self, signals, order, fit):
        x, d, xr, dr = self._with_bias(signals, fit)
        w0 = np.linspace(-0.3, 0.4, order)
        ref = oracles.run_lms_batch_ref(w0, 0.05, x, d)
        assert_bitwise_equal(run_lms_batch, (w0, 0.05, xr, dr), ref)

    @pytest.mark.parametrize("alpha", [4.0, 1e4])
    def test_svs(self, signals, order, fit, alpha):
        x, d, xr, dr = self._with_bias(signals, fit)
        w0 = np.linspace(-0.3, 0.4, order)
        ref = oracles.run_svs_batch_ref(w0, alpha, 0.15, x, d)
        if alpha > 1e3:  # -alpha * |e| crosses the -700 clamp
            assert np.any(alpha * np.abs(ref["e"]) > 700.0)
        assert_bitwise_equal(run_svs_batch, (w0, alpha, 0.15, xr, dr), ref)

    def test_atlms(self, signals, order, fit):
        x, d, xr, dr = self._with_bias(signals, fit)
        w0 = np.linspace(-0.3, 0.4, order)
        ref = oracles.run_atlms_batch_ref(w0, 500.0, 0.01, 900.0, 500.0, x, d)
        assert_bitwise_equal(run_atlms_batch, (w0, 500.0, 0.01, 900.0, 500.0, xr, dr), ref)

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
        assert_bitwise_equal(run_convex_batch, (w0, p, xr, dr), ref)

    def test_convex_gamma_clamp(self):
        # mu_b large enough that b ends below -700 in some trials, where the
        # clamp, not exp's overflow, sets gamma
        rng = np.random.default_rng(0)
        x = rng.standard_normal((self.TRIALS, self.N_ITERS, 2))
        d = rng.standard_normal((self.TRIALS, self.N_ITERS))
        p = ConvexParams(alpha=1e5, beta=0.3, sigma=11.0, phi=0.1, c=0.1, mu_b=5e4, gamma_o=0.55, t_o=2)
        ref = oracles.run_convex_batch_ref([0.1, -0.2], p, x, d)
        assert np.any(ref["gamma"] == 1.0 / (1.0 + np.exp(700.0)))
        xt, dt = np.ascontiguousarray(x.transpose(1, 2, 0)), np.ascontiguousarray(d.T)
        for xr, dr in ((x, d), (xt.transpose(2, 0, 1), dt.T)):
            assert_bitwise_equal(run_convex_batch, ([0.1, -0.2], p, xr, dr), ref)

    def test_convex_default_rates(self, signals, order):
        x, d, xr, dr = signals
        ref = oracles.run_convex_batch_ref([0.0] * order, PARAMS, x, d)
        assert_bitwise_equal(run_convex_batch, ([0.0] * order, PARAMS, xr, dr), ref)


class TestErrorBlocks:
    """Past one ERROR_BLOCK of steps: the errors a sink collects still match
    the trial-major references bit for bit, the sink gets every step once,
    in order, and the runner returns only its final state."""

    TRIALS, N_ITERS = 5, 2 * ERROR_BLOCK + 5

    @pytest.fixture
    def signals(self):
        rng = np.random.default_rng(11)
        return rng.standard_normal((self.TRIALS, self.N_ITERS, 2)), rng.standard_normal((self.TRIALS, self.N_ITERS))

    CASES = {
        "lms": (run_lms_batch, oracles.run_lms_batch_ref, (0.05,), {"w"}),
        "svs": (run_svs_batch, oracles.run_svs_batch_ref, (4.0, 0.15), {"w"}),
        "atlms": (run_atlms_batch, oracles.run_atlms_batch_ref, (500.0, 0.01, 900.0, 500.0), {"w"}),
        "convex": (run_convex_batch, oracles.run_convex_batch_ref, (PARAMS,), {"w1", "w2", "b", "gamma"}),
    }

    @pytest.mark.parametrize("method", list(CASES))
    def test_full_arrays_match_reference(self, signals, method):
        run, ref, args, _ = self.CASES[method]
        x, d = signals
        assert_bitwise_equal(run, ([0.1, -0.2], *args, x, d), ref([0.1, -0.2], *args, x, d))

    @pytest.mark.parametrize("method", list(CASES))
    def test_sink_gets_each_block_in_order(self, signals, method):
        run, ref, args, state = self.CASES[method]
        x, d = signals
        want = ref([0.1, -0.2], *args, x, d)
        kinds = len(want) - len(state)
        seen = []

        def sink(start, block):
            seen.append((start, block.shape))
            for k, key in enumerate(("e", "e1", "e2")[:kinds]):
                np.testing.assert_array_equal(block[k].T, want[key][:, start : start + block.shape[1]])

        assert run([0.1, -0.2], *args, x, d, sink=sink).keys() == state
        assert seen == [(0, (kinds, ERROR_BLOCK, self.TRIALS)), (ERROR_BLOCK, (kinds, ERROR_BLOCK, self.TRIALS)),
                        (2 * ERROR_BLOCK, (kinds, 5, self.TRIALS))]

    @pytest.mark.parametrize("method", list(CASES))
    def test_sink_is_required(self, signals, method):
        run, _, args, _ = self.CASES[method]
        with pytest.raises(TypeError, match="sink"):
            run([0.1, -0.2], *args, *signals)
