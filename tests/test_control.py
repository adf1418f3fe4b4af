import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from coilsim.control import (
    ConditionReport,
    ConvexParams,
    ConvexState,
    DiagnosticsRecorder,
    DimensionMismatch,
    FilterState,
    InsufficientSamples,
    NonFiniteInput,
    StepInput,
    StepOutput,
    atlms_step,
    check_convergence_condition,
    convex_step,
    lms_step,
    logistic,
    run_atlms_batch,
    run_convex_batch,
    run_lms_batch,
    run_svs_batch,
    svs_step,
)

PARAMS = ConvexParams(alpha=500.0, beta=0.01, sigma=0.0, phi=1.0, c=0.1,
                      mu_b=0.1, gamma_o=0.55, t_o=2)


def random_state(rng, order=2):
    return ConvexState.initial(rng.normal(size=order), rng.normal(size=order),
                               b=rng.uniform(-3, 3))


def random_input(rng, order=2):
    return StepInput(tuple(rng.normal(size=order)), rng.normal())


class TestConvexStep:
    def test_initial_gamma_half(self):
        st = ConvexState.initial([0.8, 0.5])
        assert st.b == 0.0
        assert st.gamma == 0.5

    def test_equal_weights_make_e_independent_of_gamma(self):
        inp = StepInput((0.3, -0.7), 1.2)
        outs = []
        for b in (-2.0, 0.0, 3.0):
            st = ConvexState.initial([0.4, -0.2], [0.4, -0.2], b=b)
            out, _ = convex_step(st, PARAMS, inp)
            outs.append(out)
        assert outs[0].y1 == outs[0].y2
        assert outs[0].e1 == outs[0].e2
        assert len({o.e for o in outs}) == 1

    def test_zero_error_keeps_slow_weights(self):
        st = ConvexState.initial([0.5, 0.5], [0.0, 0.0])
        # d equals y1 so e1 = 0 and prev_e1 = 0: mu1 must be exactly 0
        inp = StepInput((1.0, 1.0), 1.0)
        w1_before = list(st.w1)
        out, st = convex_step(st, PARAMS, inp)
        assert out.e1 == 0.0
        assert out.mu1 == 0.0
        assert st.w1 == w1_before

    def test_gamma_stays_in_unit_interval(self):
        rng = np.random.default_rng(42)
        st = random_state(rng)
        for _ in range(1000):
            _, st = convex_step(st, PARAMS, random_input(rng))
            assert 0.0 < st.gamma < 1.0
            assert st.gamma == logistic(st.b)

    def test_convex_error_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            st = random_state(rng)
            g = st.gamma
            out, _ = convex_step(st, PARAMS, random_input(rng))
            assert abs(out.e - (g * out.e1 + (1.0 - g) * out.e2)) <= 1e-12

    def test_weight_transfer(self):
        rng = np.random.default_rng(44)
        transfers = 0
        for _ in range(1000):
            st = random_state(rng)
            st.step_index = int(rng.integers(0, 6))
            expected = st.gamma > PARAMS.gamma_o and st.step_index % PARAMS.t_o == 0
            _, st = convex_step(st, PARAMS, random_input(rng))
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
            out, _ = convex_step(st, PARAMS, random_input(rng))
            ref = out.y1 if pick == "y1" else out.y2
            assert abs(out.y - ref) <= 1e-9

    def test_b_update_sign_antisymmetry(self):
        rng = np.random.default_rng(46)
        for _ in range(1000):
            w1 = rng.normal(size=2)
            w2 = rng.normal(size=2)
            b0 = rng.uniform(-2, 2)
            x = tuple(rng.normal(size=2))
            d = rng.normal()
            st_a = ConvexState.initial(w1, w2, b=b0)
            out_a, st_a = convex_step(st_a, PARAMS, StepInput(x, d))
            # same pre-step outputs, negated error: d' = 2y - d
            st_b = ConvexState.initial(w1, w2, b=b0)
            out_b, st_b = convex_step(st_b, PARAMS, StepInput(x, 2.0 * out_a.y - d))
            assert out_b.e == pytest.approx(-out_a.e, rel=1e-9, abs=1e-12)
            da = st_a.b - b0
            db = st_b.b - b0
            assert db == pytest.approx(-da, rel=1e-9, abs=1e-15)

    def test_sign_zero_freezes_b(self):
        st = ConvexState.initial([0.5, 0.5], [0.0, 0.0], b=1.0)
        # craft d so the combined error is exactly zero
        x = (1.0, 1.0)
        g = st.gamma
        y = g * 1.0 + (1.0 - g) * 0.0
        out, st = convex_step(st, PARAMS, StepInput(x, y))
        assert out.e == 0.0
        assert st.b == 1.0

    def test_dimension_mismatch(self):
        st = ConvexState.initial([0.1, 0.2])
        with pytest.raises(DimensionMismatch):
            convex_step(st, PARAMS, StepInput((1.0,), 0.0))

    def test_non_finite_input(self):
        st = ConvexState.initial([0.1, 0.2])
        with pytest.raises(NonFiniteInput):
            convex_step(st, PARAMS, StepInput((math.nan, 0.0), 0.0))
        with pytest.raises(NonFiniteInput):
            convex_step(st, PARAMS, StepInput((0.0, 0.0), math.inf))

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
        st = FilterState.initial([0.0, 0.0])
        out, st = lms_step(st, 0.5, StepInput((1.0, 0.0), 1.0))
        assert out.e == 1.0
        assert st.w == [0.5, 0.0]
        out2, _ = lms_step(st, 0.5, StepInput((1.0, 0.0), 1.0))
        assert out2.e == 0.5

    def test_lms_zero_error_keeps_weights(self):
        st = FilterState.initial([0.25, -0.5])
        out, st = lms_step(st, 0.1, StepInput((1.0, 1.0), -0.25))
        assert out.e == 0.0
        assert st.w == [0.25, -0.5]

    def test_svs_step_size_limits(self):
        st = FilterState.initial([0.0, 0.0])
        out, _ = svs_step(st, 4.0, 0.15, StepInput((0.0, 0.0), 0.0))
        assert out.mu1 == 0.0
        st = FilterState.initial([0.0, 0.0])
        out, _ = svs_step(st, 4.0, 0.15, StepInput((0.0, 0.0), 1e9))
        assert out.mu1 == pytest.approx(0.15 / 2.0, rel=1e-12)

    def test_atlms_step_size_limits(self):
        st = FilterState.initial([0.0, 0.0])
        out, _ = atlms_step(st, 500.0, 0.01, 900.0, 500.0, StepInput((0.0, 0.0), 0.0))
        assert out.mu1 == 0.0
        st = FilterState.initial([0.0, 0.0])
        out, _ = atlms_step(st, 500.0, 0.01, 900.0, 500.0, StepInput((0.0, 0.0), 1e12))
        bound = 0.01 * 900.0 / (900.0 + 500.0)
        assert out.mu1 <= bound
        assert out.mu1 == pytest.approx(bound, rel=1e-6)

    def test_bias_convention_matches_convex(self):
        x = (0.7, -0.2)
        st_f = FilterState.initial([0.0, 0.0], fit_k=2.0, fit_b=-1.0)
        out_f, _ = lms_step(st_f, 0.0 + 1e-12, StepInput(x, 0.0))
        p = ConvexParams(alpha=1.0, beta=0.01, fit_k=2.0, fit_b=-1.0)
        st_c = ConvexState.initial([0.0, 0.0])
        out_c, _ = convex_step(st_c, p, StepInput(x, 0.0))
        assert out_f.y == out_c.y1 == 2.0 * 0.7 - 1.0


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
            out, st = convex_step(st, PARAMS, StepInput(tuple(x[i]), rng.normal()))
            eff = 2.0 * out.mu1 / (PARAMS.phi + float(x[i] @ x[i]))
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
        res = run_convex_batch([0.0, 0.0], PARAMS, x, d)
        e = np.abs(res["e"])
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

    def test_lms_batch_matches_scalar(self):
        x, d = self._signals()
        res = run_lms_batch([0.0, 0.0], 0.05, x, d)
        for t in range(x.shape[0]):
            st = FilterState.initial([0.0, 0.0])
            for n in range(x.shape[1]):
                out, st = lms_step(st, 0.05, StepInput(tuple(x[t, n]), d[t, n]))
                assert out.e == pytest.approx(res["e"][t, n], rel=1e-10, abs=1e-14)

    def test_svs_batch_matches_scalar(self):
        x, d = self._signals(seed=5)
        res = run_svs_batch([0.0, 0.0], 4.0, 0.15, x, d)
        for t in range(x.shape[0]):
            st = FilterState.initial([0.0, 0.0])
            for n in range(x.shape[1]):
                out, st = svs_step(st, 4.0, 0.15, StepInput(tuple(x[t, n]), d[t, n]))
                assert out.e == pytest.approx(res["e"][t, n], rel=1e-10, abs=1e-14)

    def test_atlms_batch_matches_scalar(self):
        x, d = self._signals(seed=6)
        res = run_atlms_batch([0.0, 0.0], 500.0, 0.01, 900.0, 500.0, x, d)
        for t in range(x.shape[0]):
            st = FilterState.initial([0.0, 0.0])
            for n in range(x.shape[1]):
                out, st = atlms_step(
                    st, 500.0, 0.01, 900.0, 500.0, StepInput(tuple(x[t, n]), d[t, n])
                )
                assert out.e == pytest.approx(res["e"][t, n], rel=1e-10, abs=1e-14)

    def test_convex_batch_matches_scalar(self):
        x, d = self._signals(seed=7)
        res = run_convex_batch([0.0, 0.0], PARAMS, x, d)
        for t in range(x.shape[0]):
            st = ConvexState.initial([0.0, 0.0])
            for n in range(x.shape[1]):
                out, st = convex_step(st, PARAMS, StepInput(tuple(x[t, n]), d[t, n]))
                assert out.e == pytest.approx(res["e"][t, n], rel=1e-10, abs=1e-14)
                assert out.e1 == pytest.approx(res["e1"][t, n], rel=1e-10, abs=1e-14)
            assert st.gamma == pytest.approx(res["gamma"][t], rel=1e-10)


class TestDiagnostics:
    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(2)
        rec = DiagnosticsRecorder()
        st = ConvexState.initial([0.0, 0.0])
        for n in range(5):
            out, st = convex_step(st, PARAMS, random_input(rng))
            rec.record(n, out, st)
        path = tmp_path / "diag.csv"
        rec.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,y,y1,y2,e,e1,e2,gamma,b,mu1"
        assert len(lines) == 6


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_bitwise_equal(got: dict, ref: dict):
    for key, want in ref.items():
        if key == "w_snapshots":
            assert got[key].keys() == want.keys()
            for n in want:
                np.testing.assert_array_equal(bits(got[key][n]), bits(want[n]), err_msg=f"{key}[{n}]")
        else:
            assert got[key].shape == want.shape, key
            np.testing.assert_array_equal(bits(got[key]), bits(want), err_msg=key)


class TestBatchRunnersBitwise:
    """The time-major runners reproduce the trial-major einsum runners kept
    in tests/oracles.py bit for bit.  The references always get C-ordered
    input, the layout the sysid harness used to pass; the runners get either
    that or a time-major view of the same values, and must not care."""

    TRIALS, N_ITERS = 13, 240
    RECORD = (0, 7, 239)

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

    @pytest.fixture(params=[(0.0, 0.0), (0.3, -0.2)], ids=["no-bias", "bias"])
    def fit(self, request):
        return request.param

    def test_lms(self, signals, order, fit):
        x, d, xr, dr = signals
        w0 = np.linspace(-0.3, 0.4, order)
        ref = oracles.run_lms_batch_ref(w0, 0.05, x, d, *fit, record_w_at=self.RECORD)
        assert_bitwise_equal(run_lms_batch(w0, 0.05, xr, dr, *fit, record_w_at=self.RECORD), ref)

    @pytest.mark.parametrize("alpha", [4.0, 1e4])
    def test_svs(self, signals, order, fit, alpha):
        x, d, xr, dr = signals
        w0 = np.linspace(-0.3, 0.4, order)
        ref = oracles.run_svs_batch_ref(w0, alpha, 0.15, x, d, *fit)
        if alpha > 1e3:  # -alpha * |e| crosses the -700 clamp
            assert np.any(alpha * np.abs(ref["e"]) > 700.0)
        assert_bitwise_equal(run_svs_batch(w0, alpha, 0.15, xr, dr, *fit), ref)

    def test_atlms(self, signals, order, fit):
        x, d, xr, dr = signals
        w0 = np.linspace(-0.3, 0.4, order)
        ref = oracles.run_atlms_batch_ref(w0, 500.0, 0.01, 900.0, 500.0, x, d, *fit)
        assert_bitwise_equal(run_atlms_batch(w0, 500.0, 0.01, 900.0, 500.0, xr, dr, *fit), ref)

    @pytest.mark.parametrize("t_o", [1, 2, 3])
    def test_convex(self, signals, order, fit, t_o):
        x, d, xr, dr = signals
        w0 = np.linspace(-0.3, 0.4, order)
        # alpha large enough that the rate's exponent hits the -700 clamp,
        # gamma_o low enough that transfers fire
        p = ConvexParams(alpha=1e5, beta=0.3, sigma=11.0, phi=0.1, c=0.1, mu_b=2.0,
                         gamma_o=0.55, t_o=t_o, fit_k=fit[0], fit_b=fit[1])
        ref = oracles.run_convex_batch_ref(w0, p, x, d, 0.3, self.RECORD)
        e1 = ref["e1"]
        assert np.any(-p.alpha * np.abs(e1[:, 1:] * e1[:, :-1]) + p.sigma * np.abs(e1[:, 1:]) < -700.0)
        no_late_transfer = replace(p, t_o=self.N_ITERS)
        assert not np.array_equal(ref["e2"], oracles.run_convex_batch_ref(w0, no_late_transfer, x, d, 0.3)["e2"])
        assert_bitwise_equal(run_convex_batch(w0, p, xr, dr, 0.3, self.RECORD), ref)

    def test_convex_gamma_clamp(self):
        # mu_b large enough that b ends below -700 in some trials, where the
        # clamp, not exp's overflow, sets gamma
        rng = np.random.default_rng(0)
        x = rng.standard_normal((self.TRIALS, self.N_ITERS, 2))
        d = rng.standard_normal((self.TRIALS, self.N_ITERS))
        p = ConvexParams(alpha=1e5, beta=0.3, sigma=11.0, phi=0.1, c=0.1, mu_b=1e4, gamma_o=0.55, t_o=2)
        ref = oracles.run_convex_batch_ref([0.1, -0.2], p, x, d, 0.3)
        assert np.any(ref["gamma"] == 1.0 / (1.0 + np.exp(700.0)))
        xt, dt = np.ascontiguousarray(x.transpose(1, 2, 0)), np.ascontiguousarray(d.T)
        for xr, dr in ((x, d), (xt.transpose(2, 0, 1), dt.T)):
            assert_bitwise_equal(run_convex_batch([0.1, -0.2], p, xr, dr, 0.3), ref)

    def test_convex_default_rates(self, signals, order):
        x, d, xr, dr = signals
        ref = oracles.run_convex_batch_ref([0.0] * order, PARAMS, x, d)
        assert_bitwise_equal(run_convex_batch([0.0] * order, PARAMS, xr, dr), ref)
