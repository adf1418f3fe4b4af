import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coilsim.cli import EXIT_OK, main
from coilsim.config import load_preset
from coilsim.experiments import run_step_response
from coilsim.plant import (
    ASCENDING_FIT,
    DESCENDING_FIT,
    HMC5883L,
    IDEAL_SENSOR,
    RM3100,
    DisturbanceSpec,
    PlantModel,
    SensorSpec,
    TargetProfile,
    disturbance_series,
    sensor_noise,
    snr_to_sigma,
)
from oracles import DegenerateFit, drive, inverse_drive, sense


class TestDrive:
    def test_ascending_full_scale(self):
        p = PlantModel.ascending()
        assert drive(p, 3.0) == pytest.approx((46.333 * 3 + 1.7623) * 1000.0)
        assert drive(p, 3.0) == pytest.approx(140_761.3, rel=1e-6)

    def test_zero_fit_gives_zero(self):
        p = PlantModel(fit_k=0.0, fit_b=0.0)
        assert drive(p, 0.0) == 0.0

    def test_clamps_to_range(self):
        p = PlantModel.ascending()
        assert drive(p, 5.0) == drive(p, 3.0)
        assert drive(p, -1.0) == drive(p, 0.0)

    def test_monotone_affine_inside_range(self):
        p = PlantModel.descending()
        vs = np.linspace(0.0, 3.0, 31)
        fields = [drive(p, v) for v in vs]
        assert all(a < b for a, b in zip(fields, fields[1:]))
        # affine: second differences vanish
        d2 = np.diff(fields, 2)
        assert np.all(np.abs(d2) < 1e-6)


class TestInverseDrive:
    def test_round_trip_identity(self):
        p = PlantModel.ascending()
        for f in (5_000.0, 60_000.0, 120_000.0, 140_000.0):
            back = drive(p, inverse_drive(p, f))
            assert back == pytest.approx(f, rel=1e-9)

    def test_target_120000_voltage(self):
        p = PlantModel.ascending()
        assert inverse_drive(p, 120_000.0) == pytest.approx(2.552, abs=1e-3)

    def test_above_range_clamps_to_vmax(self):
        p = PlantModel.ascending()
        assert inverse_drive(p, 1e9) == p.v_max

    def test_degenerate_fit(self):
        p = PlantModel(fit_k=1e-13, fit_b=0.0)
        with pytest.raises(DegenerateFit):
            inverse_drive(p, 1000.0)

    @settings(max_examples=500, deadline=None)
    @given(
        fit=st.sampled_from([ASCENDING_FIT, DESCENDING_FIT]),
        ends=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).filter(lambda e: e[0] != e[1]),
        frac=st.floats(0.0, 1.0),
    )
    @example(fit=ASCENDING_FIT, ends=(-3.0, 3.0), frac=0.5)
    @example(fit=ASCENDING_FIT, ends=(-0.04, -0.035), frac=0.3)  # around zero field
    def test_round_trip_within_documented_bound(self, fit, ends, frac):
        p = PlantModel(*fit, v_min=min(ends), v_max=max(ends))
        f_lo, f_hi = drive(p, p.v_min), drive(p, p.v_max)
        f = min(max(f_lo + frac * (f_hi - f_lo), f_lo), f_hi)
        m = max(abs(f_lo), abs(f_hi), 1000.0 * abs(p.fit_b))
        assert abs(drive(p, inverse_drive(p, f)) - f) <= 5.0 * 2.0**-52 * m


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


def quantize_reference(q: float, v: float) -> float:
    """The quantizer as numpy's round-half-even, which keeps the sign of a
    zero result."""
    return q * float(np.round(v / q))


class TestSensor:
    def test_identity_without_noise_or_quantization(self):
        (noise,) = sensor_noise(IDEAL_SENSOR, 0, 1).tolist()
        assert sense(IDEAL_SENSOR, 12345.678, noise) == 12345.678

    def test_quantization_multiples(self):
        spec = SensorSpec(noise_sigma_nt=0.0, quantization_step_nt=435.0)
        for f in (0.0, 120_000.0, 33_333.3, -7_777.7):
            v = sense(spec, f, 0.0)
            assert v == pytest.approx(435.0 * round(v / 435.0), abs=1e-9)

    def test_round_half_even(self):
        spec = SensorSpec(quantization_step_nt=2.0)
        assert sense(spec, 3.0, 0.0) == 4.0  # 1.5 LSB -> 2 LSB
        assert sense(spec, 5.0, 0.0) == 4.0  # 2.5 LSB -> 2 LSB

    def test_noise_sigma_estimate(self):
        vals = np.array([sense(RM3100, 1000.0, e) for e in sensor_noise(RM3100, 3, 10_000).tolist()])
        # quantization at 13 nT adds ~uniform(step^2/12) on top of 15 nT noise
        expected = math.sqrt(15.0**2 + 13.0**2 / 12.0)
        assert np.std(vals) == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1])
    def test_block_equals_per_reading_draws(self, seed):
        block = sensor_noise(HMC5883L, seed, 2000)
        rng = np.random.default_rng((seed, 1))
        per_reading = [HMC5883L.noise_sigma_nt * rng.standard_normal() for _ in range(2000)]
        assert [bits(v) for v in block.tolist()] == [bits(v) for v in per_reading]

    def test_noiseless_sensor_draws_nothing(self, monkeypatch):
        made = []
        monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args))
        noise = sensor_noise(SensorSpec(quantization_step_nt=13.0), 5, 100)
        assert made == []
        assert all(bits(v) == bits(-0.0) for v in noise.tolist())
        assert bits(sense(IDEAL_SENSOR, -0.0, noise.tolist()[0])) == bits(-0.0)

    @given(
        q=st.sampled_from([13.0, 435.0, 2.0, 0.1, 3e-7]),
        k=st.integers(-(10**9), 10**9),
        v=st.floats(allow_nan=False),
        half=st.booleans(),
    )
    @example(q=435.0, k=0, v=-0.0, half=False)
    @example(q=435.0, k=0, v=0.0, half=False)
    @example(q=435.0, k=0, v=-0.3, half=False)
    @example(q=435.0, k=0, v=1e300, half=False)
    @example(q=435.0, k=0, v=-1e300, half=False)
    @example(q=2.0, k=-1, v=0.0, half=True)
    @example(q=0.1, k=0, v=1.7976931348623157e308, half=False)  # v / q overflows
    def test_noiseless_quantizer_matches_numpy_round_bitwise(self, q, k, v, half):
        # half-LSB points (k + 1/2) * q exercise the ties-to-even rule
        if half:
            v = (k + 0.5) * q
        spec = SensorSpec(quantization_step_nt=q)
        (noise,) = sensor_noise(spec, 0, 1).tolist()
        assert bits(sense(spec, v, noise)) == bits(quantize_reference(q, v))

    def test_table_sensor_models(self):
        assert HMC5883L.quantization_step_nt == 435.0
        assert HMC5883L.noise_sigma_nt == 200.0
        assert HMC5883L.sample_rate_hz == 75.0
        assert RM3100.sample_rate_hz == 200.0


class TestDisturbance:
    def test_all_zero_spec(self):
        spec = DisturbanceSpec()
        assert disturbance_series(spec, [0.0, 0.1, 2.7], 0).tolist() == [0.0, 0.0, 0.0]

    def test_dc_only(self):
        spec = DisturbanceSpec(dc_offset_nt=512.0)
        assert disturbance_series(spec, [0.0, 1.0, 9.9], 0).tolist() == [512.0] * 3

    def test_ac_component(self):
        spec = DisturbanceSpec(ac_components=((100.0, 2.0, 0.0),))
        v = disturbance_series(spec, [0.0, 0.125], 0)
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert v[1] == pytest.approx(100.0, rel=1e-12)

    def test_gaussian_sigma_estimate(self):
        spec = DisturbanceSpec(gaussian_sigma_nt=50.0)
        vals = disturbance_series(spec, np.arange(100_000) * 1e-3, 7)
        assert np.std(vals) == pytest.approx(50.0, rel=0.02)

    def test_deterministic_per_time(self):
        spec = DisturbanceSpec(gaussian_sigma_nt=50.0)
        ts = np.arange(50) / 200.0
        a = disturbance_series(spec, ts, 7)
        assert a.tolist() == disturbance_series(spec, ts, 7).tolist()
        assert np.all(np.diff(a) != 0.0)
        assert np.all(a != disturbance_series(spec, ts, 8))

    def test_gaussian_term_is_the_seed_stream(self):
        spec = DisturbanceSpec(dc_offset_nt=10.0, gaussian_sigma_nt=50.0)
        rng = np.random.default_rng((7, 2))
        expected = [10.0 + 50.0 * rng.standard_normal() for _ in range(500)]
        assert disturbance_series(spec, np.arange(500) * 0.01, 7).tolist() == expected

    def test_prefix_stable(self):
        spec = DisturbanceSpec(ac_components=((30.0, 1.5, 0.2),), gaussian_sigma_nt=50.0)
        ts = np.arange(3000) / 75.0
        full = disturbance_series(spec, ts, 3)
        assert disturbance_series(spec, ts[:1725], 3).tolist() == full[:1725].tolist()

    def test_independent_of_sensor_stream(self):
        n = 20_000
        dist = disturbance_series(DisturbanceSpec(gaussian_sigma_nt=1.0), np.zeros(n), 42)
        noise = sensor_noise(SensorSpec(noise_sigma_nt=1.0), 42, n)
        assert not np.any(dist == noise)
        assert abs(np.corrcoef(dist, noise)[0, 1]) < 4.0 / math.sqrt(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(ac_components=((-1.0, 1.0, 0.0),))
        with pytest.raises(ValueError):
            DisturbanceSpec(ac_components=((1.0, 0.0, 0.0),))


class TestSnr:
    def test_definition_points(self):
        assert snr_to_sigma(1.0, 0.0) == 1.0
        assert snr_to_sigma(1.0, 30.0) == pytest.approx(0.03162, rel=1e-3)
        assert snr_to_sigma(1.0, 10.0) == pytest.approx(0.3162, rel=1e-3)


class TestTargetProfile:
    def test_targets_are_plain_floats(self):
        # a trace CSV prints targets with repr: 5000 or np.float64(5000.0)
        # would not read as the float 5000.0 does
        p = TargetProfile.step_up(5000, switch_time_s=1)
        assert [type(p.target_at(t)) for t in (0.0, 2.0)] == [float, float]

    def test_constant(self):
        p = TargetProfile.constant(29_950.1)
        assert p.target_at(0.0) == p.target_at(100.0) == 29_950.1

    def test_step_up_down(self):
        up = TargetProfile.step_up(120_000.0, switch_time_s=2.0)
        assert up.target_at(1.99) == 0.0
        assert up.target_at(2.0) == 120_000.0
        assert up.step_magnitude() == 120_000.0
        down = TargetProfile.step_down(120_000.0, switch_time_s=1.0)
        assert down.target_at(0.5) == 120_000.0
        assert down.target_at(1.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TargetProfile("wiggle")
        with pytest.raises(ValueError):
            TargetProfile("step_up", (0.0,))
        with pytest.raises(ValueError):  # its target would switch to the second
            TargetProfile("constant", (1.0, 2.0))


def target_at_ref(p, t):
    """The per-time target law in plain Python floats."""
    if p.kind == "constant":
        return p.levels[0]
    return p.levels[0] if t < p.switch_time_s else p.levels[1]


levels = st.floats(-2e5, 2e5)
switch_times = st.floats(-1.0, 5.0)
profiles = st.one_of(
    st.builds(TargetProfile.constant, levels),
    st.builds(TargetProfile.step_up, levels, switch_times),
    st.builds(TargetProfile.step_down, levels, switch_times),
)


class TestTargetArrays:
    """target_at over an array of times gives, at each time, the bits of
    target_at at that time alone, and both follow the per-time law."""

    @settings(max_examples=300, deadline=None)
    @given(profile=profiles, times=st.lists(st.floats(-2.0, 6.0), max_size=30), data=st.data())
    def test_array_form_matches_scalar_form_bitwise(self, profile, times, data):
        # the switch time, where a step changes level, and times at and before 0
        times = times + [profile.switch_time_s, 0.0, -0.0, -1.0]
        times = data.draw(st.permutations(times))
        got = profile.target_at(np.array(times))
        assert got.shape == (len(times),)
        scalar = [profile.target_at(t) for t in times]
        assert {type(v) for v in scalar} == {float}
        assert [bits(v) for v in got.tolist()] == [bits(v) for v in scalar]
        assert [bits(v) for v in scalar] == [bits(target_at_ref(profile, t)) for t in times]


class TestSensorLog:
    def test_csv_header_and_rows(self, tmp_path):
        # the sensor log `step --sensor-log` writes: one row per step
        argv = ["step", "--preset", "table7-up", "--method", "lms", "--sensor-log", "log.csv",
                "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        steps = len(run_step_response(load_preset("table7-up").step_scenario("lms")).columns["t_s"])
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "t_s,true_nT,disturbance_nT,measured_nT"
        assert len(lines) == 1 + steps


class TestFitConstants:
    def test_paper_fit_pairs(self):
        assert ASCENDING_FIT == (46.333, 1.7623)
        assert DESCENDING_FIT == (46.253, 1.8935)
