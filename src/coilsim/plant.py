"""Simulated testbed physics: drive-voltage to field mapping, environmental
disturbance, and magnetometer models.

Fields at this boundary are in nanotesla; the voltage/field fit constants are
in microtesla per volt and microtesla (the testbed's fitted curve units).

The drive, its inverse and the magnetometer reading are applied sample by
sample inside the closed loop, coilsim.experiments.run_step_response, where
they are written inline: PlantModel and SensorSpec hold their constants.
The scalar functions the loop was written from, `drive`, `inverse_drive`
and `sense`, are kept in tests/oracles.py, and the loop is pinned to them
bit for bit.

Random quantities are drawn a run at a time, not a sample at a time: a run
with seed s takes its sensor noise from the stream default_rng((s, 1)) and
its Gaussian disturbance from default_rng((s, 2)), keys spelled here only.
Each stream is prefix-stable (sample i always gets draw i, whatever the
run length), and the two are independent of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# Fitted voltage -> field curves of the physical coil, measured separately
# for rising and falling drive (hysteresis): field_uT = k * volts + b.
ASCENDING_FIT = (46.333, 1.7623)
DESCENDING_FIT = (46.253, 1.8935)


@dataclass(frozen=True)
class PlantModel:
    """Linear drive model: clamp the voltage to [v_min, v_max], then
    field_nT = (k*v + b)*1000.  Its inverse, the voltage for a field, is
    v = (field_nT/1000 - b)/k, clamped the same way."""

    fit_k: float  # uT per volt
    fit_b: float  # uT
    v_min: float = 0.0
    v_max: float = 3.0

    def __post_init__(self):
        # named with their unit, as [plant] keys are; NaN fails too
        if not -math.inf < self.v_min < self.v_max < math.inf:
            raise ValueError("v_min_v and v_max_v must be finite, with v_min_v < v_max_v")

    @classmethod
    def ascending(cls, **kwargs) -> "PlantModel":
        return cls(*ASCENDING_FIT, **kwargs)

    @classmethod
    def descending(cls, **kwargs) -> "PlantModel":
        return cls(*DESCENDING_FIT, **kwargs)


@dataclass(frozen=True)
class SensorSpec:
    """Magnetometer model: a reading adds its Gaussian noise to the true
    field, then rounds half-to-even to the quantization step; a zero step
    means no quantization."""

    noise_sigma_nt: float = 0.0
    quantization_step_nt: float = 0.0
    sample_rate_hz: float = 200.0

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 <= self.noise_sigma_nt < math.inf:
            raise ValueError("noise_sigma_nt must be >= 0 and finite")
        if not 0.0 <= self.quantization_step_nt < math.inf:
            raise ValueError("quantization_step_nt must be >= 0 and finite")
        if not 0.0 < self.sample_rate_hz < math.inf:
            raise ValueError("sample_rate_hz must be > 0 and finite")


# Table-of-record sensor models for the two magnetometers on the testbed.
RM3100 = SensorSpec(noise_sigma_nt=15.0, quantization_step_nt=13.0, sample_rate_hz=200.0)
HMC5883L = SensorSpec(noise_sigma_nt=200.0, quantization_step_nt=435.0, sample_rate_hz=75.0)
IDEAL_SENSOR = SensorSpec()


def sensor_noise(spec: SensorSpec, seed: int, n: int) -> np.ndarray:
    """The additive noise of a run's n consecutive magnetometer readings, nT.

    One block of n standard normals from the stream keyed (seed, 1), so the
    i-th reading gets the i-th draw and a longer run extends a shorter one.
    A noiseless sensor makes no Generator and returns -0.0, the exact
    additive identity (x + -0.0 == x bitwise, -0.0 included).
    """
    if spec.noise_sigma_nt > 0.0:
        return spec.noise_sigma_nt * np.random.default_rng((seed, 1)).standard_normal(n)
    return np.full(n, -0.0)


# Largest target level and disturbance term, nT (1 T): some 20,000 times the
# geomagnetic field, and a run's squared errors stay far inside the float range.
LEVEL_MAX_NT = 1e9


@dataclass(frozen=True)
class DisturbanceSpec:
    """Environmental field disturbance: DC offset, AC tones, and Gaussian
    noise drawn from the seed of the run it disturbs (amplitudes in nT,
    frequencies in Hz, phases in rad)."""

    dc_offset_nt: float = 0.0
    ac_components: tuple[tuple[float, float, float], ...] = ()
    gaussian_sigma_nt: float = 0.0

    def __post_init__(self):
        # written so that NaN fails too
        if not abs(self.dc_offset_nt) <= LEVEL_MAX_NT:
            raise ValueError(f"dc_offset_nt must be finite and within +/-{LEVEL_MAX_NT:g} nT")
        for amp, freq, phase in self.ac_components:
            if not 0.0 <= amp <= LEVEL_MAX_NT:
                raise ValueError(f"AC amplitudes must be >= 0 and at most {LEVEL_MAX_NT:g} nT")
            if not 0.0 < freq < math.inf:
                raise ValueError("AC frequencies must be > 0 and finite")
            if not math.isfinite(phase):
                raise ValueError("AC phases must be finite")
        if not 0.0 <= self.gaussian_sigma_nt <= LEVEL_MAX_NT:
            raise ValueError(f"gaussian_sigma_nt must be >= 0 and at most {LEVEL_MAX_NT:g} nT")


def disturbance_series(spec: DisturbanceSpec, times, seed: int) -> np.ndarray:
    """Disturbance field at each of a run's sample times, nT.

    The Gaussian term of the i-th sample is the i-th draw of the run's
    stream keyed (seed, 2), made only if the term is there: the same spec
    and seed reproduce the same series, a longer series extends a shorter
    one, and the stream is independent of the sensor's (seed, 1) noise
    stream.  It depends on the sample index, not on the time value.
    """
    t = np.asarray(times, dtype=float)
    v = np.full(t.shape, spec.dc_offset_nt, dtype=float)
    for amp, freq, phase in spec.ac_components:
        v += amp * np.sin(2.0 * math.pi * freq * t + phase)
    if spec.gaussian_sigma_nt > 0.0:
        v += spec.gaussian_sigma_nt * np.random.default_rng((seed, 2)).standard_normal(t.shape)
    return v


def snr_to_sigma(signal_power: float, snr_db: float) -> float:
    """Noise standard deviation for a given signal power and SNR in dB."""
    if signal_power < 0.0:
        raise ValueError("signal_power must be >= 0")
    return math.sqrt(signal_power / (10.0 ** (snr_db / 10.0)))


@dataclass(frozen=True)
class TargetProfile:
    """Target field over time, nT.

    kinds: constant, step_up (levels[0] -> levels[1] at switch_time_s),
    step_down (same convention).
    """

    kind: str
    levels: tuple[float, ...] = (0.0,)
    switch_time_s: float = 0.0

    _KINDS = ("constant", "step_up", "step_down")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        # plain floats, so targets print as floats in trace CSVs
        object.__setattr__(self, "levels", tuple(map(float, self.levels)))
        for v in self.levels:
            if not abs(v) <= LEVEL_MAX_NT:
                raise ValueError(f"profile levels must be finite and within +/-{LEVEL_MAX_NT:g} nT")
        if len(self.levels) != (1 if self.kind == "constant" else 2):
            raise ValueError("a constant profile needs exactly 1 level, and a step profile 2")

    @classmethod
    def constant(cls, level_nt: float) -> "TargetProfile":
        return cls("constant", (level_nt,))

    @classmethod
    def step_up(cls, level_nt: float, switch_time_s: float = 0.0) -> "TargetProfile":
        return cls("step_up", (0.0, level_nt), switch_time_s)

    @classmethod
    def step_down(cls, level_nt: float, switch_time_s: float = 0.0) -> "TargetProfile":
        return cls("step_down", (level_nt, 0.0), switch_time_s)

    def target_at(self, t):
        """Target at time t, nT: a float for a scalar t, an array of the
        same shape for an array of times, with the same bits at each time."""
        t = np.asarray(t, dtype=float)
        # a constant profile has one level, so its switch changes nothing
        v = np.where(t < self.switch_time_s, self.levels[0], self.levels[-1])
        return float(v) if v.ndim == 0 else v

    def step_magnitude(self) -> float:
        """Magnitude of the commanded change, used for reach-time bands."""
        if self.kind == "constant":
            return abs(self.levels[0])
        return abs(self.levels[-1] - self.levels[0])

