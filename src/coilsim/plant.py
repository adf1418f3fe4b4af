"""Simulated testbed physics: drive-voltage to field mapping, environmental
disturbance, and magnetometer models.

Fields at this boundary are in nanotesla; the voltage/field fit constants are
in microtesla per volt and microtesla (the testbed's fitted curve units).

Random quantities are drawn a run at a time, not a sample at a time: a run
with seed s takes its sensor noise from the stream default_rng((s, 1)) and
its Gaussian disturbance from default_rng((s, 2)).  Each stream is
prefix-stable (sample i always gets draw i, whatever the run length), and
the two are independent of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateFit(ValueError):
    """Raised when the voltage/field fit slope is ~zero and cannot be
    inverted."""


# Fitted voltage -> field curves of the physical coil, measured separately
# for rising and falling drive (hysteresis): field_uT = k * volts + b.
ASCENDING_FIT = (46.333, 1.7623)
DESCENDING_FIT = (46.253, 1.8935)


@dataclass(frozen=True)
class PlantModel:
    """Linear drive model: clamp the voltage, then field_nT = (k*v + b)*1000."""

    fit_k: float  # uT per volt
    fit_b: float  # uT
    v_min: float = 0.0
    v_max: float = 3.0

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be < v_max")

    @classmethod
    def ascending(cls, **kwargs) -> "PlantModel":
        return cls(*ASCENDING_FIT, **kwargs)

    @classmethod
    def descending(cls, **kwargs) -> "PlantModel":
        return cls(*DESCENDING_FIT, **kwargs)


def drive(plant: PlantModel, voltage: float) -> float:
    """Field produced for a drive voltage, nT.  Voltage is clamped to the
    actuation range; clamping is the contract, not an error."""
    v = min(max(voltage, plant.v_min), plant.v_max)
    return (plant.fit_k * v + plant.fit_b) * 1000.0


def inverse_drive(plant: PlantModel, target_field_nt: float) -> float:
    """Voltage that produces the target field, clamped to the actuation
    range.  The round trip rounds six times: for reachable f,
    |drive(inverse_drive(f)) - f| <= 5 * 2**-52 * max(|f| at either clamp
    end, 1000 * |fit_b|) (first-order bound; at most 2.6 seen).  Over the
    ascending fit's +/-3 V that is <= 4.4e-11 nT, 1.5 ulp of the largest
    reachable |f|, and 19.5% of uniform reachable f come back inexact."""
    if abs(plant.fit_k) < 1e-12:
        raise DegenerateFit("fit slope ~0; voltage cannot be inferred")
    v = (target_field_nt / 1000.0 - plant.fit_b) / plant.fit_k
    return min(max(v, plant.v_min), plant.v_max)


@dataclass(frozen=True)
class SensorSpec:
    """Magnetometer model: additive Gaussian noise then quantization."""

    noise_sigma_nt: float = 0.0
    quantization_step_nt: float = 0.0
    sample_rate_hz: float = 200.0

    def __post_init__(self):
        # written so that NaN fails too
        if not self.noise_sigma_nt >= 0.0:
            raise ValueError("noise_sigma_nt must be >= 0")
        if not self.quantization_step_nt >= 0.0:
            raise ValueError("quantization_step_nt must be >= 0")
        if not self.sample_rate_hz > 0.0:
            raise ValueError("sample_rate_hz must be > 0")


# Table-of-record sensor models for the two magnetometers on the testbed.
RM3100 = SensorSpec(noise_sigma_nt=15.0, quantization_step_nt=13.0, sample_rate_hz=200.0)
HMC5883L = SensorSpec(noise_sigma_nt=200.0, quantization_step_nt=435.0, sample_rate_hz=75.0)
IDEAL_SENSOR = SensorSpec(noise_sigma_nt=0.0, quantization_step_nt=0.0, sample_rate_hz=200.0)


def sensor_noise(spec: SensorSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """The additive noise of n consecutive magnetometer readings, nT.

    Draws one block of n standard normals from rng, so the i-th reading gets
    the i-th draw of the stream and a longer run extends a shorter one.  A
    noiseless sensor draws nothing and returns -0.0, the exact additive
    identity (x + -0.0 == x bitwise, -0.0 included).
    """
    if spec.noise_sigma_nt > 0.0:
        return spec.noise_sigma_nt * rng.standard_normal(n)
    return np.full(n, -0.0)


def sense(spec: SensorSpec, true_field_nt: float, noise_nt: float) -> float:
    """One magnetometer reading of a true field, nT.

    Adds the reading's noise (one element of sensor_noise) then rounds
    half-to-even to the quantization step; a zero step means no
    quantization.
    """
    v = true_field_nt + noise_nt
    q = spec.quantization_step_nt
    if q > 0.0:
        r = v / q
        # round-half-even, like the sensor's fixed LSB.  round() returns an
        # int, so copysign restores the -0.0 of a negative value below q/2;
        # it rejects a non-finite r, which stays q * r.
        v = math.copysign(q * round(r), v) if math.isfinite(r) else q * r
    return v


@dataclass(frozen=True)
class DisturbanceSpec:
    """Environmental field disturbance: DC offset, AC tones, and seeded
    Gaussian noise (amplitudes in nT, frequencies in Hz, phases in rad)."""

    dc_offset_nt: float = 0.0
    ac_components: tuple[tuple[float, float, float], ...] = ()
    gaussian_sigma_nt: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails too
        for amp, freq, _phase in self.ac_components:
            if not amp >= 0.0:
                raise ValueError("AC amplitudes must be >= 0")
            if not freq > 0.0:
                raise ValueError("AC frequencies must be > 0")
        if not self.gaussian_sigma_nt >= 0.0:
            raise ValueError("gaussian_sigma_nt must be >= 0")


def disturbance_series(spec: DisturbanceSpec, times) -> np.ndarray:
    """Disturbance field at each of the sample times, nT.

    The Gaussian term of the i-th sample is the i-th draw of one stream per
    seed, keyed (seed, 2): the same spec reproduces the same series, a
    longer series extends a shorter one, and the stream is independent of
    the sensor's (seed, 1) noise stream.  It depends on the sample index,
    not on the time value.
    """
    t = np.asarray(times, dtype=float)
    v = np.full(t.shape, spec.dc_offset_nt, dtype=float)
    for amp, freq, phase in spec.ac_components:
        v += amp * np.sin(2.0 * math.pi * freq * t + phase)
    if spec.gaussian_sigma_nt > 0.0:
        rng = np.random.default_rng((spec.seed, 2))
        v += spec.gaussian_sigma_nt * rng.standard_normal(t.shape)
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
    step_down (same convention), ramp_up (linear 0 -> level over
    [0, switch_time_s], then hold).
    """

    kind: str
    levels: tuple[float, ...] = (0.0,)
    switch_time_s: float = 0.0

    _KINDS = ("constant", "step_up", "step_down", "ramp_up")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        # plain floats, so targets print as floats in trace CSVs
        object.__setattr__(self, "levels", tuple(map(float, self.levels)))
        for v in self.levels:
            if not math.isfinite(v):
                raise ValueError("profile levels must be finite")
        if self.kind in ("step_up", "step_down") and len(self.levels) != 2:
            raise ValueError("step profiles need exactly 2 levels")

    @classmethod
    def constant(cls, level_nt: float) -> "TargetProfile":
        return cls("constant", (level_nt,))

    @classmethod
    def step_up(cls, level_nt: float, switch_time_s: float = 0.0) -> "TargetProfile":
        return cls("step_up", (0.0, level_nt), switch_time_s)

    @classmethod
    def step_down(cls, level_nt: float, switch_time_s: float = 0.0) -> "TargetProfile":
        return cls("step_down", (level_nt, 0.0), switch_time_s)

    @classmethod
    def ramp_up(cls, level_nt: float, ramp_time_s: float) -> "TargetProfile":
        return cls("ramp_up", (0.0, level_nt), ramp_time_s)

    def target_at(self, t):
        """Target at time t, nT: a float for a scalar t, an array of the
        same shape for an array of times, with the same bits at each time."""
        t = np.asarray(t, dtype=float)
        levels = self.levels
        if self.kind == "constant":
            v = np.full(t.shape, levels[0])
        elif self.kind in ("step_up", "step_down"):
            v = np.where(t < self.switch_time_s, levels[0], levels[1])
        else:  # ramp_up
            ramp = self.switch_time_s
            if ramp <= 0.0:
                v = np.full(t.shape, levels[1])
            else:
                before = t <= 0.0
                v = np.where(before, levels[0], levels[1])
                # divide only inside the ramp (and at NaN), where t / ramp
                # cannot overflow
                rising = ~(before | (t >= ramp))
                v[rising] = levels[1] * (t[rising] / ramp)
        return float(v) if v.ndim == 0 else v

    def step_magnitude(self) -> float:
        """Magnitude of the commanded change, used for reach-time bands."""
        if self.kind == "constant":
            return abs(self.levels[0])
        return abs(self.levels[-1] - self.levels[0])

